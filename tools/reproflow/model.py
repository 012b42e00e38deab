"""reproflow's rule catalog (``# reproflow: disable=U001`` pragmas)."""

from __future__ import annotations

__all__ = ["RULES"]

#: code -> one-line description (shown by ``--list-rules``; the full
#: catalog with rationale lives in docs/STATIC_ANALYSIS.md).
RULES: dict[str, str] = {
    "U001": "arithmetic/comparison/assignment mixes incompatible physical units",
    "U002": "log-domain (dB/dBm) quantity mixed with a linear power or voltage",
    "U003": "call argument unit does not match the callee parameter's unit",
    "U004": "unit-ambiguous public parameter; add a unit suffix or units annotation",
    "F001": "worker-reachable function mutates a module-level global",
    "F002": "worker-reachable function clears a cache or writes wavecache state",
    "B001": "compiled bytecode tracked by git; remove and gitignore it",
    "B002": "packaging metadata (egg-info) tracked by git; remove and gitignore it",
}
