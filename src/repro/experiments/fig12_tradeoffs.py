"""Fig 12 + Table 6: productive/tag throughput tradeoffs across modes.

Mode 1 splits throughput ~1:1 between productive and tag data, mode 2
shifts to 3:1 tag-heavy, mode 3 sends a single productive bit per
packet.  The paper averages 100 tag locations; we average the analytic
model over random short-range locations.  Headlines: BLE mode-1
aggregate 278.4 kbps (141.6 productive + 136.8 tag), 802.11b 219.8,
802.11n 101.2, ZigBee 26.2.
"""

from __future__ import annotations

import numpy as np

from repro.core.overlay import Mode
from repro.core.throughput import OverlayThroughputModel
from repro.experiments.common import ExperimentResult, PROTOCOL_ORDER
from repro.experiments.params import Fig12Params
from repro.experiments.registry import implements
from repro.sim.metrics import format_table

__all__ = ["run", "format_result"]


@implements("fig12_tradeoffs")
def run(params: Fig12Params) -> ExperimentResult:
    rng = np.random.default_rng(params.seed)
    distances = rng.uniform(1.0, params.max_distance_m, size=params.n_locations)
    table: dict[tuple, dict[str, float]] = {}
    for protocol in PROTOCOL_ORDER:
        for mode in Mode:
            model = OverlayThroughputModel(protocol, mode=mode)
            prods, tags = [], []
            for d in distances:
                point = model.evaluate(float(d))
                prods.append(point.productive_kbps)
                tags.append(point.tag_kbps)
            table[(protocol, mode)] = {
                "productive_kbps": float(np.mean(prods)),
                "tag_kbps": float(np.mean(tags)),
                "kappa": model.codec.config.kappa,
                "gamma": model.codec.config.gamma,
            }
    return ExperimentResult(
        name="fig12_tradeoffs",
        data={"table": table},
        notes=[
            "paper: BLE mode-1 aggregate 278.4 kbps (141.6 + 136.8)",
            "paper: mode-1 aggregates 219.8 (11b), 101.2 (11n), 26.2 (ZigBee) kbps",
        ],
    )


def format_result(result: ExperimentResult) -> str:
    rows = []
    for (protocol, mode), vals in result["table"].items():
        agg = vals["productive_kbps"] + vals["tag_kbps"]
        rows.append(
            [
                protocol.value,
                mode.name,
                vals["kappa"],
                vals["gamma"],
                f"{vals['productive_kbps']:.1f}",
                f"{vals['tag_kbps']:.1f}",
                f"{agg:.1f}",
            ]
        )
    return format_table(
        ["protocol", "mode", "kappa", "gamma", "productive kbps", "tag kbps", "aggregate"],
        rows,
    )
