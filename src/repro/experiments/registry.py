"""Declarative experiment registry.

Every paper table/figure is *declared* here as an
:class:`ExperimentSpec` -- name, paper reference, one-line
description, a typed parameter dataclass, and ``quick``/``full``/
``paper`` presets -- while the implementation lives in its own module
under :mod:`repro.experiments` and self-registers with the
:func:`implements` decorator:

    from repro.experiments.registry import implements

    @implements("fig13_los")
    def run(params: Fig13Params) -> ExperimentResult: ...

The split keeps introspection cheap: this module (and
:mod:`repro.experiments.params`) import only the standard library, so
listing experiments -- ``python -m repro list`` -- never touches
NumPy-heavy implementation code.  Implementations load lazily, on the
first ``spec.run(...)`` / ``spec.format(...)`` call.

Adding an experiment is declaring it: add a params dataclass, one
``_declare`` call in the catalog below, and decorate the entry point,
which takes its params instance.  ``python -m repro run NAME`` runs
one experiment.

Typical use::

    from repro.experiments import registry

    spec = registry.get_spec("fig13_los")
    result = spec.run("quick")            # preset name
    result = spec.run("full", d_step_m=0.5)  # preset + overrides
    print(spec.format(result))            # paper-style table
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.experiments import params as _p

if TYPE_CHECKING:  # heavy import, runtime use is lazy
    from repro.experiments.artifacts import ExperimentResult

__all__ = [
    "ExperimentSpec",
    "RegistryError",
    "UnknownExperimentError",
    "PRESET_NAMES",
    "get_spec",
    "implements",
    "names",
    "specs",
]

#: Every spec must provide exactly these presets.
PRESET_NAMES = ("quick", "full", "paper")

#: Parameter fields validated centrally (see repro.sim.runner.validate_bounds).
_COUNT_FIELDS = ("n_trials", "n_traces", "n_train", "n_packets", "n_locations")


class RegistryError(Exception):
    """A spec or implementation violates the registry contract."""


class UnknownExperimentError(RegistryError, KeyError):
    """Lookup of an experiment name that was never declared."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One declared experiment: metadata, typed params, lazy impl.

    ``presets`` maps ``quick``/``full``/``paper`` to instances of
    ``params_type``; ``module`` is the dotted path of the implementing
    module, imported only when the experiment actually runs or
    renders.
    """

    name: str
    paper_ref: str
    description: str
    params_type: type
    presets: Mapping[str, Any]
    module: str

    # -- parameters ----------------------------------------------------
    def has_param(self, field_name: str) -> bool:
        return any(f.name == field_name for f in dataclasses.fields(self.params_type))

    def params(self, preset: str = "full", **overrides: Any) -> Any:
        """Preset instance with ``overrides`` applied field-wise."""
        try:
            base = self.presets[preset]
        except KeyError:
            raise RegistryError(
                f"experiment {self.name!r} has no preset {preset!r}; "
                f"available: {', '.join(self.presets)}"
            ) from None
        return dataclasses.replace(base, **overrides)

    # -- execution -----------------------------------------------------
    def run(self, preset: str = "full", **overrides: Any) -> "ExperimentResult":
        """Run one preset (plus overrides) and stamp provenance."""
        params = self.params(preset, **overrides)
        fields = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}
        self._validate(fields)
        result = self._resolve()(params)
        if result.name != self.name:
            raise RegistryError(
                f"implementation of {self.name!r} returned a result named "
                f"{result.name!r}"
            )
        result.preset = preset
        result.params = fields
        return result

    def _validate(self, fields: dict[str, Any]) -> None:
        """Bounds-check counts in one shared place (sim.runner)."""
        from repro.sim.runner import validate_bounds

        for field_name in _COUNT_FIELDS:
            if field_name in fields:
                validate_bounds(
                    n_trials=fields[field_name],
                    where=f"{self.name}.{field_name}",
                )
        if fields.get("n_workers") is not None:
            validate_bounds(
                n_workers=fields["n_workers"], where=f"{self.name}.n_workers"
            )

    def _resolve(self) -> Callable[[Any], "ExperimentResult"]:
        importlib.import_module(self.module)
        try:
            return _IMPLS[self.name]
        except KeyError:
            raise RegistryError(
                f"module {self.module!r} imported but did not register an "
                f"implementation for {self.name!r} (missing @implements?)"
            ) from None

    # -- rendering -----------------------------------------------------
    def format(self, result: "ExperimentResult") -> str:
        """Render a result (live or loaded from an artifact)."""
        module = importlib.import_module(self.module)
        formatter = getattr(module, "format_result", None)
        if formatter is None:
            raise RegistryError(
                f"module {self.module!r} defines no format_result()"
            )
        return str(formatter(result))


_SPECS: dict[str, ExperimentSpec] = {}
_IMPLS: dict[str, Callable[[Any], "ExperimentResult"]] = {}


def implements(name: str) -> Callable[[Callable[[Any], Any]], Callable[[Any], Any]]:
    """Decorator: bind ``run(params)`` to a declared spec."""
    if name not in _SPECS:
        raise RegistryError(
            f"cannot implement undeclared experiment {name!r}; declare it "
            f"in the registry's catalog first"
        )

    def decorator(fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
        _IMPLS[name] = fn
        return fn

    return decorator


def names() -> tuple[str, ...]:
    """Registered experiment names, in declaration (paper) order."""
    return tuple(_SPECS)


def specs() -> tuple[ExperimentSpec, ...]:
    return tuple(_SPECS.values())


def get_spec(name: str) -> ExperimentSpec:
    try:
        return _SPECS[name]
    except KeyError:
        raise UnknownExperimentError(
            f"unknown experiment {name!r}; available: {', '.join(_SPECS)}"
        ) from None


def _declare(
    name: str,
    paper_ref: str,
    description: str,
    params_type: type,
    *,
    quick: Any = None,
    paper: Any = None,
) -> None:
    """Declare an experiment, validating the spec contract eagerly.

    ``full`` is the dataclass defaults; ``quick``/``paper`` default to
    ``full`` when an experiment has no scale knob."""
    full = params_type()
    spec = ExperimentSpec(
        name=name,
        paper_ref=paper_ref,
        description=description,
        params_type=params_type,
        presets=MappingProxyType(
            {
                "quick": quick if quick is not None else full,
                "full": full,
                "paper": paper if paper is not None else full,
            }
        ),
        module=f"repro.experiments.{name}",
    )
    if spec.name in _SPECS:
        raise RegistryError(f"experiment {spec.name!r} already registered")
    if not spec.description or not spec.paper_ref:
        raise RegistryError(f"experiment {spec.name!r} needs a description and paper_ref")
    if not dataclasses.is_dataclass(spec.params_type):
        raise RegistryError(f"experiment {spec.name!r}: params_type must be a dataclass")
    missing = [p for p in PRESET_NAMES if p not in spec.presets]
    if missing:
        raise RegistryError(
            f"experiment {spec.name!r} is missing presets: {', '.join(missing)}"
        )
    for preset, value in spec.presets.items():
        if not isinstance(value, spec.params_type):
            raise RegistryError(
                f"experiment {spec.name!r} preset {preset!r} is not a "
                f"{spec.params_type.__name__}"
            )
    _SPECS[spec.name] = spec


# ----------------------------------------------------------------------
# The catalog: every paper table/figure, in paper order.  Seeds live
# here (in the params defaults/presets), not in the modules.
# ----------------------------------------------------------------------

_declare(
    "fig04_rectifier",
    "Fig. 4",
    "clamp vs basic rectifier outputs; ours vs WISP envelope fidelity",
    _p.Fig04Params,
    quick=_p.Fig04Params(p_start_dbm=-30.0, p_stop_dbm=-5.0, p_step_db=10.0),
    paper=_p.Fig04Params(p_step_db=1.0),
)
_declare(
    "fig05_envelope_id",
    "Fig. 5",
    "protocol envelopes and (L_p, L_t) identification accuracy at 20 Msps",
    _p.Fig05Params,
    quick=_p.Fig05Params(n_traces=2, grid=((40, 120),)),
    paper=_p.Fig05Params(n_traces=24),
)
_declare(
    "fig07_ordered",
    "Fig. 7",
    "blind vs ordered matching at 10 Msps with +-1 quantization",
    _p.Fig07Params,
    quick=_p.Fig07Params(n_traces=2, n_train=2),
    paper=_p.Fig07Params(n_traces=24, n_train=32),
)
_declare(
    "fig08_sampling",
    "Fig. 8",
    "low-rate sampling with the extended matching window",
    _p.Fig08Params,
    quick=_p.Fig08Params(n_traces=2, n_train=2),
    paper=_p.Fig08Params(n_traces=24, n_train=16),
)
_declare(
    "fig09_baseline_flaws",
    "Fig. 9",
    "two-receiver baseline defects: occlusion BER and symbol offsets",
    _p.Fig09Params,
    quick=_p.Fig09Params(n_packets=30),
    paper=_p.Fig09Params(n_packets=1000),
)
_declare(
    "fig12_tradeoffs",
    "Fig. 12",
    "productive/tag throughput tradeoffs across overlay modes (Table 6)",
    _p.Fig12Params,
    quick=_p.Fig12Params(n_locations=4),
)
_declare(
    "fig13_los",
    "Fig. 13",
    "LoS RSSI / BER / throughput across distances",
    _p.Fig13Params,
    quick=_p.Fig13Params(d_step_m=5.0),
    paper=_p.Fig13Params(d_step_m=0.5),
)
_declare(
    "fig14_nlos",
    "Fig. 14",
    "NLoS RSSI / BER / throughput across distances",
    _p.Fig13Params,
    quick=_p.Fig13Params(d_step_m=5.0),
    paper=_p.Fig13Params(d_step_m=0.5),
)
_declare(
    "fig15_occlusion",
    "Fig. 15",
    "tag throughput with the original channel occluded",
    _p.Fig15Params,
    quick=_p.Fig15Params(n_packets=40),
    paper=_p.Fig15Params(n_packets=1000),
)
_declare(
    "fig16_collisions",
    "Fig. 16",
    "diverse excitations colliding in time and in frequency",
    _p.Fig16Params,
    quick=_p.Fig16Params(n_trials=2),
    paper=_p.Fig16Params(n_trials=48),
)
_declare(
    "fig17_refmod",
    "Fig. 17",
    "tag BER across reference-symbol modulations",
    _p.Fig17Params,
    quick=_p.Fig17Params(n_packets=1),
    paper=_p.Fig17Params(n_packets=24),
)
_declare(
    "fig18_diversity",
    "Fig. 18",
    "excitation diversity: duty-cycled carriers and intelligent pick",
    _p.Fig18Params,
    quick=_p.Fig18Params(duration_s=0.5),
    paper=_p.Fig18Params(duration_s=10.0),
)
_declare(
    "validation_ber",
    "Figs. 13-14 (validation)",
    "simulated modem BER vs the analytic waterfalls",
    _p.ValidationBerParams,
    quick=_p.ValidationBerParams(ebn0_grid_db=(8.0,), n_packets=1, payload_bytes=16),
    paper=_p.ValidationBerParams(
        ebn0_grid_db=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0), n_packets=8
    ),
)
_declare(
    "table2_resources",
    "Table 2",
    "FPGA resource comparison for multiprotocol identification",
    _p.Table2Params,
)
_declare(
    "table3_power",
    "Table 3",
    "COTS prototype power breakdown",
    _p.Table3Params,
)
_declare(
    "table4_energy",
    "Table 4",
    "solar-harvesting tag-data exchange times",
    _p.Table4Params,
)
_declare(
    "table5_idpower",
    "Table 5",
    "hardware resources and power of identification variants",
    _p.Table5Params,
)
