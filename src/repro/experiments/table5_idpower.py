"""Table 5: hardware resources and power of identification variants.

Simulated Artix-7 cost of three designs: 20 Msps full precision
(564 mW / 34,751 LUTs), 20 Msps with +-1 quantization (12 mW / 1,574
LUTs), and the shipping 2.5 Msps quantized design (2 mW / 1,070 LUTs)
-- a 282x power reduction end to end.
"""

from __future__ import annotations

from repro.core.resources import CorrelatorDesign
from repro.experiments.common import ExperimentResult
from repro.experiments.params import Table5Params
from repro.experiments.registry import implements
from repro.sim.metrics import format_table

__all__ = ["run", "format_result", "VARIANTS"]

#: (label, sample rate, window us, quantized) per Table 5 row.
VARIANTS = (
    ("20MS/s, no +-1 quan.", 20e6, 8.0, False),
    ("20MS/s, +-1 quan.", 20e6, 8.0, True),
    ("2.5MS/s, +-1 quan.", 2.5e6, 40.0, True),
)


@implements("table5_idpower")
def run(params: Table5Params) -> ExperimentResult:
    rows = {}
    for label, rate, window, quantized in VARIANTS:
        design = CorrelatorDesign(
            sample_rate_hz=rate, window_us=window, quantized=quantized
        )
        rows[label] = {
            "power_mw": design.power_mw,
            "luts": design.luts,
            "taps": design.total_taps,
        }
    baseline = rows[VARIANTS[0][0]]["power_mw"]
    final = rows[VARIANTS[2][0]]["power_mw"]
    return ExperimentResult(
        name="table5_idpower",
        data={"rows": rows, "reduction_factor": baseline / final},
        notes=["paper Table 5: 564 mW -> 12 mW -> 2 mW (282x reduction)"],
    )


def format_result(result: ExperimentResult) -> str:
    baseline = result["rows"][VARIANTS[0][0]]["power_mw"]
    rows = []
    for label, vals in result["rows"].items():
        pct = vals["power_mw"] / baseline * 100.0
        rows.append([label, f"{vals['power_mw']:.0f} ({pct:.2f}%)", vals["luts"]])
    table = format_table(["setup", "power (mW)", "LUTs"], rows)
    return table + f"\npower reduction: {result['reduction_factor']:.0f}x"
