"""Table 3: power breakdown of the COTS prototype (peak, 20 Msps).

Three modules -- packet detection (FPGA + ADC), modulation (FPGA +
RF switch), clock -- totalling 279.5 mW, dominated by the AD9235 ADC.
Also reports the 2.5 Msps operating point the paper argues future ASIC
designs would use.
"""

from __future__ import annotations

from repro.core.energy import PROTOTYPE_POWER
from repro.experiments.common import ExperimentResult
from repro.experiments.params import Table3Params
from repro.experiments.registry import implements
from repro.sim.metrics import format_table

__all__ = ["run", "format_result"]


@implements("table3_power")
def run(params: Table3Params) -> ExperimentResult:
    peak = PROTOTYPE_POWER
    scaled = peak.at_adc_rate(params.adc_rate_hz)
    low_rate = peak.at_adc_rate(2.5e6)
    return ExperimentResult(
        name="table3_power",
        data={
            "rows": scaled.rows(),
            "total_mw": scaled.total_mw,
            "total_at_2p5msps_mw": low_rate.total_mw,
        },
        notes=["paper Table 3: total 279.5 mW at 20 Msps"],
    )


def format_result(result: ExperimentResult) -> str:
    rows = [[part, device, f"{mw:.1f}"] for part, device, mw in result["rows"]]
    rows.append(["Total", "", f"{result['total_mw']:.1f}"])
    table = format_table(["logical part", "device", "power (mW)"], rows)
    return table + (
        f"\nat 2.5 Msps ADC rate: {result['total_at_2p5msps_mw']:.1f} mW"
    )
