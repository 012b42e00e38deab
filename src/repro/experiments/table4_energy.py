"""Table 4: average tag-data exchange times under solar harvesting.

One 4.1 V -> 2.6 V discharge of the 0.01 F storage capacitor delivers
~50 mJ = 0.18 s of operation; recharging takes 216.2 s indoors
(500 lux) or 0.78 s outdoors (1.04e5 lux).  Exchange time = recharge
time amortized over the packets one charge supports.

Note: the paper's Table 4 lists 21.7 ms for outdoor ZigBee, but
0.78 s / 3.6 packets = 216.7 ms -- the paper's own arithmetic implies
a dropped digit; we report the arithmetic value (see EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.core.energy import EnergyBudget, exchange_times, INDOOR_LUX, OUTDOOR_LUX
from repro.experiments.common import ExperimentResult, PROTOCOL_ORDER
from repro.experiments.params import Table4Params
from repro.experiments.registry import implements
from repro.sim.metrics import format_table

__all__ = ["run", "format_result"]


@implements("table4_energy")
def run(params: Table4Params) -> ExperimentResult:
    budget = EnergyBudget()
    table = exchange_times(budget)
    return ExperimentResult(
        name="table4_energy",
        data={
            "table": table,
            "harvest_indoor_s": budget.harvest_time_s(INDOOR_LUX),
            "harvest_outdoor_s": budget.harvest_time_s(OUTDOOR_LUX),
            "runtime_s": budget.runtime_per_charge_s,
        },
        notes=[
            "paper Table 4: indoor 0.60 s (WiFi) / 17.2 s (BLE) / 60.1 s (ZigBee)",
            "paper outdoor ZigBee 21.7 ms is inconsistent with its own arithmetic (216.7 ms)",
        ],
    )


def format_result(result: ExperimentResult) -> str:
    rows = []
    for protocol in PROTOCOL_ORDER:
        vals = result["table"][protocol]
        rows.append(
            [
                protocol.value,
                f"{vals['exchange_packets']:.1f}",
                f"{vals['indoor_s']:.2f} s",
                f"{vals['outdoor_s'] * 1e3:.1f} ms",
            ]
        )
    table = format_table(
        ["protocol", "exchange packets", "indoor avg", "outdoor avg"], rows
    )
    return table + (
        f"\nharvest time: indoor {result['harvest_indoor_s']:.1f} s, "
        f"outdoor {result['harvest_outdoor_s']:.2f} s; "
        f"runtime/charge {result['runtime_s']:.2f} s"
    )
