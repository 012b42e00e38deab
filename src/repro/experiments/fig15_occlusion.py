"""Fig 15: tag-data throughput when the original channel is occluded.

A drywall blocks the transmitter-to-original-receiver path.  The two-
receiver baselines lose most of their throughput because their decode
needs the original packets; multiscatter decodes from the backscatter
channel alone.  Paper: multiscatter 136 kbps (BLE) / 121 kbps (11b) vs
Hitchhike 94 kbps and FreeRider 33 kbps.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import FreeRider, Hitchhike
from repro.channel.occlusion import Material
from repro.core.overlay import Mode
from repro.core.throughput import OverlayThroughputModel
from repro.experiments.common import ExperimentResult
from repro.experiments.params import Fig15Params
from repro.experiments.registry import implements
from repro.phy.protocols import Protocol
from repro.sim.metrics import format_table

__all__ = ["run", "format_result"]


@implements("fig15_occlusion")
def run(params: Fig15Params) -> ExperimentResult:
    obstruction = Material(params.material)
    rng = np.random.default_rng(params.seed)
    multi_ble = OverlayThroughputModel(Protocol.BLE, mode=Mode.MODE_1).evaluate(
        params.distance_m
    )
    multi_11b = OverlayThroughputModel(Protocol.WIFI_B, mode=Mode.MODE_1).evaluate(
        params.distance_m
    )
    hh = Hitchhike().tag_throughput_kbps(obstruction, rng, n_packets=params.n_packets)
    fr = FreeRider().tag_throughput_kbps(obstruction, rng, n_packets=params.n_packets)
    return ExperimentResult(
        name="fig15_occlusion",
        data={
            "multiscatter_ble_kbps": multi_ble.tag_kbps,
            "multiscatter_11b_kbps": multi_11b.tag_kbps,
            "hitchhike_kbps": hh,
            "freerider_kbps": fr,
            "material": obstruction,
        },
        notes=[
            "paper: multiscatter 136 (BLE) / 121 (11b) vs Hitchhike 94, FreeRider 33 kbps",
            "multiscatter's tag decode never touches the occluded original channel",
        ],
    )


def format_result(result: ExperimentResult) -> str:
    rows = [
        ["multiscatter (BLE)", f"{result['multiscatter_ble_kbps']:.1f}"],
        ["multiscatter (11b)", f"{result['multiscatter_11b_kbps']:.1f}"],
        ["Hitchhike", f"{result['hitchhike_kbps']:.1f}"],
        ["FreeRider", f"{result['freerider_kbps']:.1f}"],
    ]
    return (
        f"original channel occluded by: {result['material'].value}\n"
        + format_table(["system", "tag throughput (kbps)"], rows)
    )
