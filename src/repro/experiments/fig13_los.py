"""Fig 13: LoS backscatter RSSI / BER / throughput across distances.

Paper headline: maximum LoS ranges 28 m (WiFi 11b/n), 22 m (ZigBee),
20 m (BLE); BERs stay low out to 16 m; peak aggregate throughputs
278.4 / 219.8 / 101.2 / 26.2 kbps (BLE / 11b / 11n / ZigBee).
"""

from __future__ import annotations

import numpy as np

from repro.channel.link import PROTOCOL_LINK_DEFAULTS, BackscatterLink
from repro.core.overlay import Mode
from repro.core.throughput import OverlayThroughputModel
from repro.experiments.common import ExperimentResult, PROTOCOL_ORDER
from repro.experiments.registry import implements
from repro.sim.metrics import format_table

__all__ = ["run", "format_result", "sweep"]


def sweep(
    *,
    extra_loss_db: float = 0.0,
    distances: np.ndarray | None = None,
) -> dict:
    """Shared Fig 13 / Fig 14 machinery (NLoS adds wall loss)."""
    d = distances if distances is not None else np.arange(1.0, 32.0, 1.0)
    data: dict = {"distances_m": d, "per_protocol": {}}
    for protocol in PROTOCOL_ORDER:
        link = BackscatterLink(
            PROTOCOL_LINK_DEFAULTS[protocol], extra_loss_db=extra_loss_db
        )
        model = OverlayThroughputModel(protocol, mode=Mode.MODE_1, link=link)
        points = model.sweep(d)
        data["per_protocol"][protocol] = {
            "rssi_dbm": np.array([p.rssi_dbm for p in points]),
            "ber": np.array([link.ber(float(x)) for x in d]),
            "aggregate_kbps": np.array([p.aggregate_kbps for p in points]),
            "max_range_m": link.max_range_m(),
        }
    return data


@implements("fig13_los")
def run(
    *, d_start_m: float = 1.0, d_stop_m: float = 32.0, d_step_m: float = 1.0
) -> ExperimentResult:
    distances = np.arange(d_start_m, d_stop_m, d_step_m)
    return ExperimentResult(
        name="fig13_los",
        data=sweep(extra_loss_db=0.0, distances=distances),
        notes=[
            "paper: LoS max ranges 28 m WiFi / 22 m ZigBee / 20 m BLE",
            "paper: low BER out to 16 m for all protocols",
        ],
    )


def format_result(result: ExperimentResult) -> str:
    per = result["per_protocol"]
    d = result["distances_m"]
    i10 = int(np.argmin(np.abs(d - 10.0)))
    i16 = int(np.argmin(np.abs(d - 16.0)))
    rows = []
    for protocol in PROTOCOL_ORDER:
        data = per[protocol]
        rows.append(
            [
                protocol.value,
                f"{data['max_range_m']:.1f}",
                f"{data['rssi_dbm'][i10]:.1f}",
                f"{data['ber'][i16]:.2e}",
                f"{data['aggregate_kbps'][0]:.1f}",
            ]
        )
    return format_table(
        ["protocol", "max range (m)", "RSSI@10m (dBm)", "BER@16m", "peak agg (kbps)"],
        rows,
    )


if __name__ == "__main__":
    from repro.experiments.registry import run_preset

    print(run_preset("fig13_los", "full").render())
