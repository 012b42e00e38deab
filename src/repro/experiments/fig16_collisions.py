"""Fig 16: diverse excitations colliding in time and in frequency.

Time-domain collision (Fig 16a/b): 802.11n at 2.417 GHz, 2000 pkt/s,
300 B, plus BLE advertising at 2.432 GHz, 34 pkt/s.  The tag has no
channel filters, so an 11n packet overlapping a BLE packet swamps the
BLE envelope: the tag cannot identify (and hence cannot backscatter)
that BLE packet.  Survival under overlap is *measured* at the signal
level by superimposing packets at their incident powers and running
the real identification pipeline; the throughput model then combines
survival with the Poisson overlap probability.  Paper: 11n barely
changes, BLE drops from 278 to 92 kbps.

Frequency-domain collision (Fig 16c/d): ZigBee at 2.415 GHz (inside
the 11n channel) but not overlapping in time.  Identification is
time-domain template matching, so adjacent-channel energy in
non-overlapping packets is harmless: both throughputs hold (the
signal-level check identifies ZigBee with the 11n packet landing
after it).  The overlapped-in-time variant is also measured, showing
why the paper leaves FDMA-like simultaneous excitations as future
work.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from repro.core.identification import IdentificationConfig, ProtocolIdentifier
from repro.core.overlay import Mode
from repro.experiments.registry import implements
from repro.core.throughput import OverlayThroughputModel
from repro.experiments.common import ExperimentResult
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from repro.sim.scene import superimpose
from repro.sim.metrics import format_table
from repro.sim.traffic import packet_airtime_s, random_packet

__all__ = ["run", "format_result", "survival_rate"]

#: Incident powers at the tag (see identification.DEFAULT_INCIDENT_DBM).
_WIFI_DBM = -21.2
_WEAK_DBM = -31.2

#: Scenes submitted to the workers and not yet identified, besides the
#: one being identified: enough to keep both workers busy while the
#: calling thread identifies.
_SCENES_AHEAD = 2


def survival_rate(
    identifier: ProtocolIdentifier,
    victim: Protocol,
    victim_dbm: float,
    interferer: Protocol | None,
    interferer_dbm: float,
    *,
    freq_offset_hz: float,
    time_offset_s: float,
    n_trials: int,
    rng: np.random.Generator,
    interferer_bytes: int = 300,
) -> float:
    """Fraction of victim packets the tag still identifies correctly.

    The calling thread draws each trial's packets from ``rng`` and
    identifies each scene, both in trial order; two worker threads build
    the scenes in between (``resample_poly`` releases the GIL).  Neither
    step on the calling thread reads anything the workers write, so the
    result and ``rng``'s final state do not depend on the scheduling.
    """

    def build_next(pool: ThreadPoolExecutor) -> Future[Waveform]:
        v = random_packet(victim, rng, n_payload_bytes=20)
        if interferer is None:
            i = random_packet(victim, rng, n_payload_bytes=20)
            i_dbm = -120.0  # vanishing interferer: clean baseline
            off = 0.0
        else:
            i = random_packet(interferer, rng, n_payload_bytes=interferer_bytes)
            i_dbm = interferer_dbm
            off = time_offset_s
        return pool.submit(
            superimpose, v, victim_dbm, i, i_dbm,
            freq_offset_hz=freq_offset_hz,
            time_offset_s=off,
            duration_s=90e-6,
        )

    hits = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        ahead = deque(build_next(pool) for _ in range(min(n_trials, _SCENES_AHEAD)))
        for k in range(n_trials):
            scene = ahead.popleft().result()
            if k + _SCENES_AHEAD < n_trials:
                ahead.append(build_next(pool))
            decision = identifier.identify(
                scene, rng=np.random.default_rng(7000 + k), prescaled=True
            )
            hits += decision is victim
    return hits / n_trials


@implements("fig16_collisions")
def run(*, seed: int, n_trials: int = 16) -> ExperimentResult:
    rng = np.random.default_rng(seed)
    ident = ProtocolIdentifier(
        IdentificationConfig(
            sample_rate_hz=2.5e6, quantized=True, window_us=38.0, ordered=True
        )
    )

    def rel_survival(victim, victim_dbm, interferer, interferer_dbm, freq_off, ibytes=300):
        clean = survival_rate(
            ident, victim, victim_dbm, None, 0.0,
            freq_offset_hz=freq_off, time_offset_s=0.0,
            n_trials=n_trials, rng=rng,
        )
        hit = survival_rate(
            ident, victim, victim_dbm, interferer, interferer_dbm,
            freq_offset_hz=freq_off, time_offset_s=-50e-6,
            n_trials=n_trials, rng=rng, interferer_bytes=ibytes,
        )
        return (hit / clean if clean > 0 else 0.0), clean, hit

    surv_ble, _, _ = rel_survival(Protocol.BLE, _WEAK_DBM, Protocol.WIFI_N, _WIFI_DBM, -15e6)
    surv_11n, _, _ = rel_survival(
        Protocol.WIFI_N, _WIFI_DBM, Protocol.BLE, _WEAK_DBM, 15e6, ibytes=37
    )
    surv_zigbee_overlap, _, _ = rel_survival(
        Protocol.ZIGBEE, _WEAK_DBM, Protocol.WIFI_N, _WIFI_DBM, 2e6
    )

    # --- Fig 16a/b: time collision -----------------------------------
    wifi_rate = 2000.0
    ble_rate = 34.0
    t_wifi = packet_airtime_s(Protocol.WIFI_N, 300)
    t_ble = packet_airtime_s(Protocol.BLE, 37)
    p_ble_clear = float(np.exp(-wifi_rate * (t_ble + t_wifi)))
    p_11n_clear = float(np.exp(-ble_rate * (t_wifi + t_ble)))

    max_ble = OverlayThroughputModel(Protocol.BLE, mode=Mode.MODE_1).evaluate(2.0)
    max_11n = OverlayThroughputModel(Protocol.WIFI_N, mode=Mode.MODE_1).evaluate(2.0)
    ble_eff = max_ble.aggregate_kbps * (p_ble_clear + (1 - p_ble_clear) * min(surv_ble, 1.0))
    n11_eff = max_11n.aggregate_kbps * (p_11n_clear + (1 - p_11n_clear) * min(surv_11n, 1.0))

    # --- Fig 16c/d: frequency collision, no time overlap --------------
    max_z = OverlayThroughputModel(Protocol.ZIGBEE, mode=Mode.MODE_1).evaluate(2.0)
    surv_z_tdma = survival_rate(
        ident, Protocol.ZIGBEE, _WEAK_DBM, Protocol.WIFI_N, _WIFI_DBM,
        freq_offset_hz=2e6, time_offset_s=400e-6,  # lands after the window
        n_trials=n_trials, rng=rng,
    )
    clean_z = survival_rate(
        ident, Protocol.ZIGBEE, _WEAK_DBM, None, 0.0,
        freq_offset_hz=2e6, time_offset_s=0.0, n_trials=n_trials, rng=rng,
    )
    z_rel_tdma = surv_z_tdma / clean_z if clean_z > 0 else 0.0

    return ExperimentResult(
        name="fig16_collisions",
        data={
            "time_collision": {
                "ble_clean_kbps": max_ble.aggregate_kbps,
                "ble_collided_kbps": ble_eff,
                "wifi_n_clean_kbps": max_11n.aggregate_kbps,
                "wifi_n_collided_kbps": n11_eff,
                "ble_overlap_survival": surv_ble,
                "p_ble_clear": p_ble_clear,
            },
            "freq_collision": {
                "zigbee_clean_kbps": max_z.aggregate_kbps,
                "zigbee_collided_kbps": max_z.aggregate_kbps * min(z_rel_tdma, 1.0),
                "wifi_n_clean_kbps": max_11n.aggregate_kbps,
                "wifi_n_collided_kbps": max_11n.aggregate_kbps,
                "zigbee_overlapped_survival": surv_zigbee_overlap,
            },
        },
        notes=[
            "paper Fig 16b: BLE 278 -> 92 kbps under time collision; 11n ~unchanged",
            "paper Fig 16d: both ~unchanged under frequency collision (TDMA-like)",
            "overlapped-in-time ZigBee survival shows why simultaneous FDMA needs tag filters (future work)",
        ],
    )


def format_result(result: ExperimentResult) -> str:
    tc = result["time_collision"]
    fc = result["freq_collision"]
    rows = [
        ["time", "BLE", f"{tc['ble_clean_kbps']:.0f}", f"{tc['ble_collided_kbps']:.0f}"],
        ["time", "802.11n", f"{tc['wifi_n_clean_kbps']:.0f}", f"{tc['wifi_n_collided_kbps']:.0f}"],
        ["freq", "ZigBee", f"{fc['zigbee_clean_kbps']:.0f}", f"{fc['zigbee_collided_kbps']:.0f}"],
        ["freq", "802.11n", f"{fc['wifi_n_clean_kbps']:.0f}", f"{fc['wifi_n_collided_kbps']:.0f}"],
    ]
    return format_table(
        ["collision", "protocol", "clean (kbps)", "collided (kbps)"], rows
    )


if __name__ == "__main__":
    from repro.experiments.registry import run_preset

    print(run_preset("fig16_collisions", "full").render())
