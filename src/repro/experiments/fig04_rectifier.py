"""Fig 4: rectifier front-end comparison.

(a) Output voltage vs input power: the clamp circuit produces usable
    output where the basic rectifier's diode stays off.
(b) 802.11b envelope fidelity: the WISP front end (RFID-rate RC)
    smears the 11 Mchip/s envelope; the tuned clamp rectifier tracks
    it.  Fidelity is the correlation between the detected baseband and
    the true envelope.

Also reports the §2.2.1 downlink-range estimate: 30 dBm excitation,
0.15 V output threshold.
"""

from __future__ import annotations

import numpy as np

from repro.channel.pathloss import log_distance_path_loss_db
from repro.core.rectifier import BasicRectifier, ClampRectifier, WispRectifier
from repro.experiments.common import ExperimentResult
from repro.experiments.params import Fig04Params
from repro.experiments.registry import implements
from repro.phy import wifi_b
from repro.sim.metrics import format_table

__all__ = ["run", "format_result", "downlink_range_m"]


def _envelope_fidelity(rectifier, wave, power_dbm: float) -> float:
    """Correlation of the rectifier baseband with the true envelope."""
    out = rectifier.rectify(wave, power_dbm).voltage
    truth = np.abs(wave.iq)
    seg = slice(500, min(5000, out.size))
    a = out[seg] - out[seg].mean()
    b = truth[seg] - truth[seg].mean()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return float(np.dot(a, b) / denom) if denom > 1e-12 else 0.0


def downlink_range_m() -> float:
    """Maximum distance, on a 5 cm grid below 5 m, at which the clamp
    rectifier's output clears the 0.15 V threshold, excited by a 30 dBm
    radio with a 3 dBi antenna (§2.2.1 reports 0.9 m)."""
    rect = ClampRectifier(noise_v_rms=0.0)
    best = 0.0
    for d in np.arange(0.05, 5.0, 0.05):
        incident = 30.0 + 3.0 - log_distance_path_loss_db(float(d))
        if rect.output_for_constant_input(incident) >= 0.15:
            best = float(d)
        else:
            break
    return best


@implements("fig04_rectifier")
def run(params: Fig04Params) -> ExperimentResult:
    powers = np.arange(params.p_start_dbm, params.p_stop_dbm, params.p_step_db)
    basic = BasicRectifier(noise_v_rms=0.0)
    clamp = ClampRectifier(noise_v_rms=0.0)
    wisp = WispRectifier(noise_v_rms=0.0)

    out_basic = [basic.output_for_constant_input(p) for p in powers]
    out_clamp = [clamp.output_for_constant_input(p) for p in powers]

    wave = wifi_b.modulate(b"\x5a" * 16)
    fidelity_ours = _envelope_fidelity(clamp, wave, -10.0)
    fidelity_wisp = _envelope_fidelity(wisp, wave, -10.0)

    return ExperimentResult(
        name="fig04_rectifier",
        data={
            "powers_dbm": powers,
            "basic_out_v": np.array(out_basic),
            "clamp_out_v": np.array(out_clamp),
            "fidelity_ours": fidelity_ours,
            "fidelity_wisp": fidelity_wisp,
            "downlink_range_m": downlink_range_m(),
        },
        notes=[
            "paper: clamp produces higher voltage at 2.4 GHz (Fig 4a)",
            "paper: WISP distorts 802.11b baseband, ours fits (Fig 4b)",
            "paper: downlink range ~0.9 m at 30 dBm, 0.15 V threshold",
        ],
    )


def format_result(result: ExperimentResult) -> str:
    rows = [
        [f"{p:.1f}", f"{b * 1e3:.1f}", f"{c * 1e3:.1f}"]
        for p, b, c in zip(
            result["powers_dbm"], result["basic_out_v"], result["clamp_out_v"]
        )
    ]
    table = format_table(["P_in (dBm)", "basic (mV)", "clamp (mV)"], rows)
    tail = (
        f"\n802.11b envelope fidelity: ours={result['fidelity_ours']:.3f} "
        f"wisp={result['fidelity_wisp']:.3f}"
        f"\ndownlink range @30 dBm, 0.15 V threshold: "
        f"{result['downlink_range_m']:.2f} m (paper: 0.9 m)"
    )
    return table + tail
