"""Ablations: front-end design choices of §2.2-§2.3.

* **RC time constant**: the 1/f_c << tau << 1/f_b rule.  Too-slow RC
  (WISP-like) smears the 802.11b envelope; the tuned constant tracks
  it.  Sweeps tau and measures envelope fidelity.
* **Matching-window length**: identification accuracy vs window length
  at 2.5 Msps (the §2.3.2 extension, in more steps than Fig 8 shows).
* **ADC resolution**: accuracy at 1-9 bits -- why +-1 quantization is
  enough (the basis of the Table 2/5 savings).
"""

import numpy as np

from repro.core.identification import (
    IdentificationConfig,
    ProtocolIdentifier,
    score_traces,
    tabulate_accuracy,
)
from repro.core.rectifier import ClampRectifier
from repro.experiments.common import ExperimentResult, labeled_traces
from repro.phy import wifi_b


# ----------------------------------------------------------------------
# RC time constant
# ----------------------------------------------------------------------
def _fidelity(tau_s: float) -> float:
    wave = wifi_b.modulate(b"\x5a" * 12)
    rect = ClampRectifier(tau_s=tau_s, noise_v_rms=0.0)
    out = rect.rectify(wave, -10.0).voltage
    truth = np.abs(wave.iq)
    seg = slice(500, 4500)
    a = out[seg] - out[seg].mean()
    b = truth[seg] - truth[seg].mean()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return float(np.dot(a, b) / denom) if denom > 1e-12 else 0.0


def run_tau_sweep() -> ExperimentResult:
    taus = (1e-9, 5e-9, 20e-9, 100e-9, 500e-9, 2e-6)
    rows = {tau: _fidelity(tau) for tau in taus}
    return ExperimentResult(
        name="ablation_tau",
        data={"rows": rows},
        notes=["1/f_c << tau << 1/f_b (§2.2.1): ~5-20 ns tracks a 20 MHz baseband"],
    )


def test_ablation_tau():
    rows = run_tau_sweep()["rows"]
    # Fast constants track the envelope; the WISP-like 2 us smears it.
    assert rows[5e-9] > 0.4
    assert rows[2e-6] < 0.5 * rows[5e-9]


# ----------------------------------------------------------------------
# matching-window length at 2.5 Msps
# ----------------------------------------------------------------------
def run_window_sweep(n_traces: int = 10, seed: int = 21) -> ExperimentResult:
    windows = (6.0, 14.0, 24.0, 38.0)
    idents = [
        ProtocolIdentifier(
            IdentificationConfig(sample_rate_hz=2.5e6, quantized=True, window_us=window)
        )
        for window in windows
    ]
    scored = score_traces(
        idents, labeled_traces(n_traces, seed=seed), rng=np.random.default_rng(seed)
    )
    rows = {
        window: tabulate_accuracy(ident.matcher, labeled).average
        for window, ident, labeled in zip(windows, idents, scored)
    }
    return ExperimentResult(
        name="ablation_window",
        data={"rows": rows},
        notes=["longer matching windows rescue low sampling rates (§2.3.2)"],
    )


def test_ablation_window():
    rows = run_window_sweep()["rows"]
    # The longest window beats the shortest by a clear margin.
    assert rows[38.0] > rows[6.0] + 0.05


# ----------------------------------------------------------------------
# ADC resolution
# ----------------------------------------------------------------------
def run_bits_sweep(n_traces: int = 10, seed: int = 22) -> ExperimentResult:
    settings = ((True, 9), (False, 4), (False, 9))
    idents = [
        ProtocolIdentifier(
            IdentificationConfig(
                sample_rate_hz=10e6, quantized=quantized, n_bits=n_bits, window_us=6.0
            )
        )
        for quantized, n_bits in settings
    ]
    scored = score_traces(
        idents, labeled_traces(n_traces, seed=seed), rng=np.random.default_rng(seed)
    )
    rows = {
        "+-1 (1 bit)" if quantized else f"{n_bits} bits": tabulate_accuracy(
            ident.matcher, labeled
        ).average
        for (quantized, n_bits), ident, labeled in zip(settings, idents, scored)
    }
    return ExperimentResult(
        name="ablation_bits",
        data={"rows": rows},
        notes=["+-1 quantization costs little accuracy (the Table 2/5 trade)"],
    )


def test_ablation_bits():
    rows = run_bits_sweep()["rows"]
    # 1-bit matching stays within 15 points of 9-bit full precision.
    assert rows["+-1 (1 bit)"] >= rows["9 bits"] - 0.15
