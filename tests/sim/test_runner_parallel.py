"""Worker-count knob, seeded-stream determinism and the Student-t CI."""

import numpy as np
import pytest
from scipy import stats as sp_stats

from repro.experiments.common import labeled_traces
from repro.sim.runner import MonteCarlo, TrialStats, resolve_workers


def _trial(rng):
    x = rng.normal(size=256)
    return {"mean": float(x.mean()), "max": float(x.max())}


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers() == 5

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1

    def test_explicit_invalid_raises(self):
        # 0/-3 used to be silently clamped to 1; misconfiguration now
        # goes through validate_bounds and fails loudly.
        with pytest.raises(ValueError, match="n_workers"):
            resolve_workers(0)
        with pytest.raises(ValueError, match="n_workers"):
            resolve_workers(-3)

    @pytest.mark.parametrize("raw", ["junk", "-3", "0", "2.5"])
    def test_env_invalid_warns_and_falls_back(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_WORKERS", raw)
        with pytest.warns(RuntimeWarning, match="REPRO_WORKERS"):
            assert resolve_workers() == 1


class TestParallelDeterminism:
    def test_serial_matches_seeded_reference(self):
        # The serial path must keep the seed's spawned-stream policy:
        # trial i sees default_rng(SeedSequence(seed).spawn(n)[i]).
        stats = MonteCarlo(n_trials=5, seed=9).run(_trial)
        seeds = np.random.SeedSequence(9).spawn(5)
        want = [_trial(np.random.default_rng(s))["mean"] for s in seeds]
        assert np.array_equal(stats["mean"].values, np.array(want))

    def test_labeled_traces_bit_identical_parallel(self):
        a = list(labeled_traces(2, seed=9, n_workers=1))
        b = list(labeled_traces(2, seed=9, n_workers=4))
        assert len(a) == len(b) == 8
        for (pa, wa), (pb, wb) in zip(a, b):
            assert pa is pb
            assert np.array_equal(wa.iq, wb.iq)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            MonteCarlo(n_trials=0).run(_trial)


class TestStudentTCi:
    def test_small_n_uses_t_quantile(self):
        stats = TrialStats(np.array([1.0, 2.0, 3.0]))
        t = sp_stats.t.ppf(0.975, 2)  # 4.3027, not 1.96
        assert stats.ci95_halfwidth() == pytest.approx(
            t * stats.std / np.sqrt(3), rel=1e-12
        )
        assert stats.ci95_halfwidth() > 1.96 * stats.std / np.sqrt(3)

    def test_asymptotically_normal(self):
        values = np.random.default_rng(0).normal(size=100_000)
        stats = TrialStats(values)
        normal = 1.96 * stats.std / np.sqrt(stats.n)
        assert stats.ci95_halfwidth() == pytest.approx(normal, rel=1e-3)

    def test_degenerate_sizes(self):
        assert TrialStats(np.array([])).ci95_halfwidth() == 0.0
        assert TrialStats(np.array([4.2])).ci95_halfwidth() == 0.0
