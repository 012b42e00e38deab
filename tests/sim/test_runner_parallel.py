"""Worker-count knob and worker-count determinism."""

import numpy as np
import pytest

from repro.experiments.common import labeled_traces
from repro.sim.runner import resolve_workers


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
    def test_labeled_traces_bit_identical_parallel(self):
        a = list(labeled_traces(2, seed=9, n_workers=1))
        b = list(labeled_traces(2, seed=9, n_workers=4))
        assert len(a) == len(b) == 8
        for (pa, wa), (pb, wb) in zip(a, b):
            assert pa is pb
            assert np.array_equal(wa.iq, wb.iq)
