"""Smoke tests for the shared experiment helpers.

Per-experiment runnability, rendering, and structure are pinned by the
registry contract tests (``test_registry.py``); this file keeps the
helper-level checks that don't go through a spec.
"""

import numpy as np

from repro.experiments.common import ExperimentResult, labeled_traces


class TestCommon:
    def test_labeled_traces_deterministic(self):
        a = list(labeled_traces(2, seed=9))
        b = list(labeled_traces(2, seed=9))
        assert len(a) == len(b) == 8
        for (pa, wa), (pb, wb) in zip(a, b):
            assert pa is pb
            assert np.array_equal(wa.iq, wb.iq)

    def test_result_getitem(self):
        r = ExperimentResult(name="x", data={"k": 1})
        assert r["k"] == 1
