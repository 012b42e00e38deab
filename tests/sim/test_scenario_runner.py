"""Tests for deployment geometry and the Monte-Carlo runner."""

import numpy as np
import pytest

from repro.phy.protocols import Protocol
from repro.sim.runner import MonteCarlo
from repro.sim.scenario import Deployment, Position, Wall, paper_floorplan


class TestGeometry:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)

    def test_wall_crossing(self):
        wall = Wall(Position(0, 1), Position(10, 1))
        assert wall.crosses(Position(5, 0), Position(5, 2))
        assert not wall.crosses(Position(5, 0), Position(6, 0))
        assert not wall.crosses(Position(11, 0), Position(11, 2))

    def test_los_floorplan(self):
        dep = paper_floorplan(nlos=False)
        assert not dep.is_nlos()
        assert dep.d_tx_tag() == pytest.approx(0.8)
        assert dep.d_tag_rx() == pytest.approx(10.0)

    def test_nlos_floorplan(self):
        dep = paper_floorplan(nlos=True)
        assert dep.is_nlos()
        assert dep.wall_loss_db(dep.tag, dep.receiver) == pytest.approx(1.8)
        # Transmitter-to-tag stays inside the office (no wall).
        assert dep.wall_loss_db(dep.transmitter, dep.tag) == 0.0

    def test_link_reflects_geometry(self):
        los = paper_floorplan(nlos=False).link(Protocol.WIFI_B)
        nlos = paper_floorplan(nlos=True).link(Protocol.WIFI_B)
        d = 10.0
        assert nlos.rssi_dbm(d) == pytest.approx(los.rssi_dbm(d) - 1.8)

    def test_with_receiver_moves_only_receiver(self):
        dep = paper_floorplan()
        moved = dep.with_receiver(Position(20.8, 0.0))
        assert moved.d_tag_rx() == pytest.approx(20.0)
        assert moved.d_tx_tag() == dep.d_tx_tag()

    def test_range_sweep_matches_link_model(self):
        # Moving the receiver down the hallway reproduces Fig 13's
        # distance sweep through the geometry API.
        dep = paper_floorplan()
        rssis = []
        for x in (2.8, 10.8, 20.8):
            d = dep.with_receiver(Position(x, 0.0))
            rssis.append(d.link(Protocol.BLE).rssi_dbm(d.d_tag_rx()))
        assert rssis[0] > rssis[1] > rssis[2]


class TestMonteCarlo:
    def test_reproducible(self):
        def trial(rng):
            return {"x": rng.uniform()}

        a = MonteCarlo(n_trials=10, seed=5).run(trial)
        b = MonteCarlo(n_trials=10, seed=5).run(trial)
        assert np.array_equal(a["x"].values, b["x"].values)

    def test_independent_streams(self):
        def trial(rng):
            return {"x": rng.uniform()}

        stats = MonteCarlo(n_trials=200, seed=1).run(trial)["x"]
        assert stats.n == 200
        assert stats.mean == pytest.approx(0.5, abs=0.08)
        assert len(np.unique(stats.values)) == 200

    def test_ci_shrinks_with_n(self):
        def trial(rng):
            return {"x": rng.normal()}

        small = MonteCarlo(n_trials=20, seed=2).run(trial)["x"]
        large = MonteCarlo(n_trials=500, seed=2).run(trial)["x"]
        assert large.ci95_halfwidth() < small.ci95_halfwidth()

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            MonteCarlo(n_trials=0).run(lambda rng: {})

    def test_trial_exception_propagates_unchanged(self):
        class PhysicsError(Exception):
            pass

        def trial(rng):
            raise PhysicsError("bad physics")

        with pytest.raises(PhysicsError, match="bad physics"):
            MonteCarlo(n_trials=3, seed=0).run(trial)

    def test_multiple_metrics(self):
        def trial(rng):
            return {"a": 1.0, "b": rng.uniform()}

        stats = MonteCarlo(n_trials=5, seed=3).run(trial)
        assert stats["a"].mean == 1.0
        assert stats["a"].std == 0.0
        assert 0 <= stats["b"].mean <= 1
