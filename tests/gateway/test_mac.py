"""MAC arbiter: determinism, contention, and replay."""

import numpy as np

from repro.gateway.mac import MacArbiter


class TestUncontended:
    def test_empty_slot_has_no_winner(self):
        arb = MacArbiter(seed=1)
        assert arb.arbitrate([]) is None

    def test_single_contender_wins_without_rng_draw(self):
        arb = MacArbiter(seed=1)
        state_before = arb._rng.bit_generator.state
        assert arb.arbitrate(["only"]) == "only"
        assert arb._rng.bit_generator.state == state_before

    def test_uncontended_slots_do_not_perturb_later_draws(self):
        a = MacArbiter(seed=5)
        b = MacArbiter(seed=5)
        for _ in range(100):
            a.arbitrate(["solo"])
        assert a.arbitrate(["x", "y", "z"]) == b.arbitrate(["x", "y", "z"])


class TestContention:
    def test_winner_is_a_contender(self):
        arb = MacArbiter(seed=2)
        for _ in range(50):
            assert arb.arbitrate(["a", "b", "c"]) in ("a", "b", "c")

    def test_every_contender_eventually_wins(self):
        arb = MacArbiter(seed=3)
        winners = {arb.arbitrate(["a", "b", "c", "d"]) for _ in range(200)}
        assert winners == {"a", "b", "c", "d"}

    def test_contended_slot_draws_one_integer(self):
        arb = MacArbiter(seed=4)
        want = np.random.default_rng(4)
        for _ in range(20):
            assert arb.arbitrate(["a", "b"]) == ("a", "b")[int(want.integers(0, 2))]
        assert arb._rng.bit_generator.state == want.bit_generator.state


class TestReplay:
    def test_same_seed_same_decisions(self):
        slots = [["a", "b"], ["a"], ["a", "b", "c"], [], ["b", "c"]] * 20
        first = [MacArbiter(seed=9).arbitrate(s) for s in slots]
        second = [MacArbiter(seed=9).arbitrate(s) for s in slots]
        # A fresh arbiter per slot would reset the stream; replay the
        # whole sequence through one arbiter each time instead.
        one = MacArbiter(seed=9)
        two = MacArbiter(seed=9)
        assert [one.arbitrate(s) for s in slots] == [two.arbitrate(s) for s in slots]
        assert first == second  # per-slot fresh arbiters also agree

    def test_different_seeds_diverge(self):
        slots = [["a", "b", "c", "d"] for _ in range(50)]
        one = MacArbiter(seed=0)
        two = MacArbiter(seed=1)
        assert [one.arbitrate(s) for s in slots] != [two.arbitrate(s) for s in slots]

    def test_seed_stream_is_numpy_generator(self):
        # The arbiter must own a private stream, not the global RNG.
        arb = MacArbiter(seed=13)
        assert isinstance(arb._rng, np.random.Generator)
