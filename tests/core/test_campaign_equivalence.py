"""The paper campaign's shared work against the frozen parents in
``tests/reference_impls.py``: the ordered-matching threshold search,
scoring each trace once for several identifiers and matchers while it
is the only trace alive, Fig 18's timeline and the 802.15.4 BER curve,
each byte for byte."""

import tracemalloc

import numpy as np
import pytest

from repro.channel.link import ber_802154
from repro.core.carrier_select import diversity_timeline
from repro.core.identification import (
    DEFAULT_INCIDENT_DBM,
    IdentificationConfig,
    ProtocolIdentifier,
    score_traces,
    tabulate_accuracy,
)
from repro.core.matching import DEFAULT_ORDER, OrderedMatcher, search_thresholds
from repro.core.overlay import Mode
from repro.experiments import common
from repro.experiments.common import labeled_traces
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from repro.sim.traffic import ExcitationSchedule, ExcitationSource
from tests import reference_impls as ref

GRID = np.arange(0.2, 0.81, 0.15)
PROTOCOLS = list(Protocol)


def random_labeled_scores(rng, n, *, truths=PROTOCOLS, below=0.05, missing=0.1):
    """``n`` labeled score dicts.  About half the scores sit exactly on
    grid values, so they tie with thresholds; a ``missing`` share of keys
    is absent and a ``below`` share scores under -1."""
    labeled = []
    for _ in range(n):
        scores = {}
        for p in PROTOCOLS:
            r = rng.random()
            if r < missing:
                continue
            if r < missing + below:
                scores[p] = float(rng.uniform(-2.0, -1.0 - 1e-9))
            elif r < 0.55:
                scores[p] = float(rng.choice(GRID))
            else:
                scores[p] = float(rng.uniform(-0.2, 1.0))
        labeled.append((truths[int(rng.integers(len(truths)))], scores))
    return labeled


def assert_same_search(labeled, **kwargs):
    got_matcher, got_acc = search_thresholds(labeled, **kwargs)
    want_matcher, want_acc = ref.search_thresholds(labeled, **kwargs)
    assert got_matcher == want_matcher
    # The winning thresholds are the grid's own elements, as the parent
    # returned them (fig07 writes them into its artifact).
    assert [type(t) for t in got_matcher.thresholds] == [
        type(t) for t in want_matcher.thresholds
    ]
    assert (type(got_acc), got_acc) == (type(want_acc), want_acc)


def assert_same_report(got, want):
    assert list(got.per_protocol.items()) == list(want.per_protocol.items())
    assert list(got.confusion.items()) == list(want.confusion.items())


class TestSearchThresholds:
    def test_random_sets_with_ties_and_missing_keys(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 5, 17, 64, 128):
            for _ in range(6):
                assert_same_search(random_labeled_scores(rng, n))

    def test_protocol_absent_from_training(self):
        rng = np.random.default_rng(24)
        for absent in PROTOCOLS:
            truths = [p for p in PROTOCOLS if p is not absent]
            assert_same_search(random_labeled_scores(rng, 40, truths=truths))

    def test_custom_order_and_grid(self):
        rng = np.random.default_rng(25)
        for trial in range(12):
            order = tuple(PROTOCOLS[i] for i in rng.permutation(len(PROTOCOLS)))
            grid = np.sort(rng.choice(GRID, int(rng.integers(1, 5)), replace=False))
            labeled = random_labeled_scores(rng, 48)
            assert_same_search(labeled, order=order, grid=grid)
        assert_same_search(random_labeled_scores(rng, 20, truths=[Protocol.BLE]),
                           order=(Protocol.BLE,))

    def test_first_best_in_product_order(self):
        # Exactly one of the two traces can be right, and the two ways
        # tie on accuracy and on an exactly summed margin (1.25): the
        # search keeps the first in ``itertools.product`` order.
        labeled = [
            (Protocol.ZIGBEE, {Protocol.ZIGBEE: 0.3}),
            (Protocol.BLE, {Protocol.ZIGBEE: 0.3, Protocol.BLE: 0.3}),
        ]
        grid = np.array([0.25, 0.5])
        matcher, acc = search_thresholds(labeled, grid=grid)
        assert (matcher.thresholds, acc) == ((0.25, 0.5, 0.5, -1.0), 0.5)
        assert_same_search(labeled, grid=grid)

    def test_margin_sums_in_combo_order(self):
        # (0.1, 0.3, 0.2) and (0.3, 0.1, 0.2) tie on accuracy.  Summed in
        # combination order their margins are equal too, so the first
        # wins; summed in reverse, 0.2 + 0.1 + 0.3 exceeds 0.2 + 0.3 + 0.1
        # in the last bit and the second would.
        z, b, w, n = Protocol.ZIGBEE, Protocol.BLE, Protocol.WIFI_B, Protocol.WIFI_N
        labeled = [
            (w, {w: 0.2}),
            (n, {}),
            (b, {z: 0.15, b: 0.15}),
            (z, {z: 0.1, b: 0.1}),
            (n, {z: 0.25, b: 0.3, w: 0.25}),
        ]
        grid = np.array([0.1, 0.2, 0.3])
        matcher, _ = search_thresholds(labeled, grid=grid)
        assert matcher.thresholds == (0.1, 0.3, 0.2, -1.0)
        assert_same_search(labeled, grid=grid)

    def test_truth_outside_the_order_raises_like_the_parent(self):
        labeled = [(Protocol.BLE, {Protocol.BLE: 0.5})]
        order = (Protocol.ZIGBEE, Protocol.WIFI_N)
        with pytest.raises(KeyError):
            ref.search_thresholds(labeled, order=order)
        with pytest.raises(KeyError):
            search_thresholds(labeled, order=order)

    def test_no_score_clears(self):
        # Every score is below -1, so even the fallback protocol's -1
        # threshold rejects and each trace goes to its highest score.
        rng = np.random.default_rng(26)
        for _ in range(8):
            assert_same_search(random_labeled_scores(rng, 32, below=0.9, missing=0.0))
            assert_same_search(random_labeled_scores(rng, 32, below=0.5, missing=0.3))

    def test_empty_training_set(self):
        assert_same_search([])

    def test_fig07_training_scores(self):
        # fig07's scoring pipeline on a small trace set, not synthetic dicts.
        ident = ProtocolIdentifier(
            IdentificationConfig(sample_rate_hz=10e6, quantized=True, window_us=6.0)
        )
        (scored,) = score_traces([ident], labeled_traces(3, seed=1000),
                                 rng=np.random.default_rng(0))
        assert_same_search(scored)


def _grid_identifiers(points):
    """Identifiers for (L_p, L_t) pairs in 20 Msps samples, as fig05 builds them."""
    return [
        ProtocolIdentifier(IdentificationConfig(
            sample_rate_hz=20e6, preprocess_us=l_p / 20.0, window_us=l_t / 20.0))
        for l_p, l_t in points
    ]


#: fig05's grid, fig08's three panels (two of them on one 2.5 Msps ADC),
#: and a mix of quantized and full-precision, blind and ordered.
IDENTIFIER_SETS = {
    "fig05": lambda: _grid_identifiers(((20, 60), (40, 120), (60, 100))),
    "fig08": lambda: [
        ProtocolIdentifier(IdentificationConfig(sample_rate_hz=r, quantized=True, window_us=w))
        for r, w in ((2.5e6, 6.0), (2.5e6, 38.0), (1e6, 38.0))
    ],
    "mixed": lambda: [
        ProtocolIdentifier(IdentificationConfig(**kw))
        for kw in (
            {"sample_rate_hz": 10e6, "quantized": True, "window_us": 6.0},
            {"sample_rate_hz": 10e6, "window_us": 6.0, "ordered": True},
            {"sample_rate_hz": 10e6, "n_bits": 4, "window_us": 14.0},
            {"sample_rate_hz": 2.5e6, "quantized": True, "window_us": 38.0, "ordered": True},
        )
    ],
}

#: Default, scalar, per-protocol and partial per-protocol powers (the
#: last falls back to the identifiers' own configured power).
POWERS = [None, -25.0, {p: -24.0 for p in Protocol},
          {Protocol.WIFI_B: -24.0, Protocol.BLE: -33.0}]


def _power_of(powers, truth):
    if powers is None:
        return DEFAULT_INCIDENT_DBM[truth]
    if isinstance(powers, dict):
        return powers.get(truth)
    return powers


def _separately(ident, traces, seed, powers):
    """``ident``'s labeled scores from the parent ``scores``, and the
    generator it leaves behind."""
    rng = np.random.default_rng(seed)
    labeled = [
        (truth, ref.identifier_scores(ident, wave, incident_power_dbm=_power_of(powers, truth),
                                      rng=rng))
        for truth, wave in traces
    ]
    return labeled, rng


def _cut_lengths(idents, wave):
    """Lengths of ``wave`` shorter than every identifier's rectified
    window, and one between each pair of windows that do not overlap
    (so the last is shorter than only the longest window)."""
    spans = []
    for ident in idents:
        cfg = ident.config
        duration_s = (cfg.l_p + cfg.l_m + max(cfg.resolved_offsets()) + 2) / cfg.sample_rate_hz
        lo = ident.adc.samples_read(wave.sample_rate, duration_s)
        hi = ident.adc.samples_read(wave.sample_rate, duration_s,
                                    phase_s=1.0 / cfg.sample_rate_hz)
        spans.append((lo, hi))
    spans.sort()
    lengths = [spans[0][0] - 1]
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        if hi < lo:
            lengths.append((hi + lo) // 2)
    return lengths


def _cut(traces, idents):
    """``traces`` plus cut copies of its first trace of each protocol."""
    out = list(traces)
    for protocol in Protocol:
        wave = next(w for p, w in traces if p is protocol)
        for n in _cut_lengths(idents, wave):
            out.append((protocol, Waveform(wave.iq[:n], wave.sample_rate)))
    return out


@pytest.fixture(scope="module")
def traces():
    # Shuffled, so protocols first appear out of enum order and the
    # reports' key order is tested.
    traces = list(labeled_traces(3, seed=5))
    return [traces[i] for i in np.random.default_rng(8).permutation(len(traces))]


class TestScoreOnceTabulateTwice:
    @pytest.mark.parametrize("powers", [None, -25.0, {p: -24.0 for p in Protocol}])
    @pytest.mark.parametrize("ordered", [False, True])
    def test_evaluate_matches_the_parent(self, traces, powers, ordered):
        config = IdentificationConfig(sample_rate_hz=2.5e6, quantized=True,
                                      window_us=38.0, ordered=ordered)
        ident = ProtocolIdentifier(config)
        (scored,) = score_traces([ident], traces, rng=np.random.default_rng(3),
                                 incident_power_dbm=powers)
        want = ref.evaluate_identifier(ident, traces, rng=np.random.default_rng(3),
                                       incident_power_dbm=powers)
        assert_same_report(tabulate_accuracy(ident.matcher, scored), want)

    def test_one_scoring_serves_both_matchers(self, traces):
        # fig07: blind and ordered reports from one set of scores equal
        # two parent evaluations with the same random stream.
        ident = ProtocolIdentifier(IdentificationConfig(sample_rate_hz=10e6, quantized=True))
        ordered = OrderedMatcher(order=DEFAULT_ORDER, thresholds=(0.5, 0.35, 0.65, -1.0))
        (scored,) = score_traces([ident], traces, rng=np.random.default_rng(4))
        blind_want = ref.evaluate_identifier(ident, traces, rng=np.random.default_rng(4))
        assert_same_report(tabulate_accuracy(ident.matcher, scored), blind_want)
        ident.matcher = ordered
        ordered_want = ref.evaluate_identifier(ident, traces, rng=np.random.default_rng(4))
        assert_same_report(tabulate_accuracy(ordered, scored), ordered_want)


class TestScoreTraces:
    """One pass of ``score_traces`` over many identifiers against each
    identifier scoring alone with the parent ``scores``."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("powers", POWERS, ids=["default", "scalar", "dict", "partial"])
    @pytest.mark.parametrize("name", sorted(IDENTIFIER_SETS))
    def test_each_identifier_as_if_alone(self, traces, name, powers, reverse):
        idents = IDENTIFIER_SETS[name]()
        if reverse:
            idents.reverse()
        rng = np.random.default_rng(3)
        scored = score_traces(idents, traces, rng=rng, incident_power_dbm=powers)
        assert len(scored) == len(idents)
        for ident, got in zip(idents, scored):
            want, alone = _separately(ident, traces, 3, powers)
            assert [(t, list(s.items())) for t, s in got] == [
                (t, list(s.items())) for t, s in want
            ]
            assert rng.bit_generator.state == alone.bit_generator.state
            own = np.random.default_rng(3)
            assert got == [
                (t, ident.scores(w, incident_power_dbm=_power_of(powers, t), rng=own))
                for t, w in traces
            ]
            assert rng.bit_generator.state == own.bit_generator.state
            report = ref.evaluate_identifier(ident, traces, rng=np.random.default_rng(3),
                                             incident_power_dbm=powers)
            assert_same_report(tabulate_accuracy(ident.matcher, got), report)

    @pytest.mark.parametrize("name", sorted(IDENTIFIER_SETS))
    def test_traces_shorter_than_windows(self, traces, name):
        idents = IDENTIFIER_SETS[name]()
        cut = _cut(traces, idents)
        assert len(cut) > len(traces) + len(Protocol)
        rng = np.random.default_rng(4)
        for ident, got in zip(idents, score_traces(idents, cut, rng=rng)):
            want, alone = _separately(ident, cut, 4, None)
            assert got == want
            assert rng.bit_generator.state == alone.bit_generator.state

    def test_one_identifier_scores_as_the_parent(self, traces):
        ident = IDENTIFIER_SETS["fig08"]()[1]
        for prescaled in (False, True):
            for power in (None, -27.0):
                g1, g2 = np.random.default_rng(5), np.random.default_rng(5)
                for _, wave in traces:
                    got = ident.scores(wave, incident_power_dbm=power, rng=g1,
                                       prescaled=prescaled)
                    want = ref.identifier_scores(ident, wave, incident_power_dbm=power,
                                                 rng=g2, prescaled=prescaled)
                    assert list(got.items()) == list(want.items())
                assert g1.bit_generator.state == g2.bit_generator.state

    def test_missing_power_needs_one_configured_power(self, traces):
        idents = [ProtocolIdentifier(),
                  ProtocolIdentifier(IdentificationConfig(incident_power_dbm=-20.0))]
        powers = {Protocol.WIFI_B: -24.0}
        with pytest.raises(ValueError, match="configured powers"):
            score_traces(idents, traces, rng=np.random.default_rng(0), incident_power_dbm=powers)
        full = {p: -24.0 for p in Protocol}
        score_traces(idents, traces, rng=np.random.default_rng(0), incident_power_dbm=full)

    def test_phase_is_uniform_bit_for_bit(self):
        # One shared draw d gives each identifier 0.0 + (1 / rate) * d,
        # which is exactly what rng.uniform(0.0, 1 / rate) computes.
        rates = (1e6, 2.5e6, 5e6, 8e6, 10e6, 11e6, 20e6, 22e6, 50e6)
        for seed in range(200):
            for rate in rates:
                g1, g2 = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(8):
                    want = float(g1.uniform(0.0, 1.0 / rate))
                    got = 0.0 + (1.0 / rate) * g2.random()
                    assert got.hex() == want.hex()


class TestStreamedTraces:
    def test_each_trace_is_built_when_taken(self, monkeypatch):
        built = []
        build = common._build_trace

        def counted(*args):
            built.append(args[0])
            return build(*args)

        monkeypatch.setattr(common, "_build_trace", counted)
        want = list(labeled_traces(2, seed=9))
        built.clear()
        stream = labeled_traces(2, seed=9)
        assert built == []
        for k, ((p, wave), (q, expected)) in enumerate(zip(stream, want), start=1):
            assert len(built) == k
            assert p is q and wave.iq.tobytes() == expected.iq.tobytes()
        assert built == [p for p, _ in want]

    def test_scoring_holds_one_trace_at_a_time(self):
        idents = IDENTIFIER_SETS["fig08"]()
        # Builds the set once, so the modulators' memoized designs exist.
        total = sum(wave.iq.nbytes for _, wave in labeled_traces(8, seed=3))
        score_traces(idents, labeled_traces(1, seed=3), rng=np.random.default_rng(0))
        tracemalloc.start()
        try:
            score_traces(idents, labeled_traces(8, seed=3), rng=np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A set held whole would peak above ``total``; one trace at a
        # time, with its modulation and front-end temporaries, stays
        # near a quarter of it.
        assert peak < total / 2


class TestDiversityTimeline:
    @staticmethod
    def assert_same(schedule, **kwargs):
        got = diversity_timeline(schedule, **kwargs)
        want = ref.diversity_timeline(schedule, **kwargs)
        assert list(got) == list(want)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_fig18_schedules(self, seed):
        sources = [
            ExcitationSource(Protocol.WIFI_B, rate_pkts=300, duty_cycle=0.5,
                             period_s=1.0, phase_s=0.0),
            ExcitationSource(Protocol.WIFI_N, rate_pkts=300, duty_cycle=0.5,
                             period_s=1.0, phase_s=0.5),
        ]
        schedule = ExcitationSchedule.generate(sources, 4.0, np.random.default_rng(seed))
        self.assert_same(schedule, tag_protocols=tuple(Protocol))
        self.assert_same(schedule, tag_protocols=(Protocol.WIFI_B,))

    def test_mixed_payload_sizes(self):
        sources = [
            ExcitationSource(Protocol.WIFI_N, rate_pkts=200, n_payload_bytes=40, periodic=False),
            ExcitationSource(Protocol.WIFI_N, rate_pkts=150, n_payload_bytes=300, periodic=False),
            ExcitationSource(Protocol.WIFI_B, rate_pkts=100, periodic=False),
            ExcitationSource(Protocol.BLE, rate_pkts=60, n_payload_bytes=20, periodic=False),
            ExcitationSource(Protocol.BLE, rate_pkts=40, periodic=False),
            ExcitationSource(Protocol.ZIGBEE, rate_pkts=30, n_payload_bytes=100,
                             duty_cycle=0.3, period_s=0.5, periodic=False),
        ]
        schedule = ExcitationSchedule.generate(sources, 2.0, np.random.default_rng(3))
        for mode in Mode:
            self.assert_same(schedule, mode=mode, distance_m=6.0, bin_s=0.02)
        self.assert_same(schedule, tag_protocols=(Protocol.BLE, Protocol.ZIGBEE))


def test_ber_802154_curve():
    for ebn0_db in np.linspace(0.0, 30.0, 301):
        ebn0 = float(10.0 ** (ebn0_db / 10.0))
        assert ber_802154(ebn0) == ref.ber_802154(ebn0), ebn0_db
    for ebn0 in (-1.0, 0.0, 1e-9):
        assert ber_802154(ebn0) == ref.ber_802154(ebn0)
