"""Tests for templates, matching, and end-to-end identification."""

import numpy as np
import pytest

from repro.core.adc import Adc
from repro.core.identification import (
    DEFAULT_INCIDENT_DBM,
    IdentificationConfig,
    ProtocolIdentifier,
    score_traces,
    tabulate_accuracy,
)
from repro.core.matching import (
    BlindMatcher,
    OrderedMatcher,
    dc_estimate,
    score_capture,
    search_thresholds,
)
from repro.core.templates import TEMPLATE_INCIDENT_DBM, TemplateBank, reference_waveform
from repro.phy.protocols import Protocol
from repro.sim.traffic import random_packet


def evaluate(idents, traces, seed):
    """Each identifier's accuracy report, from one scoring pass."""
    scored = score_traces(idents, traces, rng=np.random.default_rng(seed))
    return [tabulate_accuracy(ident.matcher, labeled) for ident, labeled in zip(idents, scored)]


@pytest.fixture(scope="module")
def traces():
    rng = np.random.default_rng(7)
    out = []
    for p in Protocol:
        for _ in range(8):
            out.append((p, random_packet(p, rng, n_payload_bytes=30)))
    return out


class TestTemplates:
    def test_bank_has_all_protocols(self):
        bank = TemplateBank.build(Adc(sample_rate=20e6))
        assert set(bank.templates) == set(Protocol)

    def test_window_sizes(self):
        bank = TemplateBank.build(
            Adc(sample_rate=20e6), window_us=6.0, preprocess_us=2.0
        )
        assert bank.l_p == 40
        assert bank.l_m == 120

    def test_templates_normalized(self):
        bank = TemplateBank.build(Adc(sample_rate=10e6))
        for t in bank.templates.values():
            assert np.linalg.norm(t.matching) == pytest.approx(1.0, abs=1e-6)
            assert set(np.unique(t.matching_q)) <= {-1.0, 1.0}

    def test_storage_within_agln250_budget(self):
        """§2.3 note 2: extended templates cost ~400 bits, ~1% of the
        36 kb on-tag storage."""
        bank = TemplateBank.build(Adc(sample_rate=2.5e6), window_us=38.0)
        # One bit per sample of each quantized template.
        bits = sum(t.matching_q.size for t in bank.templates.values())
        assert bits <= 0.02 * 36 * 1024
        assert bits == 4 * 95

    def test_reference_waveforms_deterministic(self):
        for p in Protocol:
            a = reference_waveform(p)
            b = reference_waveform(p)
            assert np.array_equal(a.iq, b.iq)

    def test_templates_mutually_distinguishable(self):
        bank = TemplateBank.build(Adc(sample_rate=20e6), window_us=6.0)
        temps = list(bank.templates.values())
        for i, a in enumerate(temps):
            for b in temps[i + 1 :]:
                assert abs(np.dot(a.matching, b.matching)) < 0.8


class TestMatching:
    def test_dc_estimate_uses_settled_half(self):
        ramp = np.concatenate([np.linspace(0, 1, 10), np.ones(10)])
        assert dc_estimate(ramp) == pytest.approx(1.0)

    def test_blind_matcher_argmax(self):
        scores = {Protocol.BLE: 0.2, Protocol.ZIGBEE: 0.9, Protocol.WIFI_B: 0.1,
                  Protocol.WIFI_N: 0.0}
        assert BlindMatcher().decide(scores) is Protocol.ZIGBEE

    def test_ordered_matcher_first_pass_wins(self):
        # ZigBee is tested first: it wins despite a higher BLE score.
        matcher = OrderedMatcher()
        scores = {Protocol.ZIGBEE: 0.7, Protocol.BLE: 0.9, Protocol.WIFI_B: 0.0,
                  Protocol.WIFI_N: 0.0}
        assert matcher.decide(scores) is Protocol.ZIGBEE

    def test_ordered_matcher_falls_back_to_argmax(self):
        matcher = OrderedMatcher(thresholds=(0.99, 0.99, 0.99, 0.99))
        scores = {p: 0.1 for p in Protocol}
        scores[Protocol.WIFI_N] = 0.3
        assert matcher.decide(scores) is Protocol.WIFI_N

    def test_ordered_matcher_validates_lengths(self):
        with pytest.raises(ValueError):
            OrderedMatcher(thresholds=(0.5,))

    def test_score_capture_perfect_match_is_one(self):
        adc = Adc(sample_rate=20e6)
        bank = TemplateBank.build(adc, window_us=6.0)
        wave = reference_waveform(Protocol.WIFI_N)
        from repro.core.rectifier import ClampRectifier

        rect = ClampRectifier(noise_v_rms=0.0)
        analog = rect.rectify(wave, -15.0)
        cap = adc.capture(analog, duration_s=200 / 20e6)
        scores = score_capture(cap.codes, bank, quantized=False, offsets=(0,))
        assert scores[Protocol.WIFI_N] > 0.98

    def test_search_thresholds_improves_or_matches(self):
        rng = np.random.default_rng(0)
        labeled = []
        for p in Protocol:
            for _ in range(5):
                scores = {q: rng.uniform(0, 0.3) for q in Protocol}
                scores[p] = rng.uniform(0.5, 1.0)
                labeled.append((p, scores))
        matcher, acc = search_thresholds(labeled)
        assert acc > 0.95


class TestIdentification:
    def test_high_accuracy_at_20msps(self, traces):
        ident = ProtocolIdentifier(
            IdentificationConfig(sample_rate_hz=20e6, window_us=6.0)
        )
        (report,) = evaluate([ident], traces, 1)
        assert report.average > 0.95

    def test_extended_window_beats_base_at_2p5msps(self, traces):
        base = ProtocolIdentifier(
            IdentificationConfig(sample_rate_hz=2.5e6, quantized=True, window_us=6.0)
        )
        ext = ProtocolIdentifier(
            IdentificationConfig(sample_rate_hz=2.5e6, quantized=True, window_us=38.0)
        )
        r_base, r_ext = evaluate([base, ext], traces, 2)
        assert r_ext.average > r_base.average

    def test_1msps_collapses(self, traces):
        ident = ProtocolIdentifier(
            IdentificationConfig(sample_rate_hz=1e6, quantized=True, window_us=38.0)
        )
        (report,) = evaluate([ident], traces, 3)
        assert report.average < 0.8

    def test_confusion_counts_sum_to_traces(self, traces):
        ident = ProtocolIdentifier(
            IdentificationConfig(sample_rate_hz=10e6, quantized=True, window_us=6.0)
        )
        (report,) = evaluate([ident], traces, 4)
        assert sum(report.confusion.values()) == len(traces)

    def test_identify_returns_the_decided_protocol(self):
        ident = ProtocolIdentifier(
            IdentificationConfig(sample_rate_hz=10e6, window_us=6.0)
        )
        wave = random_packet(Protocol.ZIGBEE, np.random.default_rng(0))
        power = DEFAULT_INCIDENT_DBM[Protocol.ZIGBEE]
        decision = ident.identify(
            wave, incident_power_dbm=power, rng=np.random.default_rng(5)
        )
        scores = ident.scores(wave, incident_power_dbm=power, rng=np.random.default_rng(5))
        assert set(scores) == set(Protocol)
        assert decision is ident.matcher.decide(scores) is Protocol.ZIGBEE


_NON_FINITE = (float("nan"), float("inf"), float("-inf"))


class TestConfigRejectsBadNumbers:
    """NaN, +-inf and out-of-range settings fail at construction, naming
    the field: ``window_us=-1`` used to identify a BLE packet as
    802.11b."""

    @pytest.mark.parametrize(
        ("field", "bad"),
        [("sample_rate_hz", v) for v in (*_NON_FINITE, 0.0)]
        + [("window_us", v) for v in (*_NON_FINITE, -1.0)]
        + [("preprocess_us", v) for v in (*_NON_FINITE, -1.0)]
        + [("n_bits", v) for v in (*_NON_FINITE, 0, 17)],
    )
    def test_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            IdentificationConfig(**{field: bad})

    def test_zero_preprocess_stays_legal(self):
        assert IdentificationConfig(preprocess_us=0.0).l_p == 1


class TestIncidentPower:
    """The power a packet is scored at: the caller's, or the templates'
    (-15 dBm) when the caller gives none."""

    @pytest.fixture(scope="class")
    def wave(self):
        return random_packet(Protocol.BLE, np.random.default_rng(2), n_payload_bytes=8)

    def test_scores_default_to_the_templates_power(self, wave):
        ident = ProtocolIdentifier(IdentificationConfig())
        default = ident.scores(wave, rng=np.random.default_rng(3))
        at = {
            p: ident.scores(wave, incident_power_dbm=p, rng=np.random.default_rng(3))
            for p in (TEMPLATE_INCIDENT_DBM, DEFAULT_INCIDENT_DBM[Protocol.BLE])
        }
        assert TEMPLATE_INCIDENT_DBM == -15.0
        assert default == at[TEMPLATE_INCIDENT_DBM]
        assert default != at[DEFAULT_INCIDENT_DBM[Protocol.BLE]]

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("route", ["scores", "identify", "score_traces"])
    def test_non_finite_power_rejected(self, wave, route, bad):
        # NaN and -inf dBm used to identify this BLE packet as 802.11n
        # and +inf as 802.11b, with at most a RuntimeWarning.
        ident = ProtocolIdentifier(IdentificationConfig())
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="finite"):
            if route == "scores":
                ident.scores(wave, incident_power_dbm=bad, rng=rng)
            elif route == "identify":
                ident.identify(wave, incident_power_dbm=bad, rng=rng)
            else:
                score_traces([ident], [(Protocol.BLE, wave)], rng=rng, incident_power_dbm=bad)
