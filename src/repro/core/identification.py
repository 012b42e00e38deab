"""End-to-end multiprotocol identification (paper §2.2-§2.3).

:class:`ProtocolIdentifier` chains rectifier -> ADC -> template
correlation -> (blind | ordered) decision, and is the object the
Fig 5/7/8 experiments sweep: sampling rate, quantization, window
length, and matching rule are all configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # runtime import stays local to avoid a cycle
    from repro.core.resources import CorrelatorDesign

from repro.core.adc import Adc
from repro.core.matching import (
    BlindMatcher,
    OrderedMatcher,
    score_capture,
)
from repro.core.rectifier import ClampRectifier, _EnvelopeRectifier
from repro.core.templates import BASE_WINDOW_US, cached_bank
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from repro.rng import fallback_rng
from repro.types import DbmPower, Hertz, Microseconds, Samples

__all__ = ["IdentificationConfig", "ProtocolIdentifier", "IdentificationResult"]


@dataclass(frozen=True)
class IdentificationConfig:
    """Identification pipeline configuration.

    Attributes map to the paper's sweeps: ``sample_rate_hz`` (20 M /
    10 M / 2.5 M / 1 Msps), ``quantized`` (+-1 quantization, §2.3.1),
    ``window_us`` (8 us base vs 40 us extended, §2.3.2), ``ordered``
    (blind vs ordered matching, Fig 7).
    """

    sample_rate_hz: Hertz = 20e6
    n_bits: int = 9
    quantized: bool = False
    window_us: Microseconds = BASE_WINDOW_US
    preprocess_us: Microseconds = 2.0
    ordered: bool = False
    search_offsets: tuple[int, ...] | None = None
    incident_power_dbm: DbmPower = -15.0

    def resolved_offsets(self) -> tuple[int, ...]:
        """Sliding-correlation search range.

        The tag detects the packet edge from the envelope rise, so
        residual timing uncertainty is a few ADC samples.
        """
        if self.search_offsets is not None:
            return self.search_offsets
        return (0, 1, 2, 3)

    @property
    def l_p(self) -> Samples:
        return max(int(round(self.preprocess_us * 1e-6 * self.sample_rate_hz)), 1)

    @property
    def l_m(self) -> Samples:
        return max(int(round(self.window_us * 1e-6 * self.sample_rate_hz)), 2)


@dataclass
class IdentificationResult:
    """One identification decision with its evidence."""

    decision: Protocol
    scores: dict[Protocol, float]


class ProtocolIdentifier:
    """The tag's packet-identification stage.

    Parameters
    ----------
    config:
        Pipeline settings (see :class:`IdentificationConfig`).
    rectifier:
        Front end; defaults to the paper's clamp rectifier.
    matcher:
        Decision rule; defaults to blind or ordered per
        ``config.ordered``.
    """

    def __init__(
        self,
        config: IdentificationConfig | None = None,
        *,
        rectifier: _EnvelopeRectifier | None = None,
        matcher: BlindMatcher | OrderedMatcher | None = None,
    ) -> None:
        self.config = config or IdentificationConfig()
        self.rectifier = rectifier or ClampRectifier()
        self.adc = Adc(
            sample_rate=self.config.sample_rate_hz, n_bits=self.config.n_bits
        )
        # Template derivation ignores the live rectifier (banks are
        # always built through a noiseless clamp front end), so the
        # bank depends only on the ADC + window configuration and is
        # shared through the wavecache instead of re-derived per
        # identifier -- see :func:`repro.core.templates.cached_bank`.
        self.bank = cached_bank(
            self.adc,
            window_us=self.config.window_us,
            preprocess_us=self.config.preprocess_us,
            incident_power_dbm=self.config.incident_power_dbm,
        )
        if matcher is not None:
            self.matcher = matcher
        elif self.config.ordered:
            self.matcher = OrderedMatcher()
        else:
            self.matcher = BlindMatcher()

    def scores(
        self,
        wave: Waveform,
        *,
        incident_power_dbm: float | None = None,
        rng: np.random.Generator | None = None,
        sampling_phase_s: float | None = None,
        prescaled: bool = False,
    ) -> dict[Protocol, float]:
        """Correlation scores for a packet waveform (head-aligned).

        ``prescaled=True`` treats the waveform as already being in
        antenna volts (composite interference scenes, Fig 16).
        """
        cfg = self.config
        power: float | None
        if prescaled:
            power = None
        elif incident_power_dbm is not None:
            power = incident_power_dbm
        else:
            power = cfg.incident_power_dbm
        rng = fallback_rng(rng)
        if sampling_phase_s is None:
            sampling_phase_s = float(rng.uniform(0.0, 1.0 / cfg.sample_rate_hz))
        offsets = cfg.resolved_offsets()
        need = cfg.l_p + cfg.l_m + max(offsets) + 2
        duration_s = need / cfg.sample_rate_hz
        # The correlator reads only the packet head (the FPGA gates the
        # ADC off after it), so only that head is rectified.
        window = self.adc.samples_read(
            wave.sample_rate, duration_s, phase_s=sampling_phase_s
        )
        analog = self.rectifier.rectify(wave, power, rng=rng, n_samples=window)
        capture = self.adc.capture(
            analog, duration_s=duration_s, phase_s=sampling_phase_s
        )
        return score_capture(
            capture.codes,
            self.bank,
            quantized=cfg.quantized,
            offsets=offsets,
        )

    def power_profile(self) -> "CorrelatorDesign":
        """FPGA resource/power estimate of this configuration (the
        Table 2/5 models applied to the live pipeline settings)."""
        from repro.core.resources import CorrelatorDesign

        return CorrelatorDesign(
            sample_rate_hz=self.config.sample_rate_hz,
            window_us=self.config.window_us + self.config.preprocess_us,
            quantized=self.config.quantized,
        )

    def detect_and_identify(
        self,
        stream: Waveform,
        *,
        incident_power_dbm: float | None = None,
        rng: np.random.Generator | None = None,
        threshold_frac: float = 0.35,
    ) -> tuple[int, IdentificationResult] | None:
        """Find a packet in a stream by its envelope rise, then classify.

        This is how the real tag triggers: the FPGA watches the ADC
        output and starts correlating when the envelope jumps (§2.3
        note 1's duty-cycled EN signal).  Returns (ADC sample index of
        the detected edge, identification result), or ``None`` when no
        edge is found.
        """
        cfg = self.config
        rng = fallback_rng(rng)
        power = (
            incident_power_dbm
            if incident_power_dbm is not None
            else cfg.incident_power_dbm
        )
        analog = self.rectifier.rectify(stream, power, rng=rng)
        capture = self.adc.capture(analog)
        codes = capture.codes.astype(float)
        if codes.size < cfg.l_p + cfg.l_m + 4:
            return None
        # Edge detector: smoothed level crossing a fraction of the
        # stream's peak, with a small noise guard.
        smooth = np.convolve(codes, np.ones(4) / 4.0, mode="same")
        peak = smooth.max()
        # Idle-air level from a low percentile (the packet may occupy
        # most of the stream, so the median would sit inside it).
        noise_floor = float(np.percentile(smooth, 10))
        if peak <= noise_floor + 4.0:
            return None
        threshold = noise_floor + threshold_frac * (peak - noise_floor)
        above = np.flatnonzero(smooth > threshold)
        if above.size == 0:
            return None
        # Back off a few samples: slow-rising envelopes (ZigBee's
        # half-sine ramp) cross the threshold into the packet.
        start = max(int(above[0]) - 4, 0)
        # Residual edge uncertainty is a few samples: widen the
        # correlation search beyond the synchronized default.
        offsets = tuple(range(10))
        window = codes[start : start + cfg.l_p + cfg.l_m + max(offsets) + 2]
        scores = score_capture(
            window, self.bank, quantized=cfg.quantized, offsets=offsets
        )
        return start, IdentificationResult(
            decision=self.matcher.decide(scores), scores=scores
        )

    def identify(
        self,
        wave: Waveform,
        *,
        incident_power_dbm: float | None = None,
        rng: np.random.Generator | None = None,
        prescaled: bool = False,
    ) -> IdentificationResult:
        """Classify one packet waveform."""
        scores = self.scores(
            wave,
            incident_power_dbm=incident_power_dbm,
            rng=rng,
            prescaled=prescaled,
        )
        return IdentificationResult(decision=self.matcher.decide(scores), scores=scores)


@dataclass
class AccuracyReport:
    """Per-protocol and average identification accuracy."""

    per_protocol: dict[Protocol, float] = field(default_factory=dict)
    confusion: dict[tuple[Protocol, Protocol], int] = field(default_factory=dict)

    @property
    def average(self) -> float:
        if not self.per_protocol:
            return 0.0
        return float(np.mean(list(self.per_protocol.values())))

    @property
    def minimum(self) -> float:
        if not self.per_protocol:
            return 0.0
        return float(min(self.per_protocol.values()))


#: Incident power at the tag 0.8 m from each excitation radio, from
#: the calibrated link budget (WiFi NIC at 14 dBm, CC2540/CC2530 at
#: 4 dBm, 3 dBi antennas, PL(0.8 m) ~= 38.3 dB).
DEFAULT_INCIDENT_DBM: dict[Protocol, float] = {
    Protocol.WIFI_B: -21.2,
    Protocol.WIFI_N: -21.2,
    Protocol.BLE: -31.2,
    Protocol.ZIGBEE: -31.2,
}


def score_traces(
    identifier: ProtocolIdentifier,
    traces: list[tuple[Protocol, Waveform]],
    *,
    rng: np.random.Generator | None = None,
    incident_power_dbm: DbmPower | dict[Protocol, float] | None = None,
) -> list[tuple[Protocol, dict[Protocol, float]]]:
    """Each labeled trace's correlation scores, drawn in order from one
    ``rng`` (the matcher plays no part, so one set of scores serves any
    number of matchers, see :func:`tabulate_accuracy`).

    ``incident_power_dbm`` may be one value, a per-protocol dict, or
    None for the calibrated defaults (:data:`DEFAULT_INCIDENT_DBM`).
    """
    rng = rng or np.random.default_rng(0)
    if incident_power_dbm is None:
        powers: dict[Protocol, float] = dict(DEFAULT_INCIDENT_DBM)
    elif isinstance(incident_power_dbm, dict):
        powers = incident_power_dbm
    else:
        powers = {p: float(incident_power_dbm) for p in Protocol}
    return [
        (truth, identifier.scores(wave, incident_power_dbm=powers.get(truth), rng=rng))
        for truth, wave in traces
    ]


def tabulate_accuracy(
    matcher: BlindMatcher | OrderedMatcher,
    labeled_scores: list[tuple[Protocol, dict[Protocol, float]]],
) -> AccuracyReport:
    """Per-protocol accuracy and confusion counts of ``matcher``'s
    decisions on scored traces, keyed in order of first appearance."""
    totals: dict[Protocol, int] = {}
    hits: dict[Protocol, int] = {}
    report = AccuracyReport()
    for truth, scores in labeled_scores:
        decision = matcher.decide(scores)
        totals[truth] = totals.get(truth, 0) + 1
        if decision is truth:
            hits[truth] = hits.get(truth, 0) + 1
        key = (truth, decision)
        report.confusion[key] = report.confusion.get(key, 0) + 1
    for p, n in totals.items():
        report.per_protocol[p] = hits.get(p, 0) / n
    return report


def evaluate_identifier(
    identifier: ProtocolIdentifier,
    traces: list[tuple[Protocol, Waveform]],
    *,
    rng: np.random.Generator | None = None,
    incident_power_dbm: DbmPower | dict[Protocol, float] | None = None,
) -> AccuracyReport:
    """Run the identifier over labeled traces and tabulate accuracy:
    :func:`score_traces`, then :func:`tabulate_accuracy` with the
    identifier's own matcher."""
    scored = score_traces(
        identifier, traces, rng=rng, incident_power_dbm=incident_power_dbm
    )
    return tabulate_accuracy(identifier.matcher, scored)
