"""End-to-end multiprotocol identification (paper §2.2-§2.3).

:class:`ProtocolIdentifier` chains rectifier -> ADC -> template
correlation -> (blind | ordered) decision, and is the object the
Fig 5/7/8 experiments sweep: sampling rate, quantization, window
length, and matching rule are all configuration.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.adc import Adc
from repro.core.matching import (
    BlindMatcher,
    OrderedMatcher,
    score_capture,
)
from repro.core.rectifier import ClampRectifier
from repro.core.templates import BASE_WINDOW_US, TEMPLATE_INCIDENT_DBM, cached_bank
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from repro.rng import fallback_rng
from repro.types import DbmPower, Hertz, Microseconds, Samples

__all__ = ["IdentificationConfig", "ProtocolIdentifier"]


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

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        for name in ("sample_rate_hz", "window_us"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not 0 <= self.preprocess_us < math.inf:
            raise ValueError(
                f"preprocess_us must be >= 0 and finite, got {self.preprocess_us!r}"
            )
        if not 1 <= self.n_bits <= 16:
            raise ValueError(f"n_bits must be in 1..16, got {self.n_bits!r}")

    def resolved_offsets(self) -> tuple[int, ...]:
        """Sliding-correlation search range.

        The tag detects the packet edge from the envelope rise, so
        residual timing uncertainty is a few ADC samples.
        """
        return (0, 1, 2, 3)

    @property
    def l_p(self) -> Samples:
        return max(int(round(self.preprocess_us * 1e-6 * self.sample_rate_hz)), 1)

    @property
    def l_m(self) -> Samples:
        return max(int(round(self.window_us * 1e-6 * self.sample_rate_hz)), 2)


class ProtocolIdentifier:
    """The tag's packet-identification stage.

    Parameters
    ----------
    config:
        Pipeline settings (see :class:`IdentificationConfig`).  The front
        end is the paper's clamp rectifier, and the decision rule is
        blind or ordered per ``config.ordered``.
    """

    def __init__(self, config: IdentificationConfig | None = None) -> None:
        self.config = config or IdentificationConfig()
        self.rectifier = ClampRectifier()
        self.adc = Adc(
            sample_rate=self.config.sample_rate_hz, n_bits=self.config.n_bits
        )
        # Banks are built through a noiseless clamp front end, so the
        # bank depends only on the ADC + window configuration and is
        # shared through the wavecache instead of re-derived per
        # identifier -- see :func:`repro.core.templates.cached_bank`.
        self.bank = cached_bank(
            self.adc,
            window_us=self.config.window_us,
            preprocess_us=self.config.preprocess_us,
        )
        self.matcher: BlindMatcher | OrderedMatcher = (
            OrderedMatcher() if self.config.ordered else BlindMatcher()
        )

    def scores(
        self,
        wave: Waveform,
        *,
        incident_power_dbm: float | None = None,
        rng: np.random.Generator | None = None,
        prescaled: bool = False,
    ) -> dict[Protocol, float]:
        """Correlation scores for a packet waveform (head-aligned).

        ``prescaled=True`` treats the waveform as already being in
        antenna volts (composite interference scenes, Fig 16); without
        an ``incident_power_dbm`` the packet arrives at the templates'
        power.  This is :func:`score_traces` for one identifier and one
        trace.
        """
        power: float | None
        if prescaled:
            power = None
        elif incident_power_dbm is not None:
            power = incident_power_dbm
        else:
            power = TEMPLATE_INCIDENT_DBM
        return _score_head((self,), wave, power, fallback_rng(rng))[0]

    def identify(
        self,
        wave: Waveform,
        *,
        incident_power_dbm: float | None = None,
        rng: np.random.Generator | None = None,
        prescaled: bool = False,
    ) -> Protocol:
        """Classify one packet waveform: the decided protocol."""
        scores = self.scores(
            wave,
            incident_power_dbm=incident_power_dbm,
            rng=rng,
            prescaled=prescaled,
        )
        return self.matcher.decide(scores)


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


def _score_head(
    identifiers: Sequence[ProtocolIdentifier],
    wave: Waveform,
    power: float | None,
    rng: np.random.Generator,
) -> list[dict[Protocol, float]]:
    """Every identifier's scores for one packet, from one sampling-phase
    draw, one rectification and one capture per distinct ADC.

    Each identifier's list entry equals its own pipeline run alone from
    ``rng``'s starting state, and ``rng`` ends where that run leaves it:

    * the phase ``0.0 + (1 / rate) * d`` of one ``d = rng.random()`` is
      exactly ``rng.uniform(0.0, 1 / rate)``, for every rate;
    * the correlator reads only the packet head (the FPGA gates the ADC
      off after it), so only the longest window any identifier reads is
      rectified; a shorter window's output is this one's head, and the
      noise draw spans the whole packet either way;
    * an ADC shared by several identifiers captures once, at their
      longest duration: its anti-aliasing filter is causal and the
      sampling grid never reaches the clip bound, so a shorter capture's
      codes are this one's prefix.
    """
    d = rng.random()
    plans = []
    window = 0
    for ident in identifiers:
        cfg = ident.config
        phase_s = 0.0 + (1.0 / cfg.sample_rate_hz) * d
        offsets = cfg.resolved_offsets()
        duration_s = (cfg.l_p + cfg.l_m + max(offsets) + 2) / cfg.sample_rate_hz
        window = max(window, ident.adc.samples_read(wave.sample_rate, duration_s, phase_s=phase_s))
        plans.append(((ident.adc, phase_s), duration_s, offsets))
    analog = identifiers[0].rectifier.rectify(wave, power, rng=rng, n_samples=window)
    longest: dict[tuple[Adc, float], float] = {}
    for grid, duration_s, _ in plans:
        longest[grid] = max(duration_s, longest.get(grid, 0.0))
    codes = {
        (adc, phase_s): adc.capture(analog, duration_s=duration_s, phase_s=phase_s).codes
        for (adc, phase_s), duration_s in longest.items()
    }
    return [
        score_capture(
            codes[grid][: grid[0]._n_out(duration_s)],
            ident.bank,
            quantized=ident.config.quantized,
            offsets=offsets,
        )
        for ident, (grid, duration_s, offsets) in zip(identifiers, plans)
    ]


def score_traces(
    identifiers: Sequence[ProtocolIdentifier],
    traces: Iterable[tuple[Protocol, Waveform]],
    *,
    rng: np.random.Generator,
    incident_power_dbm: DbmPower | dict[Protocol, float] | None = None,
) -> list[list[tuple[Protocol, dict[Protocol, float]]]]:
    """Each identifier's labeled correlation scores over one pass of the
    traces (the matcher plays no part, so one set of scores serves any
    number of matchers, see :func:`tabulate_accuracy`).

    List ``k`` equals what ``identifiers[k]`` scores alone, trace by
    trace in order, from a generator in ``rng``'s starting state; each
    trace is scored by all of them before the next one is taken, so a
    streamed trace set (:func:`repro.experiments.common.labeled_traces`)
    holds one trace at a time.  Every identifier's front end is the same
    clamp rectifier model, so they share its noise.

    ``incident_power_dbm`` may be one value, a per-protocol dict, or
    None for the calibrated defaults (:data:`DEFAULT_INCIDENT_DBM`); a
    protocol a dict leaves out is rectified at the templates' power
    (:data:`~repro.core.templates.TEMPLATE_INCIDENT_DBM`).
    """
    if incident_power_dbm is None:
        powers: dict[Protocol, float] = dict(DEFAULT_INCIDENT_DBM)
    elif isinstance(incident_power_dbm, dict):
        powers = incident_power_dbm
    else:
        powers = {p: float(incident_power_dbm) for p in Protocol}
    scored: list[list[tuple[Protocol, dict[Protocol, float]]]] = [[] for _ in identifiers]
    for truth, wave in traces:
        power = powers.get(truth, TEMPLATE_INCIDENT_DBM)
        for out, scores in zip(scored, _score_head(identifiers, wave, power, rng)):
            out.append((truth, scores))
    return scored


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
