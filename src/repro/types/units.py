"""Physical-unit annotation vocabulary for the reproduction.

Multiscatter's correctness hinges on quantity bookkeeping across
layers: ADC sample rates vs. protocol chip rates (§2.2–§2.3
identification), κ/γ symbol counts in overlay modulation (§2.4), and
dB-vs-linear SNR in the channel.  The aliases here make those
quantities visible in signatures — ``def capture(duration_s: Seconds)``
— and feed :mod:`tools.reproflow`, the whole-program dataflow analyzer
that propagates them through assignments, arithmetic, and call
boundaries (U-series rules, docs/STATIC_ANALYSIS.md).

Each alias is ``Annotated[float-or-int, <Unit marker>]``: at runtime
and under mypy it is exactly ``float``/``int``, so adopting the
vocabulary never changes behavior.  reproflow recognizes both the
alias *names* in annotations and the naming-convention seeds
(``_hz``/``_us``/``_db`` suffixes, ``sample_rate``-style well-known
names) listed in ``tools/reproflow/unitlattice.py``.

Two deliberate modeling choices:

* **Scale variants are distinct units.**  ``Seconds`` and
  ``Microseconds`` are both time, but ``window_us + duration_s`` is
  exactly the silent 1e6 bug this vocabulary exists to catch, so the
  lattice keeps them apart.
* **Log-domain quantities are their own family.**  ``Decibels``
  (relative gain/loss) and ``DbmPower`` (absolute log power) may be
  combined with each other (dBm + dB = dBm, dBm − dBm = dB) but never
  with linear-power quantities (U002).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, TypeAlias

__all__ = [
    "Unit",
    "HZ",
    "S",
    "US",
    "SAMPLES",
    "CHIPS",
    "SYMBOLS",
    "BITS",
    "BYTES",
    "DB",
    "DBM",
    "MILLIWATTS",
    "WATTS",
    "VOLTS",
    "METERS",
    "RATIO",
    "Hertz",
    "Seconds",
    "Microseconds",
    "Samples",
    "Chips",
    "Symbols",
    "Bits",
    "Bytes",
    "Decibels",
    "DbmPower",
    "Milliwatts",
    "Watts",
    "Volts",
    "Meters",
    "Ratio",
]


@dataclass(frozen=True)
class Unit:
    """A unit marker carried in ``Annotated`` metadata.

    ``symbol`` is the canonical short name (also what reproflow prints
    in findings).  Which units share a dimension (``s`` and ``us`` are
    both time) is reproflow's business: its lattice,
    ``tools/reproflow/unitlattice.py``, groups them.
    """

    symbol: str

    def __repr__(self) -> str:
        return f"Unit({self.symbol!r})"


HZ = Unit("Hz")
S = Unit("s")
US = Unit("us")
SAMPLES = Unit("samples")
CHIPS = Unit("chips")
SYMBOLS = Unit("symbols")
BITS = Unit("bits")
BYTES = Unit("bytes")
DB = Unit("dB")
DBM = Unit("dBm")
MILLIWATTS = Unit("mW")
WATTS = Unit("W")
VOLTS = Unit("V")
METERS = Unit("m")
RATIO = Unit("ratio")

#: Frequencies and rates: sample rates, chip rates, CFO, bandwidths.
Hertz: TypeAlias = Annotated[float, HZ]

#: Wall-clock / on-air durations in seconds.
Seconds: TypeAlias = Annotated[float, S]

#: Window lengths and short intervals in microseconds (the paper's
#: natural scale for L_p/L_m windows; distinct from :data:`Seconds`).
Microseconds: TypeAlias = Annotated[float, US]

#: ADC / baseband sample counts and indices measured in samples.
Samples: TypeAlias = Annotated[int, SAMPLES]

#: Spread-spectrum chip counts (ZigBee 32-chip PN, 802.11b Barker/CCK).
Chips: TypeAlias = Annotated[int, CHIPS]

#: PHY symbol counts (κ/γ overlay accounting, OFDM symbols).
Symbols: TypeAlias = Annotated[int, SYMBOLS]

#: Bit counts (payload, PSDU, tag bits).
Bits: TypeAlias = Annotated[int, BITS]

#: Byte counts (payload sizes).
Bytes: TypeAlias = Annotated[int, BYTES]

#: Relative log-domain gain/loss (SNR, path loss, antenna gain).
Decibels: TypeAlias = Annotated[float, DB]

#: Absolute log-domain power referenced to 1 mW.
DbmPower: TypeAlias = Annotated[float, DBM]

#: Absolute linear power in milliwatts (0 dBm == 1 mW).
Milliwatts: TypeAlias = Annotated[float, MILLIWATTS]

#: Absolute linear power in watts.
Watts: TypeAlias = Annotated[float, WATTS]

#: Analog voltages (rectifier output, ADC reference).
Volts: TypeAlias = Annotated[float, VOLTS]

#: Distances in meters.
Meters: TypeAlias = Annotated[float, METERS]

#: Dimensionless ratios and fractions (duty cycles, efficiencies,
#: normalized correlation scores, samples-per-symbol factors).
Ratio: TypeAlias = Annotated[float, RATIO]
