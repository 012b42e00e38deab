"""The physical-unit lattice and its inference seeds (stdlib only).

Mirrors :mod:`repro.types.units` without importing it — reproflow must
analyze the repo, not execute it.  Three sources seed the lattice:

1. **Annotations**: parameters/returns/fields annotated with the
   ``repro.types.units`` aliases (``Hertz``, ``Seconds``, ...), matched
   by alias name (``units.Hertz`` and bare ``Hertz`` both work).
2. **Exact names**: well-known identifiers whose unit is a repo-wide
   convention (``sample_rate`` is always Hz, ``l_p``/``l_m`` are ADC
   sample counts, ``kappa``/``gamma`` are §2.4 symbol counts).
3. **Suffixes**: the ``_hz``/``_us``/``_dbm`` naming convention.  Each
   scale variant is a distinct lattice member on the same dimension, so
   ``x_us + y_s`` is a U001 mismatch even though both are "time".

The lattice is flat apart from the special literal element: numeric
literals combine transparently with every unit (``l_p + 2`` stays in
samples), and unknown absorbs everything (no finding is ever produced
when either side is unknown).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "UnitTok",
    "LITERAL",
    "ALIAS_UNITS",
    "EXACT_NAMES",
    "SUFFIX_UNITS",
    "seed_from_name",
    "combine_additive",
]


@dataclass(frozen=True)
class UnitTok:
    """One lattice member: a concrete unit at a concrete scale."""

    symbol: str
    dim: str

    def __repr__(self) -> str:
        return self.symbol


#: Sentinel for numeric literals: combines with anything, keeps the
#: other side's unit, and never triggers a finding.
LITERAL = UnitTok("<literal>", "<literal>")

HZ = UnitTok("Hz", "rate")
KHZ = UnitTok("kHz", "rate")
MHZ = UnitTok("MHz", "rate")
GHZ = UnitTok("GHz", "rate")
BPS = UnitTok("bps", "datarate")
KBPS = UnitTok("kbps", "datarate")
MBPS = UnitTok("Mbps", "datarate")
S = UnitTok("s", "time")
MS = UnitTok("ms", "time")
US = UnitTok("us", "time")
NS = UnitTok("ns", "time")
SAMPLES = UnitTok("samples", "count")
CHIPS = UnitTok("chips", "count")
SYMBOLS = UnitTok("symbols", "count")
BITS = UnitTok("bits", "count")
BYTES = UnitTok("bytes", "count")
DB = UnitTok("dB", "log-power")
DBM = UnitTok("dBm", "log-power")
MW = UnitTok("mW", "linear-power")
W = UnitTok("W", "linear-power")
V = UnitTok("V", "voltage")
MV = UnitTok("mV", "voltage")
M = UnitTok("m", "length")
CM = UnitTok("cm", "length")
MM = UnitTok("mm", "length")
KM = UnitTok("km", "length")
J = UnitTok("J", "energy")
MJ = UnitTok("mJ", "energy")
UJ = UnitTok("uJ", "energy")
NJ = UnitTok("nJ", "energy")
OHM = UnitTok("ohm", "resistance")
RATIO = UnitTok("ratio", "dimensionless")
PCT = UnitTok("pct", "dimensionless")

#: ``repro.types.units`` alias name -> lattice member.
ALIAS_UNITS: dict[str, UnitTok] = {
    "Hertz": HZ,
    "Seconds": S,
    "Microseconds": US,
    "Samples": SAMPLES,
    "Chips": CHIPS,
    "Symbols": SYMBOLS,
    "Bits": BITS,
    "Bytes": BYTES,
    "Decibels": DB,
    "DbmPower": DBM,
    "Milliwatts": MW,
    "Watts": W,
    "Volts": V,
    "Meters": M,
    "Ratio": RATIO,
}

#: Well-known identifiers (checked before suffixes, lowercase).  This
#: is where repo conventions that violate the suffix grammar live:
#: ``l_m`` is a matching-window *sample count*, not meters.
EXACT_NAMES: dict[str, UnitTok] = {
    "sample_rate": HZ,
    "new_rate_hz": HZ,
    "chip_rate": HZ,
    "symbol_rate": HZ,
    "bit_rate": HZ,
    "adc_rate": HZ,
    "baud_rate": HZ,
    "l_p": SAMPLES,
    "l_m": SAMPLES,
    "l_t": SAMPLES,
    "n_samples": SAMPLES,
    "payload_start": SAMPLES,
    "n_chips": CHIPS,
    "chips_per_symbol": RATIO,
    "samples_per_symbol": RATIO,
    "samples_per_chip": RATIO,
    "sps": RATIO,
    "n_symbols": SYMBOLS,
    "payload_symbols": SYMBOLS,
    "kappa": SYMBOLS,
    "gamma": SYMBOLS,
    "n_bits": BITS,
    "n_payload_bytes": BYTES,
    "payload_bytes": BYTES,
    "db": DB,
    "dbm": DBM,
    "mw": MW,
    "v_ref": V,
    "noise_v_rms": V,
    "voltage": V,
    "wavelength": M,
    "duty_cycle": RATIO,
}

#: Name-suffix -> unit (longest suffix wins; lowercase).
SUFFIX_UNITS: dict[str, UnitTok] = {
    "_hz": HZ,
    "_khz": KHZ,
    "_mhz": MHZ,
    "_ghz": GHZ,
    "_bps": BPS,
    "_kbps": KBPS,
    "_mbps": MBPS,
    "_s": S,
    "_sec": S,
    "_ms": MS,
    "_us": US,
    "_ns": NS,
    "_samples": SAMPLES,
    "_sample": SAMPLES,
    "_chips": CHIPS,
    "_chip": CHIPS,
    "_symbols": SYMBOLS,
    "_syms": SYMBOLS,
    "_bits": BITS,
    "_bytes": BYTES,
    "_db": DB,
    "_dbm": DBM,
    "_dbi": DB,
    "_mw": MW,
    "_w": W,
    "_v": V,
    "_v_rms": V,
    "_mv": MV,
    "_m": M,
    "_cm": CM,
    "_mm": MM,
    "_km": KM,
    "_j": J,
    "_mj": MJ,
    "_uj": UJ,
    "_nj": NJ,
    "_ohm": OHM,
    "_frac": RATIO,
    "_ratio": RATIO,
    "_pct": PCT,
}

_SUFFIXES_BY_LENGTH = sorted(SUFFIX_UNITS, key=len, reverse=True)


def seed_from_name(name: str) -> UnitTok | None:
    """Infer a unit from an identifier via exact names, then suffixes.

    A private name (``_SAMPLES_PER_CHIP``) is looked up without its
    leading underscores.
    """
    low = name.lower()
    exact = EXACT_NAMES.get(low.lstrip("_"))
    if exact is not None:
        return exact
    for suffix in _SUFFIXES_BY_LENGTH:
        if low.endswith(suffix) and len(low) > len(suffix):
            return SUFFIX_UNITS[suffix]
    return None


def combine_additive(
    left: UnitTok | None, right: UnitTok | None, op: str
) -> tuple[UnitTok | None, str | None]:
    """Combine units under ``+``/``-``/``%``/comparison.

    Returns ``(result_unit, problem)`` where ``problem`` is ``None``,
    ``"mismatch"`` (U001), ``"dbm-sum"`` (U001: adding two absolute
    log powers), or ``"db-linear"`` (U002).

    Log-domain algebra is modeled explicitly: dB ± dB = dB,
    dBm ± dB = dBm, dBm − dBm = dB, but dBm + dBm has no physical
    meaning and log-domain never combines with linear power/voltage.
    """
    if left is None or right is None:
        return None, None
    if left is LITERAL:
        return (right if right is not LITERAL else LITERAL), None
    if right is LITERAL:
        return left, None
    if left == right:
        if left == DBM and op == "+":
            return DBM, "dbm-sum"
        if left == DBM and op == "-":
            return DB, None
        return left, None
    if left.dim == "log-power" and right.dim == "log-power":
        # dB + dBm (either order) is a legal gain application.
        return DBM, None
    log_side = left.dim == "log-power" or right.dim == "log-power"
    lin_side = {left.dim, right.dim} & {"linear-power", "voltage"}
    if log_side and lin_side:
        return None, "db-linear"
    return None, "mismatch"
