"""Overlay modulation (paper §2.4): reference-based tag modulation.

A productive carrier is structured as *modulatable sequences* of
``kappa`` PHY symbols: the first symbol is the **reference symbol**
carrying one unit of productive data, and the remaining ``kappa - 1``
symbols repeat its content and are modulatable by the tag.  The tag
spends ``gamma`` symbols per tag bit (its repetition/robustness factor,
Table 6), so each sequence carries ``floor((kappa-1)/gamma)`` tag bits.
A single commodity radio decodes the packet normally, reads productive
data off the reference symbols, and recovers tag data by comparing each
modulatable symbol against its reference.

Per-protocol comparison domains (see :mod:`repro.core.overlay_decoder`):

* 802.11b -- on-air (scrambled-domain) DSSS symbol bits.  The 802.11b
  scrambler is self-synchronizing, so host software can re-derive the
  on-air bits from the received PSDU exactly.
* 802.11n -- per-OFDM-symbol decoded bit groups, compared over their
  middle half (the scrambler+BCC transients of §2.4 "802.11n").
* BLE -- raw post-access-address bits (whitening is additive, so it
  commutes with the comparison).
* ZigBee -- best-match PN symbol indices.

``Mode`` reproduces Table 6: mode 1 has as many modulatable symbols as
reference symbols (kappa = 2 gamma), mode 2 triples the ratio
(kappa = 4 gamma), mode 3 stretches one sequence over the whole payload
(a single productive bit per packet).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.phy import ble, wifi_b, wifi_n, zigbee
from repro.phy.protocols import Protocol
from repro.phy.waveform import Waveform
from repro.types import Symbols

__all__ = [
    "Mode",
    "DEFAULT_GAMMA",
    "OverlayConfig",
    "OverlayCodec",
    "ZIGBEE_SYMBOL_FOR_BIT",
]

#: Tag spreading factors gamma of Table 6.
DEFAULT_GAMMA: dict[Protocol, int] = {
    Protocol.WIFI_B: 4,
    Protocol.WIFI_N: 2,
    Protocol.BLE: 4,
    Protocol.ZIGBEE: 2,
}

#: ZigBee productive bit -> reference PN symbol (0 and 8 are far apart
#: in chip space and survive the tag's pi flips distinguishably).
ZIGBEE_SYMBOL_FOR_BIT = {0: 0x0, 1: 0x8}
_ZIGBEE_BIT_FOR_SYMBOL = {v: k for k, v in ZIGBEE_SYMBOL_FOR_BIT.items()}


class Mode(enum.Enum):
    """The three productive/tag tradeoff modes of Table 6."""

    MODE_1 = 1
    MODE_2 = 2
    MODE_3 = 3


@dataclass(frozen=True)
class OverlayConfig:
    """One protocol's overlay parameters.

    ``kappa`` is the productive-data spread factor (sequence length in
    symbols), ``gamma`` the tag-data spread factor.  Tag bits per
    sequence = floor((kappa - 1) / gamma).
    """

    protocol: Protocol
    kappa: Symbols
    gamma: Symbols

    def __post_init__(self) -> None:
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.kappa < 2:
            raise ValueError("kappa must be >= 2 (reference + modulatable)")
        if self.kappa <= self.gamma:
            raise ValueError("kappa must exceed gamma to fit a tag bit")

    @classmethod
    def for_mode(
        cls,
        protocol: Protocol,
        mode: Mode,
        *,
        payload_symbols: int | None = None,
    ) -> "OverlayConfig":
        """Table 6 construction: kappa = 2 gamma / 4 gamma / gamma*n,
        with the protocol's :data:`DEFAULT_GAMMA`."""
        g = DEFAULT_GAMMA[protocol]
        if mode is Mode.MODE_1:
            kappa = 2 * g
        elif mode is Mode.MODE_2:
            kappa = 4 * g
        else:
            if payload_symbols is None:
                raise ValueError("mode 3 needs payload_symbols (kappa = gamma*n)")
            # Leave one symbol of headroom for protocols that reserve a
            # leading payload symbol (802.11n's SERVICE filler).
            n = max((payload_symbols - 1) // g, 2)
            kappa = g * n
        return cls(protocol=protocol, kappa=kappa, gamma=g)

    @property
    def tag_bits_per_sequence(self) -> int:
        return (self.kappa - 1) // self.gamma


class OverlayCodec:
    """Builds overlay carriers, places tag flips, and decodes both data
    streams from a single receiver's symbol stream."""

    def __init__(self, config: OverlayConfig) -> None:
        self.config = config
        #: Reference symbol content per productive bit.
        self._reference_symbols = np.array(
            [self.reference_symbol_value(b) for b in (0, 1)], dtype=np.uint8
        )
        if config.protocol is Protocol.ZIGBEE:
            #: Productive bit per PN symbol index, chip-distance
            #: fallback included.
            self._zigbee_bits = np.array(
                [self.productive_bit_from_symbol(v) for v in range(16)], dtype=np.uint8
            )

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    @property
    def first_sequence_symbol(self) -> int:
        """Payload-symbol index where sequences start (802.11n reserves
        symbol 0 for the SERVICE-field filler)."""
        return 1 if self.config.protocol is Protocol.WIFI_N else 0

    def n_sequences(self, n_payload_symbols: int) -> int:
        usable = n_payload_symbols - self.first_sequence_symbol
        return max(usable // self.config.kappa, 0)

    def capacity(self, n_payload_symbols: int) -> tuple[int, int]:
        """(productive bits, tag bits) that fit in a payload."""
        n_seq = self.n_sequences(n_payload_symbols)
        return n_seq, n_seq * self.config.tag_bits_per_sequence

    # ------------------------------------------------------------------
    # productive-carrier construction
    # ------------------------------------------------------------------
    def reference_symbol_value(self, bit: int) -> int:
        """The symbol content that encodes one productive bit."""
        if self.config.protocol is Protocol.ZIGBEE:
            return ZIGBEE_SYMBOL_FOR_BIT[int(bit)]
        return int(bit)

    def productive_bit_from_symbol(self, value: int | np.ndarray) -> int:
        """Inverse of :meth:`reference_symbol_value` (receiver side)."""
        if self.config.protocol is Protocol.WIFI_N:
            group = np.asarray(value)
            return int(group.mean() > 0.5)
        if self.config.protocol is Protocol.ZIGBEE:
            if int(value) in _ZIGBEE_BIT_FOR_SYMBOL:
                return _ZIGBEE_BIT_FOR_SYMBOL[int(value)]
            # Fall back to the nearest reference symbol in chip space.
            chips = zigbee.PN_TABLE[int(value)]
            d0 = int(np.count_nonzero(chips != zigbee.PN_TABLE[0x0]))
            d1 = int(np.count_nonzero(chips != zigbee.PN_TABLE[0x8]))
            return 0 if d0 <= d1 else 1
        return int(value)

    def build_carrier(self, productive_bits: np.ndarray | list[int]) -> Waveform:
        """Modulate a crafted carrier whose payload spreads each
        productive bit over one kappa-symbol sequence."""
        bits = np.asarray(productive_bits, dtype=np.uint8)
        cfg = self.config
        protocol = cfg.protocol
        symbols = np.repeat(self._reference_symbols[bits], cfg.kappa)

        if protocol is Protocol.WIFI_B:
            return wifi_b.modulate(symbols, scrambled_domain=True)
        if protocol is Protocol.BLE:
            return ble.modulate(symbols)
        if protocol is Protocol.ZIGBEE:
            if symbols.size % 2:
                symbols = np.concatenate([symbols, np.zeros(1, np.uint8)])
            return zigbee.modulate(zigbee.bits_from_symbols(symbols))
        # 802.11n: craft the data-bit stream; payload symbol 0 carries
        # the SERVICE field + filler, sequences start at symbol 1.
        n_dbps = 26  # MCS0
        data_bits = np.repeat(np.concatenate([np.zeros(1, np.uint8), symbols]), n_dbps)
        return wifi_n.modulate(b"", data_bits=data_bits)

    # ------------------------------------------------------------------
    # decoding (single commodity receiver)
    # ------------------------------------------------------------------
    def decode_symbols(
        self, symbol_values: np.ndarray | list
    ) -> tuple[np.ndarray, np.ndarray]:
        """Recover (productive_bits, tag_bits) from the receiver's
        per-symbol decisions.

        ``symbol_values`` are payload-symbol decisions in the
        protocol's comparison domain (bits, PN indices, or 26-bit
        groups).  Tag bits are majority votes of "differs from the
        reference" across each gamma-group -- the XOR decoding of
        §2.4 generalized to all four protocols.  802.11n compares the
        middle half of each bit group (more than a quarter of it
        differing is a flip).
        """
        cfg = self.config
        n_seq = self.n_sequences(len(symbol_values))
        if n_seq == 0:
            return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint8)
        first = self.first_sequence_symbol
        seqs = np.asarray(symbol_values[first : first + n_seq * cfg.kappa])
        seqs = seqs.reshape(n_seq, cfg.kappa, *seqs.shape[1:])
        n_groups = cfg.tag_bits_per_sequence
        ref = seqs[:, :1, None]  # (n_seq, 1, 1[, w]) against every group
        groups = seqs[:, 1 : 1 + n_groups * cfg.gamma].reshape(
            n_seq, n_groups, cfg.gamma, *seqs.shape[2:]
        )
        if cfg.protocol is Protocol.WIFI_N:
            w = seqs.shape[-1]
            mid = slice(w // 4, w - w // 4)
            differ = (groups[..., mid] != ref[..., mid]).mean(axis=-1) > 0.25
            productive = seqs[:, 0].mean(axis=-1) > 0.5
        else:
            differ = groups != ref
            productive = seqs[:, 0]
            if cfg.protocol is Protocol.ZIGBEE:
                productive = self._zigbee_bits[productive]
        tag = 2 * np.count_nonzero(differ, axis=-1) > cfg.gamma
        return productive.astype(np.uint8), tag.astype(np.uint8).ravel()

    # ------------------------------------------------------------------
    # tag-side flip layout
    # ------------------------------------------------------------------
    def tag_flip_flags(
        self, tag_bits: np.ndarray | list[int], n_payload_symbols: int
    ) -> np.ndarray:
        """Boolean per payload symbol: does the tag flip it?

        Consumes tag bits sequence by sequence; unused capacity is left
        unmodulated.
        """
        bits = np.asarray(tag_bits, dtype=np.uint8)
        cfg = self.config
        flags = np.zeros(n_payload_symbols, dtype=bool)
        n_bits = self.n_sequences(n_payload_symbols) * cfg.tag_bits_per_sequence
        # Tag bit k is group k % per_seq of sequence k // per_seq.
        seq, group = np.divmod(np.flatnonzero(bits[:n_bits]), cfg.tag_bits_per_sequence)
        first = self.first_sequence_symbol + seq * cfg.kappa + 1 + group * cfg.gamma
        flags[(first[:, None] + np.arange(cfg.gamma)).ravel()] = True
        return flags
