"""Fig 17: tag-data BER under different reference-symbol modulations.

Overlay modulation only requires that a tag flip turn a symbol into a
*different* decodable symbol, so it composes with whatever modulation
the reference symbols use.  This experiment measures tag BER at the
signal level for:

* 802.11b reference symbols: DSSS-DBPSK (1 Mbps), DSSS-DQPSK (2 Mbps),
  CCK (5.5 Mbps);
* 802.11n reference symbols: OFDM-BPSK (MCS0), OFDM-QPSK (MCS1),
  OFDM-16QAM (MCS3).

Paper: all BERs stay below ~0.6 % (11b) and in a stable band (11n).
We run at a reduced SNR so BER is resolvable with simulation-scale bit
counts; the claim under test is *stability across modulations*.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult
from repro.experiments.registry import implements
from repro.phy import wifi_b, wifi_n
from repro.sim.metrics import format_table

__all__ = ["run", "format_result", "wifi_b_tag_ber", "wifi_n_tag_ber"]

_KAPPA = 8
_GAMMA = 4
_KAPPA_N = 4
_GAMMA_N = 2


def _bits_per_symbol_11b(rate: float) -> int:
    return {1.0: 1, 2.0: 2, 5.5: 4}[rate]


def wifi_b_tag_ber(
    rate_mbps: float,
    *,
    snr_db: float,
    n_packets: int,
    rng: np.random.Generator,
) -> float:
    """Tag BER over an 802.11b carrier at one reference modulation,
    24 reference sequences per packet."""
    n_sequences = 24
    bps = _bits_per_symbol_11b(rate_mbps)
    errors = 0
    total = 0
    for _ in range(n_packets):
        # Craft on-air PSDU: each sequence repeats one reference symbol
        # kappa times (overlay carrier), in the scrambled domain.
        ref_syms = rng.integers(0, 1 << bps, n_sequences)
        onair = np.concatenate(
            [
                np.tile([int(b) for b in np.binary_repr(s, bps)[::-1]], _KAPPA)
                for s in ref_syms
            ]
        ).astype(np.uint8)
        cfg = wifi_b.WifiBConfig(rate_mbps=rate_mbps)
        wave = wifi_b.modulate(onair, cfg, scrambled_domain=True)

        # Tag: gamma-symbol phase flips, differentially precoded.
        n_symbols = wave.annotations["n_payload_symbols"]
        tag_bits = rng.integers(0, 2, n_sequences).astype(np.uint8)
        flags = np.zeros(n_symbols, dtype=bool)
        for s, bit in enumerate(tag_bits):
            if bit:
                base = s * _KAPPA + 1
                flags[base : base + _GAMMA] = True
        state = np.cumsum(flags.astype(int)) % 2
        start = wave.annotations["payload_start"]
        sym_len = wave.annotations["samples_per_symbol"]
        tagged = wave.copy()
        for idx in np.flatnonzero(state):
            lo = start + int(idx) * sym_len
            tagged.iq[lo : lo + sym_len] *= -1.0

        noise_scale = 10.0 ** (-snr_db / 20.0) / np.sqrt(2.0)
        tagged.iq = tagged.iq + noise_scale * (
            rng.normal(size=tagged.n_samples) + 1j * rng.normal(size=tagged.n_samples)
        )

        result = wifi_b.demodulate(tagged)
        onair_rx = result.onair_bits
        for s in range(n_sequences):
            seq = onair_rx[s * _KAPPA * bps : (s + 1) * _KAPPA * bps]
            if seq.size < _KAPPA * bps:
                break
            ref = seq[:bps]
            votes = 0
            for g in range(_GAMMA):
                sym = seq[(1 + g) * bps : (2 + g) * bps]
                votes += int(not np.array_equal(sym, ref))
            decoded = int(votes * 2 > _GAMMA)
            errors += decoded != tag_bits[s]
            total += 1
    return errors / max(total, 1)


def wifi_n_tag_ber(
    mcs: int,
    *,
    snr_db: float,
    n_packets: int,
    rng: np.random.Generator,
) -> float:
    """Tag BER over an 802.11n carrier at one constellation, 12
    reference sequences per packet."""
    n_sequences = 12
    cfg = wifi_n.WifiNConfig(mcs=mcs)
    n_dbps = cfg.n_dbps
    errors = 0
    total = 0
    for _ in range(n_packets):
        groups = [np.zeros(n_dbps, np.uint8)]  # service/filler symbol
        ref_groups = []
        for _ in range(n_sequences):
            ref = rng.integers(0, 2, n_dbps).astype(np.uint8)
            ref_groups.append(ref)
            groups.extend([ref.copy() for _ in range(_KAPPA_N)])
        wave = wifi_n.modulate(b"", data_bits=np.concatenate(groups), config=cfg)

        tag_bits = rng.integers(0, 2, n_sequences).astype(np.uint8)
        start = wave.annotations["payload_start"]
        tagged = wave.copy()
        for s, bit in enumerate(tag_bits):
            if bit:
                base = 1 + s * _KAPPA_N + 1
                for g in range(_GAMMA_N):
                    lo = start + (base + g) * wifi_n.SYMBOL_LEN
                    tagged.iq[lo : lo + wifi_n.SYMBOL_LEN] *= -1.0

        noise_scale = 10.0 ** (-snr_db / 20.0) / np.sqrt(2.0)
        tagged.iq = tagged.iq + noise_scale * (
            rng.normal(size=tagged.n_samples) + 1j * rng.normal(size=tagged.n_samples)
        )

        result = wifi_n.demodulate(tagged)
        lo_q = n_dbps // 4
        hi_q = n_dbps - lo_q
        for s in range(n_sequences):
            base = 1 + s * _KAPPA_N
            if base + _KAPPA_N > len(result.symbol_bits):
                break
            ref = result.symbol_bits[base]
            votes = 0
            for g in range(_GAMMA_N):
                sym = result.symbol_bits[base + 1 + g]
                diff = np.mean(sym[lo_q:hi_q] != ref[lo_q:hi_q])
                votes += int(diff > 0.25)
            decoded = int(votes * 2 > _GAMMA_N)
            errors += decoded != tag_bits[s]
            total += 1
    return errors / max(total, 1)


@implements("fig17_refmod")
def run(
    *,
    seed: int,
    snr_11b_db: float = 3.0,
    snr_11n_db: float = 12.0,
    n_packets: int = 6,
) -> ExperimentResult:
    rng = np.random.default_rng(seed)
    bers_11b = {
        "DSSS-BPSK (1M)": wifi_b_tag_ber(1.0, snr_db=snr_11b_db, n_packets=n_packets, rng=rng),
        "DSSS-DQPSK (2M)": wifi_b_tag_ber(2.0, snr_db=snr_11b_db, n_packets=n_packets, rng=rng),
        "CCK (5.5M)": wifi_b_tag_ber(5.5, snr_db=snr_11b_db, n_packets=n_packets, rng=rng),
    }
    bers_11n = {
        "OFDM-BPSK (MCS0)": wifi_n_tag_ber(0, snr_db=snr_11n_db, n_packets=n_packets, rng=rng),
        "OFDM-QPSK (MCS1)": wifi_n_tag_ber(1, snr_db=snr_11n_db, n_packets=n_packets, rng=rng),
        "OFDM-16QAM (MCS3)": wifi_n_tag_ber(3, snr_db=snr_11n_db, n_packets=n_packets, rng=rng),
    }
    return ExperimentResult(
        name="fig17_refmod",
        data={"wifi_b": bers_11b, "wifi_n": bers_11n,
              "snr_11b_db": snr_11b_db, "snr_11n_db": snr_11n_db},
        notes=[
            "paper: 11b tag BER < 0.6% across DSSS-BPSK/DQPSK/CCK",
            "paper: stable BER band across OFDM-BPSK/QPSK/16QAM",
        ],
    )


def format_result(result: ExperimentResult) -> str:
    rows = []
    for name, ber in {**result["wifi_b"], **result["wifi_n"]}.items():
        rows.append([name, f"{ber * 100:.2f}%"])
    return format_table(["reference modulation", "tag BER"], rows)


if __name__ == "__main__":
    from repro.experiments.registry import run_preset

    print(run_preset("fig17_refmod", "full").render())
