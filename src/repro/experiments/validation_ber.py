"""Cross-validation: simulated modem BER vs the analytic waterfalls.

The Fig 13/14 range sweeps rest on closed-form BER models
(`repro.channel.link.ber_*`).  This experiment validates them against
the actual software modems: for each protocol, packets are pushed
through AWGN at controlled Eb/N0 and the measured BER is compared with
the formula.  Differential penalties, imperfect channel estimation and
hard-decision losses mean the modems sit within a couple of dB of the
ideal curves -- close enough that the range cliffs they set are
trustworthy.
"""

from __future__ import annotations

import numpy as np

from repro.channel.link import (
    ber_802154,
    ber_coded_ofdm_bpsk,
    ber_dbpsk,
    ber_gfsk_noncoherent,
)
from repro.experiments.common import ExperimentResult
from repro.experiments.params import ValidationBerParams
from repro.experiments.registry import implements
from repro.phy import ble, bits as bitlib, modems, wifi_b, wifi_n, zigbee
from repro.phy.protocols import Protocol
from repro.sim.metrics import format_table

__all__ = ["run", "format_result", "measure_ber"]

#: Per-protocol: (analytic model, bandwidth/bit-rate processing gain).
_MODELS = {
    Protocol.WIFI_B: (ber_dbpsk, 22e6 / 1e6),
    Protocol.WIFI_N: (ber_coded_ofdm_bpsk, 20e6 / 6.5e6),
    Protocol.BLE: (ber_gfsk_noncoherent, 2e6 / 1e6),
    Protocol.ZIGBEE: (ber_802154, 2e6 / 250e3),
}


def _demodulate(protocol: Protocol, wave, n_bits: int) -> np.ndarray:
    if protocol is Protocol.WIFI_B:
        return wifi_b.demodulate(wave, n_payload_bits=n_bits).payload_bits
    if protocol is Protocol.WIFI_N:
        return wifi_n.demodulate(wave, n_psdu_bits=n_bits).psdu_bits
    if protocol is Protocol.BLE:
        return ble.demodulate(wave).payload_bits
    return zigbee.demodulate(wave).payload_bits


def _occupied_bw_hz(protocol: Protocol) -> float:
    """Noise bandwidth at complex baseband equals the sample rate."""
    return {
        Protocol.WIFI_B: 22e6,
        Protocol.WIFI_N: 20e6,
        Protocol.BLE: 8e6,
        Protocol.ZIGBEE: 8e6,
    }[protocol]


def measure_ber(
    protocol: Protocol,
    ebn0_db: float,
    *,
    n_packets: int,
    payload_bytes: int,
    rng: np.random.Generator,
) -> float:
    """Simulated BER of the real modem at a target Eb/N0.

    The AWGN level is set from Eb/N0 via the protocol's bit rate and
    the simulation's noise bandwidth (= sample rate at complex
    baseband).
    """
    bit_rate = {
        Protocol.WIFI_B: 1e6,
        Protocol.WIFI_N: 6.5e6,
        Protocol.BLE: 1e6,
        Protocol.ZIGBEE: 250e3,
    }[protocol]
    fs = _occupied_bw_hz(protocol)
    # SNR over the full simulation bandwidth for unit-power signal:
    # Eb/N0 = SNR * fs / bit_rate.
    snr_db = ebn0_db - 10.0 * np.log10(fs / bit_rate)
    errors = 0
    total = 0
    for _ in range(n_packets):
        payload = rng.integers(0, 256, payload_bytes, dtype=np.uint8).tobytes()
        ref = bitlib.bits_from_bytes(payload)
        wave = modems.modulate(protocol, payload)
        # Scale noise to the waveform's actual power (OQPSK's half-sine
        # shaping averages 0.5, not 1.0).
        sigma = (
            np.sqrt(wave.mean_power()) * 10.0 ** (-snr_db / 20.0) / np.sqrt(2.0)
        )
        wave.iq = wave.iq + sigma * (
            rng.normal(size=wave.n_samples) + 1j * rng.normal(size=wave.n_samples)
        )
        got = _demodulate(protocol, wave, ref.size)
        n = min(got.size, ref.size)
        errors += int(np.count_nonzero(got[:n] != ref[:n])) + (ref.size - n)
        total += ref.size
    return errors / max(total, 1)


@implements("validation_ber")
def run(params: ValidationBerParams) -> ExperimentResult:
    rng = np.random.default_rng(params.seed)
    rows = {}
    for protocol, (model, _) in _MODELS.items():
        for ebn0 in params.ebn0_grid_db:
            measured = measure_ber(
                protocol, ebn0, n_packets=params.n_packets,
                payload_bytes=params.payload_bytes, rng=rng,
            )
            analytic = model(10.0 ** (ebn0 / 10.0))
            rows[(protocol, ebn0)] = {"measured": measured, "analytic": analytic}
    return ExperimentResult(
        name="validation_ber",
        data={"rows": rows},
        notes=[
            "modems sit within a couple of dB of the ideal waterfalls",
            "validates the closed forms behind the Fig 13/14 range sweeps",
        ],
    )


def format_result(result: ExperimentResult) -> str:
    rows = [
        [p.value, f"{e:.0f}", f"{v['measured']:.4f}", f"{v['analytic']:.4f}"]
        for (p, e), v in result["rows"].items()
    ]
    return format_table(
        ["protocol", "Eb/N0 (dB)", "simulated BER", "analytic BER"], rows
    )
