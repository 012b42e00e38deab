"""Ablation: tag clock tolerance.

The tag times its flips off its own oscillator and resyncs at each
identified preamble, so boundary error grows linearly over one packet.
This sweep finds how much clock error overlay modulation tolerates --
context for why per-packet resync makes single-receiver decoding
immune to the drift that produces Hitchhike's Fig 9b offsets.
"""

import numpy as np

from repro.core.overlay import Mode, OverlayCodec, OverlayConfig
from repro.core.overlay_decoder import OverlayDecoder
from repro.core.tag_modulation import TagModulator
from repro.experiments.common import ExperimentResult
from repro.phy.protocols import Protocol

PPMS = (0.0, 100.0, 1000.0, 5000.0, 20000.0)


def _tag_ber(ppm: float, seed: int = 41) -> float:
    rng = np.random.default_rng(seed)
    codec = OverlayCodec(OverlayConfig.for_mode(Protocol.WIFI_B, Mode.MODE_1))
    prod = rng.integers(0, 2, 40).astype(np.uint8)
    carrier = codec.build_carrier(prod)
    _, cap = codec.capacity(carrier.annotations["n_payload_symbols"])
    tag_bits = rng.integers(0, 2, cap).astype(np.uint8)
    mod = TagModulator(codec, clock_ppm=ppm)
    rx = mod.received_at_shifted_channel(mod.modulate(carrier, tag_bits))
    rx.annotations = dict(carrier.annotations)
    out = OverlayDecoder(codec).decode(rx)
    return float(np.mean(out.tag_bits[:cap] != tag_bits))


def run_clock_ablation() -> ExperimentResult:
    rows = {ppm: _tag_ber(ppm) for ppm in PPMS}
    return ExperimentResult(
        name="ablation_clock",
        data={"rows": rows},
        notes=[
            "crystal-grade (<100 ppm) error is harmless thanks to per-packet resync",
            "percent-level error (>5000 ppm) drifts flips across symbol boundaries",
        ],
    )


def test_ablation_clock():
    result = run_clock_ablation()
    rows = result["rows"]
    # Crystal-grade errors are harmless; percent-level errors are not.
    assert rows[100.0] == 0.0
    assert rows[1000.0] <= 0.02
    assert rows[20000.0] > 0.2
