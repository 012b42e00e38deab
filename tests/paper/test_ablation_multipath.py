"""Ablation: identification accuracy under multipath.

The paper's §2.3.2 threshold search "covers more than 200,000 traces of
different ranges, scenarios, and protocols ... no location-sensitivity
is observed".  This test probes the claim in simulation: per-location
multipath (exponential PDP) distorts the envelope the templates match,
and accuracy should degrade gracefully, not collapse.
"""

import numpy as np

from repro.channel.fading import MultipathChannel
from repro.core.identification import DEFAULT_INCIDENT_DBM, ProtocolIdentifier
from repro.core.tag import TAG_IDENTIFICATION
from repro.experiments.common import ExperimentResult
from repro.phy.protocols import Protocol
from repro.sim.traffic import random_packet

SPREADS_NS = (0.0, 30.0, 80.0, 150.0)


def run_multipath_ablation(n_per_protocol: int = 5, seed: int = 3) -> ExperimentResult:
    ident = ProtocolIdentifier(TAG_IDENTIFICATION)
    rows = {}
    for spread_ns in SPREADS_NS:
        rng = np.random.default_rng(seed)
        hits = 0
        total = 0
        for p in Protocol:
            for i in range(n_per_protocol):
                wave = random_packet(p, rng, n_payload_bytes=30)
                if spread_ns > 0:
                    chan = MultipathChannel(
                        rms_delay_spread_s=spread_ns * 1e-9, seed=100 + total
                    )
                    faded = chan.apply(wave)
                    faded.annotations = dict(wave.annotations)
                    wave = faded
                decision = ident.identify(
                    wave,
                    incident_power_dbm=DEFAULT_INCIDENT_DBM[p],
                    rng=np.random.default_rng(total),
                )
                hits += decision is p
                total += 1
        rows[spread_ns] = hits / total
    return ExperimentResult(
        name="ablation_multipath",
        data={"rows": rows},
        notes=[
            "paper §2.3.2: 'no location-sensitivity is observed' over 200k traces",
        ],
    )


def test_ablation_multipath():
    rows = run_multipath_ablation()["rows"]
    # Graceful degradation: even heavy indoor multipath keeps accuracy
    # within 0.2 of the clean channel.
    assert rows[150.0] >= rows[0.0] - 0.2
    assert rows[150.0] > 0.5
