"""Fig 18: leveraging excitation diversity.

(a) Two duty-cycled carriers (802.11b and 802.11n, 50 % each,
    anti-phased): a multiscatter tag transmits continuously, a
    single-protocol 802.11b tag idles half the time.
(b) Intelligent carrier pick: with abundant 802.11n and spotty
    802.11b excitations, the multiscatter tag selects 802.11n and
    meets a 6.3 kbps on-body goodput goal; the 802.11b-only tag fails.
"""

from __future__ import annotations

import numpy as np

from repro.core.carrier_select import CarrierSelector, diversity_timeline
from repro.experiments.common import ExperimentResult
from repro.experiments.params import Fig18Params
from repro.experiments.registry import implements
from repro.phy.protocols import Protocol
from repro.sim.metrics import format_table
from repro.sim.traffic import ExcitationSchedule, ExcitationSource

__all__ = ["run", "format_result", "GOODPUT_GOAL_KBPS"]

#: The smart-bracelet goodput requirement of §4.2.2.
GOODPUT_GOAL_KBPS = 6.3


@implements("fig18_diversity")
def run(params: Fig18Params) -> ExperimentResult:
    rng = np.random.default_rng(params.seed)

    # ---- (a) duty-cycled carriers ------------------------------------
    sources = [
        ExcitationSource(
            Protocol.WIFI_B, rate_pkts=300, duty_cycle=0.5,
            period_s=params.duty_period_s, phase_s=0.0,
        ),
        ExcitationSource(
            Protocol.WIFI_N, rate_pkts=300, duty_cycle=0.5,
            period_s=params.duty_period_s, phase_s=params.duty_period_s / 2,
        ),
    ]
    schedule = ExcitationSchedule.generate(sources, params.duration_s, rng)
    multi = diversity_timeline(schedule, tag_protocols=tuple(Protocol))
    single = diversity_timeline(schedule, tag_protocols=(Protocol.WIFI_B,))

    # ---- (b) intelligent carrier pick --------------------------------
    observed_rates = {Protocol.WIFI_N: 2000.0, Protocol.WIFI_B: 3.0}
    selector = CarrierSelector()
    best, estimates = selector.pick(observed_rates, goal_kbps=GOODPUT_GOAL_KBPS)
    single_b = selector.estimate(Protocol.WIFI_B, observed_rates[Protocol.WIFI_B])

    return ExperimentResult(
        name="fig18_diversity",
        data={
            "timeline_multi": multi,
            "timeline_single": single,
            "multi_active_fraction": float(np.mean(multi["tag_kbps"] > 0)),
            "single_active_fraction": float(np.mean(single["tag_kbps"] > 0)),
            "multi_mean_kbps": float(np.mean(multi["tag_kbps"])),
            "single_mean_kbps": float(np.mean(single["tag_kbps"])),
            "picked": best,
            "estimates": estimates,
            "single_protocol_goodput_kbps": single_b.tag_goodput_kbps,
            "goal_kbps": GOODPUT_GOAL_KBPS,
        },
        notes=[
            "paper Fig 18a: multiscatter busy 100% of time, single-protocol idle 50%",
            "paper Fig 18b: multiscatter picks 802.11n and meets 6.3 kbps; 11b tag fails",
        ],
    )


def format_result(result: ExperimentResult) -> str:
    rows = [
        [
            "multiscatter",
            f"{result['multi_active_fraction'] * 100:.0f}%",
            f"{result['multi_mean_kbps']:.1f}",
        ],
        [
            "802.11b-only",
            f"{result['single_active_fraction'] * 100:.0f}%",
            f"{result['single_mean_kbps']:.1f}",
        ],
    ]
    part_a = format_table(["tag", "active time", "mean tag kbps"], rows)
    picked = result["picked"]
    part_b = (
        f"\nintelligent pick: chose {picked.value if picked else 'none'} "
        f"(goal {result['goal_kbps']} kbps); "
        f"802.11b-only goodput: {result['single_protocol_goodput_kbps']:.1f} kbps"
    )
    return part_a + part_b
