"""Paper claims of Fig 18: excitation diversity (uptime + carrier pick)."""


from repro.experiments.registry import get_spec

from repro.phy.protocols import Protocol

SPEC = get_spec("fig18_diversity")


def test_fig18_diversity():
    result = SPEC.run()

    # Paper Fig 18a: multiscatter busy ~always, single-protocol ~50%.
    assert result["multi_active_fraction"] > 0.9
    assert 0.3 < result["single_active_fraction"] < 0.7
    assert result["multi_mean_kbps"] > result["single_mean_kbps"]

    # Paper Fig 18b: 802.11n picked, 6.3 kbps goal met; 11b-only fails.
    assert result["picked"] is Protocol.WIFI_N
    assert result["estimates"][0].tag_goodput_kbps >= result["goal_kbps"]
    assert result["single_protocol_goodput_kbps"] < result["goal_kbps"]
