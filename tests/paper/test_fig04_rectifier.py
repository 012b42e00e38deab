"""Paper claims of Fig 4: rectifier comparison (clamp vs basic; ours vs WISP)."""


from repro.experiments.registry import get_spec

SPEC = get_spec("fig04_rectifier")


def test_fig04_rectifier():
    result = SPEC.run()

    # Shape assertions against the paper.
    clamp = result["clamp_out_v"]
    basic = result["basic_out_v"]
    # Fig 4a: at weak inputs only the clamp rectifier produces output.
    weak = result["powers_dbm"] < -20
    assert (clamp[weak] > basic[weak]).all()
    # Fig 4b: ours tracks the 802.11b envelope far better than WISP.
    assert result["fidelity_ours"] > 3 * result["fidelity_wisp"]
    # §2.2.1: downlink range on the order of a meter.
    assert 0.4 < result["downlink_range_m"] < 3.0
