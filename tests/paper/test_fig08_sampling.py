"""Paper claims of Fig 8: low sampling rates and the extended window."""


from repro.experiments.registry import get_spec

SPEC = get_spec("fig08_sampling")


def test_fig08_sampling():
    result = SPEC.run(n_traces=12, n_train=16)

    reports = result["reports"]
    ext = reports["2.5Msps/extended"].average
    base = reports["2.5Msps/base"].average
    low = reports["1Msps/extended"].average
    # Paper: base 0.485 -> extended 0.93; 1 Msps ~ 0.5.
    assert ext > base
    assert ext >= 0.80
    assert low < ext
    assert low < 0.80
