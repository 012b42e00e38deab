"""Paper claims of Fig 17: reference-symbol modulation robustness."""


from repro.experiments.registry import get_spec

SPEC = get_spec("fig17_refmod")


def test_fig17_refmod():
    result = SPEC.run(n_packets=6)

    # Paper: 11b tag BER below ~0.6% for all three DSSS/CCK reference
    # modulations; the OFDM band is likewise stable at its operating
    # SNR.  Allow simulation-scale resolution slack.
    for name, ber in result["wifi_b"].items():
        assert ber <= 0.06, name
    for name, ber in result["wifi_n"].items():
        assert ber <= 0.08, name
