"""Claim test: modem-vs-analytic BER cross-validation.

Quantifies each software receiver's implementation loss against the
ideal waterfalls the range sweeps use.  Shape assertions: BER falls
with Eb/N0 for every protocol, and the high-Eb/N0 points are clean
(bounded implementation loss).
"""


from repro.experiments.registry import get_spec

from repro.phy.protocols import Protocol

SPEC = get_spec("validation_ber")


def test_validation_ber():
    result = SPEC.run(n_packets=3)
    rows = result["rows"]

    for p in Protocol:
        series = [rows[(p, e)]["measured"] for e in (4.0, 8.0, 12.0)]
        # Monotone non-increasing BER with Eb/N0 (sampling tolerance).
        assert series[2] <= series[0] + 0.02, p
        # Bounded implementation loss: clean by 12 dB Eb/N0.
        assert series[2] <= 0.05, p

    # ZigBee's DSSS + matched filter + phase tracking make it the most
    # robust at low Eb/N0, as its analytic curve predicts.
    assert rows[(Protocol.ZIGBEE, 8.0)]["measured"] <= rows[(Protocol.BLE, 8.0)]["measured"] + 0.02
