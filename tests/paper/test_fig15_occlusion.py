"""Paper claims of Fig 15: tag throughput with the original channel occluded."""

import pytest

from repro.experiments.registry import get_spec

SPEC = get_spec("fig15_occlusion")


def test_fig15_occlusion():
    result = SPEC.run(n_packets=400)

    multi_ble = result["multiscatter_ble_kbps"]
    multi_11b = result["multiscatter_11b_kbps"]
    hh = result["hitchhike_kbps"]
    fr = result["freerider_kbps"]

    # Paper: multiscatter 136/121 kbps > Hitchhike 94 > FreeRider 33.
    assert multi_ble > hh > fr
    assert multi_11b > fr
    assert hh == pytest.approx(94.0, rel=0.4)
    assert fr == pytest.approx(33.0, rel=0.4)
    assert multi_ble == pytest.approx(136.0, rel=0.3)
    assert multi_11b == pytest.approx(121.0, rel=0.3)
