"""Paper claims of Fig 9: two-receiver baseline defects."""

import numpy as np

from repro.channel.occlusion import Material
from repro.experiments.registry import get_spec

SPEC = get_spec("fig09_baseline_flaws")


def test_fig09_baseline_flaws():
    result = SPEC.run(n_packets=300)

    for system in ("hitchhike", "freerider"):
        bers = result["bers"][system]
        # Paper Fig 9a: 0.2% clear -> 59% concrete (monotone escalation).
        assert bers[Material.NONE] < 0.01
        assert bers[Material.NONE] < bers[Material.WOOD] < bers[Material.CONCRETE]
        assert bers[Material.CONCRETE] > 0.3

    # Paper Fig 9b: offsets up to 8 symbols, growing with range.
    offsets = result["offsets"]
    far = np.array(offsets[10.0])
    near = np.array(offsets[2.0])
    assert far.max() == 8
    assert far.mean() > near.mean()
