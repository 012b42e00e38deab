"""Material occlusion of the original (excitation) channel.

The paper's Fig 9a / Fig 15 experiments block the *original* channel --
the transmitter-to-"first receiver" path that two-receiver baselines
(Hitchhike, FreeRider) depend on -- with drywall, wood, or concrete.
Besides mean attenuation, an occluded indoor path is unstable
(shadowing variance grows), which is what actually drives those
baselines' BER cliff; the model captures both.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["Material", "occlusion_loss_db", "OccludedChannel"]


class Material(enum.Enum):
    """Obstruction types used in the paper's occlusion experiments."""

    NONE = "none"
    DRYWALL = "drywall"
    WOOD = "wooden wall"
    CONCRETE = "concrete wall"


#: (mean attenuation dB, shadowing std-dev dB) at 2.4 GHz.  Attenuation
#: values follow common indoor propagation surveys; the std-dev encodes
#: the instability the paper observes ("the original data reception
#: becomes highly unstable", §4.1.3).
_MATERIAL_TABLE: dict[Material, tuple[float, float]] = {
    Material.NONE: (0.0, 0.5),
    Material.DRYWALL: (4.0, 3.0),
    Material.WOOD: (6.0, 4.0),
    Material.CONCRETE: (13.0, 6.0),
}


def occlusion_loss_db(material: Material) -> float:
    """Mean penetration loss for ``material``."""
    return _MATERIAL_TABLE[material][0]


@dataclass
class OccludedChannel:
    """Per-packet channel state for a path crossing ``material``.

    ``sample_loss_db`` draws the packet's total excess loss: mean
    penetration loss plus log-normal shadowing.  Two-receiver baselines
    evaluate their original-channel packets through this, multiscatter
    does not need to (§4.1.3).
    """

    material: Material = Material.NONE

    def sample_loss_db(self, rng: np.random.Generator) -> float:
        mean, std = _MATERIAL_TABLE[self.material]
        return float(mean + rng.normal(scale=std))
