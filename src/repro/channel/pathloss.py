"""Path-loss models for the 2.4 GHz ISM band.

The paper's deployment is an indoor hallway/office floor (Fig 11b,
30 m x 50 m).  We model it with a log-distance law whose exponent is
calibrated once (DESIGN.md §5) so the LoS backscatter ranges land near
the paper's 28/22/20 m; hallways act as waveguides, hence an exponent
below free space.
"""

from __future__ import annotations

import math

import numpy as np

from repro.types import Meters

__all__ = ["log_distance_path_loss_db"]

#: Calibrated indoor-hallway exponent (see DESIGN.md §5).
EXPONENT = 1.8

#: Reference loss at 1 m for 2.4 GHz (free space ~= 40.05 dB).
PL0_DB = 40.05


def log_distance_path_loss_db(distance_m: Meters) -> float:
    """Log-distance model: PL = PL0 + 10 n log10(d / 1 m), with the
    calibrated :data:`EXPONENT` and :data:`PL0_DB`.

    Distances below 1 cm are clamped to it; a negative or non-finite
    one raises ``ValueError``.
    """
    # Written so that NaN fails it.
    if not 0 <= distance_m < math.inf:
        raise ValueError(f"distance_m must be >= 0 and finite, got {distance_m!r}")
    d = max(float(distance_m), 0.01)
    return float(PL0_DB + 10.0 * EXPONENT * np.log10(d))

