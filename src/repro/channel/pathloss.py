"""Path-loss models for the 2.4 GHz ISM band.

The paper's deployment is an indoor hallway/office floor (Fig 11b,
30 m x 50 m).  We model it with a log-distance law whose exponent is
calibrated once (DESIGN.md §5) so the LoS backscatter ranges land near
the paper's 28/22/20 m; hallways act as waveguides, hence an exponent
below free space.
"""

from __future__ import annotations

import numpy as np

from repro.types import Meters

__all__ = ["log_distance_path_loss_db"]

#: Calibrated indoor-hallway exponent (see DESIGN.md §5).
DEFAULT_EXPONENT = 1.8

#: Reference loss at 1 m for 2.4 GHz (free space ~= 40.05 dB).
DEFAULT_PL0_DB = 40.05


def log_distance_path_loss_db(
    distance_m: Meters,
    *,
    exponent: float = DEFAULT_EXPONENT,
    pl0_db: float = DEFAULT_PL0_DB,
    d0_m: float = 1.0,
) -> float:
    """Log-distance model: PL = PL0 + 10 n log10(d / d0)."""
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    d = max(float(distance_m), 0.01)
    return float(pl0_db + 10.0 * exponent * np.log10(d / d0_m))

