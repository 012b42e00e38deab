"""Channel and link-budget models.

Power convention: a :class:`~repro.phy.waveform.Waveform` whose mean
|iq|^2 is 1.0 carries 0 dBm; :func:`repro.channel.pathloss.db_to_gain`
converts dB power gains to amplitude scale factors.  All modulators
emit unit (0 dBm) waveforms; the channel scales them.
"""

from repro.channel.noise import awgn, noise_floor_dbm
from repro.channel.pathloss import (
    db_to_gain,
    free_space_path_loss_db,
    log_distance_path_loss_db,
)
from repro.channel.link import BackscatterLink, LinkBudget, PROTOCOL_LINK_DEFAULTS
from repro.channel.occlusion import Material, occlusion_loss_db, OccludedChannel
from repro.channel.channel import Channel
from repro.channel.fading import MultipathChannel

__all__ = [
    "awgn",
    "noise_floor_dbm",
    "db_to_gain",
    "free_space_path_loss_db",
    "log_distance_path_loss_db",
    "BackscatterLink",
    "LinkBudget",
    "PROTOCOL_LINK_DEFAULTS",
    "Material",
    "occlusion_loss_db",
    "OccludedChannel",
    "Channel",
    "MultipathChannel",
]
