"""Channel and link-budget models.

Power convention: a :class:`~repro.phy.waveform.Waveform` whose mean
|iq|^2 is 1.0 carries 0 dBm.  All modulators emit unit (0 dBm)
waveforms; the channel scales them.
"""

from repro.channel.noise import awgn, noise_floor_dbm
from repro.channel.pathloss import log_distance_path_loss_db
from repro.channel.link import BackscatterLink, LinkBudget, PROTOCOL_LINK_DEFAULTS
from repro.channel.occlusion import Material, OccludedChannel
from repro.channel.fading import MultipathChannel

__all__ = [
    "awgn",
    "noise_floor_dbm",
    "log_distance_path_loss_db",
    "BackscatterLink",
    "LinkBudget",
    "PROTOCOL_LINK_DEFAULTS",
    "Material",
    "OccludedChannel",
    "MultipathChannel",
]
