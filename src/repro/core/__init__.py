"""The multiscatter tag: the paper's primary contribution.

Pipeline (paper Fig 2): the tag rectifies incident 2.4 GHz signals into
a baseband envelope (:mod:`repro.core.rectifier`), samples it
(:mod:`repro.core.adc`), identifies the excitation protocol by template
correlation (:mod:`repro.core.templates`, :mod:`repro.core.matching`,
:mod:`repro.core.identification`), then overlays tag data onto the
productive carrier (:mod:`repro.core.overlay`,
:mod:`repro.core.tag_modulation`) so a single commodity radio decodes
both (:mod:`repro.core.overlay_decoder`).

Resource/power/energy accounting for the FPGA prototype lives in
:mod:`repro.core.resources` and :mod:`repro.core.energy`;
:mod:`repro.core.tag` glues everything into a
:class:`~repro.core.tag.MultiscatterTag`.
"""

from repro.core.rectifier import BasicRectifier, ClampRectifier, WispRectifier
from repro.core.adc import Adc
from repro.core.overlay import OverlayConfig, OverlayCodec, Mode
from repro.core.identification import ProtocolIdentifier, IdentificationConfig
from repro.core.tag import MultiscatterTag

__all__ = [
    "BasicRectifier",
    "ClampRectifier",
    "WispRectifier",
    "Adc",
    "OverlayConfig",
    "OverlayCodec",
    "Mode",
    "ProtocolIdentifier",
    "IdentificationConfig",
    "MultiscatterTag",
]
