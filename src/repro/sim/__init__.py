"""Simulation framework: excitation traffic, collision scenes, metrics."""

from repro.sim.traffic import random_packet, ExcitationSource, ExcitationSchedule
from repro.sim.metrics import ber, confusion_table, throughput_kbps

__all__ = [
    "random_packet",
    "ExcitationSource",
    "ExcitationSchedule",
    "ber",
    "confusion_table",
    "throughput_kbps",
]
