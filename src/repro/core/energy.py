"""Power and energy-harvesting models (paper Tables 3 and 4, §3).

Table 3 is the prototype's peak power breakdown at 20 Msps; the ADC
dominates (260 mW), which is why the paper argues for modern
tens-of-uW ADC IP at 2.5 Msps.  Table 4 follows from closed-form
energy arithmetic: a 0.01 F storage capacitor cycled between 4.1 V and
2.6 V delivers ~50 mJ, runs the tag for E/P seconds, and each solar
recharge takes E / P_harvest(lux).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.phy.protocols import DEFAULT_PACKET_RATES, Protocol

__all__ = [
    "PowerBreakdown",
    "PROTOTYPE_POWER",
    "SolarHarvester",
    "StorageCapacitor",
    "EnergyBudget",
    "exchange_times",
]


@dataclass(frozen=True)
class PowerBreakdown:
    """Component power draws in mW (Table 3 structure)."""

    pkt_det_fpga_mw: float = 2.5
    adc_mw: float = 260.0
    modulation_fpga_mw: float = 1.0
    rf_switch_mw: float = 0.1
    oscillator_mw: float = 15.9

    @property
    def total_mw(self) -> float:
        return (
            self.pkt_det_fpga_mw
            + self.adc_mw
            + self.modulation_fpga_mw
            + self.rf_switch_mw
            + self.oscillator_mw
        )

    def at_adc_rate(self, sample_rate_hz: float) -> "PowerBreakdown":
        """ADC power scales roughly linearly with sampling rate (the
        AD9235's 260 mW figure is at 20 Msps)."""
        if not sample_rate_hz > 0:
            raise ValueError(f"sample_rate_hz must be positive, got {sample_rate_hz!r}")
        scale = sample_rate_hz / 20e6
        return PowerBreakdown(
            pkt_det_fpga_mw=self.pkt_det_fpga_mw,
            adc_mw=self.adc_mw * scale,
            modulation_fpga_mw=self.modulation_fpga_mw,
            rf_switch_mw=self.rf_switch_mw,
            oscillator_mw=self.oscillator_mw,
        )

    def rows(self) -> list[tuple[str, str, float]]:
        """(logical part, device, power) rows as printed in Table 3."""
        return [
            ("Pkt det.", "Pkt det.(FPGA)", self.pkt_det_fpga_mw),
            ("Pkt det.", "ADC (20 Msps)", self.adc_mw),
            ("Modulation", "FPGA (Modulation)", self.modulation_fpga_mw),
            ("Modulation", "RF-switch", self.rf_switch_mw),
            ("Clock", "Oscillator (20 MHz)", self.oscillator_mw),
        ]


#: The COTS prototype's measured breakdown (Table 3; totals 279.5 mW).
PROTOTYPE_POWER = PowerBreakdown()


class StorageCapacitor:
    """BQ25570-managed storage capacitor (§3 'Power consumption')."""

    capacitance_f = 0.01
    v_start = 4.1
    v_cutoff = 2.6

    @property
    def usable_energy_j(self) -> float:
        """E = C/2 (V1^2 - V2^2) ~= 50 mJ for the prototype."""
        return 0.5 * self.capacitance_f * (self.v_start**2 - self.v_cutoff**2)

    def runtime_s(self, power_mw: float) -> float:
        """How long one discharge sustains ``power_mw``."""
        if not power_mw > 0:
            raise ValueError(f"power_mw must be positive, got {power_mw!r}")
        return self.usable_energy_j / (power_mw / 1e3)


class SolarHarvester:
    """MP3-37 panel + BQ25570 harvest model.

    Calibrated to the paper's two measurements: 50 mJ in 216.2 s at
    500 lux (indoor) and in 0.78 s at 1.04e5 lux (outdoor).  Harvested
    power is interpolated as a power law between those points.
    """

    #: (lux, harvested power in mW) calibration anchors.
    indoor_point = (500.0, 50.25 / 216.2 * 1e0)
    outdoor_point = (1.04e5, 50.25 / 0.78 * 1e0)

    def power_mw(self, lux: float) -> float:
        if not lux > 0:
            raise ValueError(f"lux must be positive, got {lux!r}")
        import numpy as np

        (l1, p1), (l2, p2) = self.indoor_point, self.outdoor_point
        alpha = np.log(p2 / p1) / np.log(l2 / l1)
        return float(p1 * (lux / l1) ** alpha)

    def harvest_time_s(self, energy_j: float, lux: float) -> float:
        if not energy_j > 0:
            raise ValueError(f"energy_j must be positive, got {energy_j!r}")
        return energy_j / (self.power_mw(lux) / 1e3)


@dataclass
class EnergyBudget:
    """Ties the pieces together for Table 4's exchange-time arithmetic."""

    power: PowerBreakdown = field(default_factory=lambda: PROTOTYPE_POWER)
    #: The prototype's storage capacitor and solar harvester.
    capacitor: ClassVar[StorageCapacitor] = StorageCapacitor()
    harvester: ClassVar[SolarHarvester] = SolarHarvester()

    @property
    def runtime_per_charge_s(self) -> float:
        return self.capacitor.runtime_s(self.power.total_mw)

    def packets_per_charge(self, packet_rate_hz: float) -> float:
        """Backscattered packets per discharge (360 for 2000 pkt/s)."""
        if not packet_rate_hz > 0:
            raise ValueError(f"packet_rate_hz must be positive, got {packet_rate_hz!r}")
        return packet_rate_hz * self.runtime_per_charge_s

    def harvest_time_s(self, lux: float) -> float:
        return self.harvester.harvest_time_s(self.capacitor.usable_energy_j, lux)

    def exchange_time_s(self, packet_rate_hz: float, lux: float) -> float:
        """Average time between two tag-data exchanges of one packet:
        one recharge amortized over the packets a charge supports."""
        return self.harvest_time_s(lux) / self.packets_per_charge(packet_rate_hz)


#: Illuminances used in Table 4.
INDOOR_LUX = 500.0
OUTDOOR_LUX = 1.04e5


def exchange_times(budget: EnergyBudget | None = None) -> dict[Protocol, dict[str, float]]:
    """Reproduce Table 4: per-protocol packets/charge and average
    exchange times indoor and outdoor, at each protocol's default
    packet rate."""
    b = budget or EnergyBudget()
    out: dict[Protocol, dict[str, float]] = {}
    for protocol, rate in DEFAULT_PACKET_RATES.items():
        out[protocol] = {
            "exchange_packets": b.packets_per_charge(rate),
            "indoor_s": b.exchange_time_s(rate, INDOOR_LUX),
            "outdoor_s": b.exchange_time_s(rate, OUTDOOR_LUX),
        }
    return out
