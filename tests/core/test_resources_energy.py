"""Tests for the FPGA resource model (Tables 2/5) and energy model
(Tables 3/4)."""

import pytest

from repro.core.energy import (
    INDOOR_LUX,
    OUTDOOR_LUX,
    EnergyBudget,
    PowerBreakdown,
    PROTOTYPE_POWER,
    SolarHarvester,
    StorageCapacitor,
    exchange_times,
)
from repro.core.resources import (
    AGLN250_DFF,
    CorrelatorDesign,
    identification_luts,
    identification_power_mw,
    naive_correlator_dffs,
    quantized_correlator_dffs,
)
from repro.phy.protocols import Protocol


class TestTable2:
    def test_naive_per_protocol_dffs(self):
        # §2.3.1: 120 multipliers + 119 adders = 33,341 DFFs.
        res = naive_correlator_dffs(120)
        assert res["dffs_per_protocol"] == 33341
        assert res["dffs_total"] == 133364
        assert res["multipliers"] == 480
        assert res["adders"] == 476

    def test_naive_exceeds_agln250(self):
        assert naive_correlator_dffs(120)["dffs_total"] > AGLN250_DFF

    def test_quantized_fits_agln250(self):
        assert quantized_correlator_dffs(120) == 2860
        assert quantized_correlator_dffs(120) < AGLN250_DFF

    def test_design_point_fits(self):
        design = CorrelatorDesign(
            sample_rate_hz=2.5e6, window_us=40.0, quantized=True
        )
        assert quantized_correlator_dffs(design.taps_per_template) <= AGLN250_DFF
        # §2.3 note 2: 1 bit per quantized tap, 400 bits of templates.
        assert design.total_taps == 400

    def test_naive_design_does_not_fit(self):
        design = CorrelatorDesign(
            sample_rate_hz=20e6, window_us=6.0, quantized=False
        )
        dffs = naive_correlator_dffs(design.taps_per_template)["dffs_total"]
        assert dffs > AGLN250_DFF

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            naive_correlator_dffs(0)
        with pytest.raises(ValueError):
            quantized_correlator_dffs(0)


class TestTable5:
    def test_reported_triples(self):
        # 20 Msps, 8 us window: 160 taps x 4 = 640.
        assert identification_luts(640, quantized=False) == pytest.approx(34751, rel=0.01)
        assert identification_luts(640, quantized=True) == pytest.approx(1574, rel=0.01)
        # 2.5 Msps, 40 us window: 100 taps x 4 = 400.
        assert identification_luts(400, quantized=True) == pytest.approx(1070, rel=0.01)

    def test_reported_powers(self):
        p_full = identification_power_mw(640, 20e6, quantized=False)
        p_q20 = identification_power_mw(640, 20e6, quantized=True)
        p_q25 = identification_power_mw(400, 2.5e6, quantized=True)
        assert p_full == pytest.approx(564, rel=0.05)
        assert p_q20 == pytest.approx(12, rel=0.1)
        assert p_q25 == pytest.approx(2, rel=0.15)

    def test_282x_power_reduction(self):
        # §3: "282x lower power than the naive implementation".
        p_full = identification_power_mw(640, 20e6, quantized=False)
        p_q25 = identification_power_mw(400, 2.5e6, quantized=True)
        assert p_full / p_q25 == pytest.approx(282, rel=0.15)


class TestTable3:
    def test_total_279_5_mw(self):
        assert PROTOTYPE_POWER.total_mw == pytest.approx(279.5)

    def test_rows_cover_total(self):
        assert sum(p for _, _, p in PROTOTYPE_POWER.rows()) == pytest.approx(
            PROTOTYPE_POWER.total_mw
        )

    def test_adc_scales_with_rate(self):
        slow = PROTOTYPE_POWER.at_adc_rate(2.5e6)
        assert slow.adc_mw == pytest.approx(260 / 8)
        assert slow.total_mw < PROTOTYPE_POWER.total_mw


class TestTable4:
    def test_capacitor_energy_50mj(self):
        cap = StorageCapacitor()
        assert cap.usable_energy_j == pytest.approx(50.25e-3, rel=0.01)

    def test_runtime_0_18s(self):
        budget = EnergyBudget()
        assert budget.runtime_per_charge_s == pytest.approx(0.18, abs=0.01)

    def test_packets_per_charge(self):
        budget = EnergyBudget()
        assert budget.packets_per_charge(2000) == pytest.approx(360, rel=0.02)
        assert budget.packets_per_charge(70) == pytest.approx(12.6, rel=0.02)
        assert budget.packets_per_charge(20) == pytest.approx(3.6, rel=0.02)

    def test_harvest_times(self):
        budget = EnergyBudget()
        assert budget.harvest_time_s(INDOOR_LUX) == pytest.approx(216.2, rel=0.01)
        assert budget.harvest_time_s(OUTDOOR_LUX) == pytest.approx(0.78, rel=0.01)

    def test_exchange_times_table(self):
        table = exchange_times()
        # Indoor: 216.2 s / 360 = 0.60 s for WiFi; 17.2 s BLE; 60 s ZigBee.
        assert table[Protocol.WIFI_N]["indoor_s"] == pytest.approx(0.60, abs=0.02)
        assert table[Protocol.BLE]["indoor_s"] == pytest.approx(17.2, abs=0.3)
        assert table[Protocol.ZIGBEE]["indoor_s"] == pytest.approx(60.1, abs=1.0)
        # Outdoor: 2.2 ms WiFi, 61.9 ms BLE.
        assert table[Protocol.WIFI_B]["outdoor_s"] == pytest.approx(2.2e-3, abs=0.2e-3)
        assert table[Protocol.BLE]["outdoor_s"] == pytest.approx(61.9e-3, rel=0.05)

    def test_harvester_power_monotone_in_lux(self):
        h = SolarHarvester()
        assert h.power_mw(1e5) > h.power_mw(1e3) > h.power_mw(100)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            StorageCapacitor().runtime_s(0)
        with pytest.raises(ValueError):
            SolarHarvester().power_mw(0)
        with pytest.raises(ValueError):
            EnergyBudget().packets_per_charge(0)


class TestRejectsNaN:
    """NaN fails every comparison, so each guard raises on the negated
    comparison (reprolint R006), naming the input."""

    @pytest.mark.parametrize(
        ("name", "call"),
        [
            ("sample_rate_hz", lambda v: PROTOTYPE_POWER.at_adc_rate(v)),
            ("power_mw", lambda v: StorageCapacitor().runtime_s(v)),
            ("lux", lambda v: SolarHarvester().power_mw(v)),
            ("energy_j", lambda v: SolarHarvester().harvest_time_s(v, 500.0)),
            ("lux", lambda v: SolarHarvester().harvest_time_s(1.0, v)),
            ("packet_rate_hz", lambda v: EnergyBudget().packets_per_charge(v)),
            ("sample_rate_hz", lambda v: identification_power_mw(100, v, quantized=True)),
        ],
    )
    def test_nan_raises_naming_the_input(self, name, call):
        with pytest.raises(ValueError, match=name):
            call(float("nan"))
