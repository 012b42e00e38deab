"""Paper claims of Fig 16: time- and frequency-domain excitation collisions."""


from repro.experiments.registry import get_spec

SPEC = get_spec("fig16_collisions")


def test_fig16_collisions():
    result = SPEC.run(n_trials=12)

    tc = result["time_collision"]
    fc = result["freq_collision"]

    # Paper Fig 16b: BLE drops hard (278 -> 92 kbps), 11n barely moves.
    assert tc["ble_collided_kbps"] < 0.5 * tc["ble_clean_kbps"]
    assert tc["wifi_n_collided_kbps"] > 0.9 * tc["wifi_n_clean_kbps"]

    # Paper Fig 16d: neither protocol much affected by frequency-domain
    # collisions when packets do not overlap in time.
    assert fc["zigbee_collided_kbps"] > 0.7 * fc["zigbee_clean_kbps"]
    assert fc["wifi_n_collided_kbps"] > 0.9 * fc["wifi_n_clean_kbps"]
