"""Self-tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- percentiles --------------------------------------------------------------


@pytest.mark.parametrize(
    "n, q, reported",
    [(19, 50, False), (20, 50, True), (901, 99, False), (902, 99, True)],
)
def test_percentile_needs_ten_samples_beyond(n, q, reported):
    count, pct = harness.latency_percentiles(range(n), qs=(q,))
    assert count == n
    assert (q in pct) is reported


def test_percentiles_come_from_one_sorted_set():
    samples = [float((i * 7919) % 1000) for i in range(1000)]  # 0..999, shuffled
    n, pct = harness.latency_percentiles(samples)
    assert n == 1000
    assert pct == {50: pytest.approx(499.5), 99: pytest.approx(989.01)}


def test_no_samples_reports_nothing():
    assert harness.latency_percentiles([]) == (0, {})


# -- digests ------------------------------------------------------------------


def _event(stream_seq=1, latency=0.01, bits=(1, 0, 1)):
    protocol = SimpleNamespace(name="WIFI_N")
    outcome = SimpleNamespace(
        protocol=protocol,
        identified=protocol,
        backscattered=True,
        tag_bits_sent=3,
        tag_bits_correct=2,
        productive_bits_correct=24,
        productive_bits_total=24,
        tag_bits_decoded=list(bits),
    )
    return SimpleNamespace(
        tag_id="tag-00",
        seq=stream_seq,
        time_s=0.125,
        outcome=outcome,
        decode_latency_s=latency,
        stream_seq=stream_seq,
    )


def test_packet_record_ignores_latency_only():
    assert harness.packet_record(_event(latency=0.01)) == harness.packet_record(
        _event(latency=9.0)
    )
    assert harness.packet_record(_event(stream_seq=1)) != harness.packet_record(
        _event(stream_seq=2)
    )
    assert harness.packet_record(_event(bits=(1, 0, 1))) != harness.packet_record(
        _event(bits=(1, 1, 1))
    )


def test_stream_digest_covers_a_fixed_prefix():
    a, b = harness.StreamDigest(2), harness.StreamDigest(2)
    for d, tail in ((a, 3), (b, 4)):
        for seq in (1, 2, tail):
            d.add(_event(stream_seq=seq))
    assert a.count == b.count == 3
    assert a.hexdigest() == b.hexdigest()
    short = harness.StreamDigest(5)
    short.add(_event())
    with pytest.raises(ValueError):
        short.hexdigest()


# -- metric names -------------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "decode.demod.wifi_n.ms_per_pkt", "a-b", "9x"])
def test_legal_metric_names(name):
    assert harness.check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é", "x" * 65])
def test_illegal_metric_names(name):
    with pytest.raises(ValueError):
        harness.check_metric_name(name)


def test_benchmark_json_names_are_legal():
    sections = ("workloads", "end_to_end", "per_layer")
    for name in (m["name"] for section in sections for m in BENCHMARK[section]):
        harness.check_metric_name(name)


def test_per_layer_metrics_from_spans():
    spans = {
        "stage": [10, 40_000_000, 1_000_000, 0],
        "decode.inline": [10, 50_000_000, 5_000_000, 0],
        "decode.viterbi": [4, 45_000_000, 45_000_000, 4],
        "decode.demod.wifi_n": [4, 48_000_000, 3_000_000, 4],
        "decode.demod.ble": [2, 2_000_000, 2_000_000, 6],
        "gateway.publish": [10, 1_000_000, 1_000_000, 0],
        "experiments.fig16_collisions": [1, 3_500_000_000, 3_000_000_000, 0],
    }
    extra = {
        m["name"]: 0.0
        for m in BENCHMARK["per_layer"]
        if m["name"].startswith(("setup.", "gateway.latency"))
    }
    extra.update(run.pool_metrics({}, ops=0, wall_s=0.0))
    extra.update(
        {
            "gateway.failures": 0.0,
            "wavecache.misses": 3.0,
            "proc.cpu_ms_per_op": 9.0,
            "trace.overhead_frac": 0.01,
        }
    )
    m = run.per_layer_metrics(spans, ops=10, wall_s=0.1, extra=extra)
    assert run.labelled(m, "per_layer")["stage.ms_per_pkt"]["unit"] == "ms"
    assert m["experiments.fig16_collisions.s"] == pytest.approx(3.5)
    assert m["experiments.fig04_rectifier.s"] == 0.0
    assert m["stage.ms_per_pkt"] == pytest.approx(4.0)
    assert m["decode.viterbi.ms_per_pkt"] == pytest.approx(4.5)
    assert m["decode.batch_size.mean"] == pytest.approx(10 / 6)
    assert m["gateway.airloop.busy_frac"] == pytest.approx(0.91)
    assert m["gateway.pool.worker_busy_frac"] == 0.0


def test_pool_metrics_from_worker_spans():
    spans = {
        "stage": [20, 60_000_000, 2_000_000, 0],
        "decode.worker": [2, 90_000_000, 1_000_000, 20],
        "decode.demod.wifi_n": [2, 80_000_000, 10_000_000, 8],
        "decode.demod.zigbee": [1, 5_000_000, 5_000_000, 4],
        "gateway.pool.payload_bytes": [16, 0, 0, 16 * 2048],
    }
    m = run.pool_metrics(spans, ops=20, wall_s=0.1)
    assert m["gateway.pool.throughput_pps"] == pytest.approx(200.0)
    assert m["gateway.pool.airloop_busy_frac"] == pytest.approx(0.6)
    assert m["gateway.pool.worker_busy_frac"] == pytest.approx(0.9)
    assert m["gateway.pool.payload_kb_per_pkt"] == pytest.approx(2.0)
    assert m["gateway.pool.batch_size.mean"] == pytest.approx(4.0)
    with pytest.raises(ValueError):
        run.labelled(run.per_layer_metrics(spans, ops=10, wall_s=0.1, extra={}), "per_layer")
    with pytest.raises(ValueError):
        run.labelled({**m, "throughput_pps": 1.0}, "end_to_end")


# -- failure accounting -------------------------------------------------------


def test_gateway_failures():
    assert harness.gateway_failed(attempted=100, delivered=100) == 0
    assert harness.gateway_failed(attempted=100, delivered=97) == 3
    assert harness.gateway_failed(attempted=100, delivered=100, n_decode_retries=2) == 2
    assert harness.gateway_failed(attempted=100, delivered=99, n_tag_evictions=1) == 2
    assert harness.gateway_failed(attempted=100, delivered=100, consumer_error=True) == 100
    assert harness.gateway_failed(attempted=100, delivered=100, drained_clean=False) == 100
    assert harness.gateway_failed(attempted=5, delivered=0, n_decode_timeouts=9) == 5


def test_campaign_failures():
    assert harness.campaign_failed(attempted=34, raised=0, digest_ok=True) == 0
    assert harness.campaign_failed(attempted=34, raised=2, digest_ok=True) == 2
    assert harness.campaign_failed(attempted=34, raised=0, digest_ok=False) == 34


# -- tracing ------------------------------------------------------------------


def test_tracing_restores_every_attribute(tmp_path):
    sys.path.insert(0, str(HERE.parent / "src"))
    np = pytest.importorskip("numpy")
    import tracing
    from repro.core.rectifier import ClampRectifier
    from repro.phy import convcode, viterbi

    before = viterbi.decode
    assert "rectify" not in vars(ClampRectifier)
    tracing.install(tmp_path)
    try:
        tracing.reset()
        bits = np.random.default_rng(1).integers(0, 2, 64).astype(np.uint8)
        decoded = viterbi.decode(convcode.encode(bits), n_info=64)
        assert np.array_equal(decoded, bits)
        calls, incl, self_ns, _ = tracing.collect()["phy.viterbi.scalar"]
        assert calls == 1 and incl >= self_ns > 0
    finally:
        tracing.uninstall()
    assert viterbi.decode is before
    assert "rectify" not in vars(ClampRectifier)
