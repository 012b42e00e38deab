#!/usr/bin/env python3
"""Repository benchmark: the streaming gateway and the paper campaign.

Run from the repository root::

    python3 perfbench/run.py --workload gw-inline --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload campaign-paper --seed 1 --seconds 50 --trace 1

Workloads (each a closed loop with one client):

``gw-inline``
    ``repro.gateway.Gateway`` with its defaults (inline decode, batch of
    one), 16 registered tags and one BLOCK subscriber draining the
    stream, fed an unpaced seeded Poisson schedule of all four
    protocols at equal rates (balanced in blocks of four, see
    ``child._schedule``) for ``--seconds``.
``campaign-paper``
    All 17 registry experiments at the ``paper`` preset, serially, in a
    fresh interpreter per campaign, artifacts written to a scratch
    directory.  A run makes ``round(seconds / 10)`` campaigns, about
    ``--seconds`` of work on the reference host.

The decode pool (``decode_workers=1``, ``decode_batch=16``) is no
workload of its own: on the 2-vCPU reference host, whose speed drifts
by tens of percent over tens of seconds, only two workloads get runs
long enough to be steady within the time the whole benchmark may take.
The traced ``gw-inline`` run serves one window through the pool
instead, for the ``gateway.pool.*`` layers and the stream digest.

Every workload process is a fresh interpreter with one BLAS/OpenMP
thread, no ``REPRO_FAULTS``/``REPRO_PERF``/``REPRO_LOOPWATCH``, and at
most two busy processes (``nproc`` on the reference host).

Metric names and units, and the workload names, are those of
``BENCHMARK.json``.  End-to-end metrics (``--trace 0``), every one on
every workload:

* ``throughput_pps`` -- work items per second of timed wall time: packets
  served by the gateway over serve wall time; experiments finished over
  the summed wall time of the run's campaigns.
* ``setup_s`` -- fresh interpreter start to the start of the timed
  window, median of several cold starts spread over the run: imports,
  gateway construction, tag registration and a warm-up pass of one
  packet per protocol; for the campaign, imports and binding of the 17
  implementations.
* ``peak_rss_mb`` -- peak resident memory of the workload process
  (median over a campaign run's processes).

Gateway latency percentiles (``gw-inline``; one sample set, warm-up
excluded, only percentiles with ten samples beyond them), campaign
times, failure share and the host-speed probe are printed as
diagnostic lines before the result.  Failures count against attempts
in the result's ``attempted``/``failed`` fields.

``--trace 1`` alternates untraced and traced inline windows, then
serves the traced pool window (or runs one untraced and one traced
campaign), wraps each layer's public entry points from outside
(``tracing.py``), and reports the per-layer metrics plus the tracing
overhead.  ``python3 -m pytest perfbench`` tests the harness itself.

Correctness: every gateway run also serves the first 64 packets of the
default-seed schedule and compares the published stream's digest with
``expected.json``; at the default seed the timed stream must match it
too, and every window of a run (inline or pool) must publish the same
stream.  Campaign artifacts must round-trip byte for byte, repeat across
the campaigns of a run, and match ``expected.json`` wherever the seed
does not reach them.  A mismatch fails every operation of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
from child import DEFAULT_SEED, DIGEST_PACKETS  # noqa: E402
from tracing import PROTOCOLS  # noqa: E402

CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Set-up-only cold starts a gateway run makes before its timed process,
#: and as many again after it: a minute apart, the two groups fall in
#: different host-speed phases (5-15 s long on the reference host).
SETUP_PROBES = 3
#: Wall time of one paper campaign plus its cold start on the reference
#: host (2 vCPUs); sets how many campaigns fill ``--seconds``.
CAMPAIGN_NOMINAL_S = 10.0


def run_budget_s(seconds: float) -> float:
    """Wall-clock budget of one whole run; a workload process still
    running past it is killed, and the run fails."""
    return 2.0 * seconds + 60.0


def _incl_ms(spans: dict[str, list[int]], *names: str) -> float:
    return sum(spans.get(n, (0, 0, 0, 0))[1] for n in names) / 1e6


def _calls(spans: dict[str, list[int]], name: str) -> int:
    return spans.get(name, (0, 0, 0, 0))[0]


def _items(spans: dict[str, list[int]], name: str) -> int:
    return spans.get(name, (0, 0, 0, 0))[3]


def _demod_batch_mean(spans: dict[str, list[int]]) -> float:
    names = [f"decode.demod.{p}" for p in PROTOCOLS]
    return sum(_items(spans, n) for n in names) / max(sum(_calls(spans, n) for n in names), 1)


def pool_metrics(spans: dict[str, list[int]], *, ops: int, wall_s: float) -> dict[str, float]:
    """``gateway.pool.*`` values from a window served through the decode pool."""
    wall_ms = max(wall_s, 1e-9) * 1e3
    return {
        "gateway.pool.throughput_pps": ops / max(wall_s, 1e-9),
        "gateway.pool.airloop_busy_frac": _incl_ms(spans, "stage", "gateway.publish") / wall_ms,
        "gateway.pool.worker_busy_frac": _incl_ms(spans, "decode.worker") / wall_ms,
        "gateway.pool.payload_kb_per_pkt": _items(spans, "gateway.pool.payload_bytes")
        / 1024
        / max(_calls(spans, "gateway.pool.payload_bytes"), 1),
        "gateway.pool.batch_size.mean": _demod_batch_mean(spans),
    }


def per_layer_metrics(
    spans: dict[str, list[int]],
    *,
    ops: int,
    wall_s: float,
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-layer values from span totals (``name -> [calls, incl, self, items]``).

    ``ops`` is the work the traced window did (packets, or experiments
    for the campaign); ``*.ms_per_pkt`` values are per op.  ``extra``
    supplies the metrics that are not spans of this window (the pool
    window, set-up split, failures, overhead...).  Layers a workload
    never enters read 0.
    """
    per_op = 1.0 / max(ops, 1)
    wall_ms = max(wall_s, 1e-9) * 1e3

    def per_call(name: str) -> float:
        return _incl_ms(spans, name) / max(_calls(spans, name), 1)

    out = {
        "stage.ms_per_pkt": _incl_ms(spans, "stage") * per_op,
        "stage.excite.ms_per_pkt": _incl_ms(spans, "stage.excite") * per_op,
        "stage.identify.ms_per_pkt": _incl_ms(spans, "stage.identify") * per_op,
        "stage.identify.rectifier.ms_per_pkt": _incl_ms(spans, "stage.identify.rectifier")
        * per_op,
        "stage.identify.adc.ms_per_pkt": _incl_ms(spans, "stage.identify.adc") * per_op,
        "stage.identify.correlate.ms_per_pkt": _incl_ms(spans, "stage.identify.correlate")
        * per_op,
        "stage.backscatter.ms_per_pkt": _incl_ms(spans, "stage.backscatter") * per_op,
        "stage.channel.ms_per_pkt": _incl_ms(spans, "stage.channel.shift", "stage.channel.awgn")
        * per_op,
        "decode.ms_per_pkt": _incl_ms(spans, "decode.inline", "decode.worker") * per_op,
        "decode.viterbi.ms_per_pkt": _incl_ms(spans, "decode.viterbi") * per_op,
        "phy.viterbi.scalar.ms_per_call": per_call("phy.viterbi.scalar"),
        "gateway.publish.ms_per_pkt": _incl_ms(spans, "gateway.publish") * per_op,
        "gateway.airloop.busy_frac": _incl_ms(
            spans, "stage", "decode.inline", "gateway.publish"
        )
        / wall_ms,
        "experiments.save.ms": per_call("experiments.save"),
        "decode.batch_size.mean": _demod_batch_mean(spans),
    }
    for p in PROTOCOLS:
        out[f"decode.demod.{p}.ms_per_pkt"] = _incl_ms(spans, f"decode.demod.{p}") * per_op
        out[f"phy.modulate.{p}.ms_per_call"] = per_call(f"phy.modulate.{p}")
    # One ``experiments.<name>.s`` metric per registry experiment, each
    # the time of its ``experiments.<name>`` span.
    for metric in BENCHMARK["per_layer"]:
        name = metric["name"]
        if name.startswith("experiments.") and name.endswith(".s"):
            out[name] = _incl_ms(spans, name[: -len(".s")]) / 1e3
    out.update(extra)
    return out


def labelled(metrics: dict[str, float], section: str) -> dict[str, dict[str, Any]]:
    """``metrics`` with the units ``BENCHMARK.json`` gives them in ``section``.

    The names must be exactly those the section declares.
    """
    units = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    missing, unknown = set(units) - set(metrics), set(metrics) - set(units)
    if missing or unknown:
        raise ValueError(f"{section} metrics: missing {missing}, unknown {unknown}")
    return {
        harness.check_metric_name(k): {"value": float(v), "unit": units[k]}
        for k, v in metrics.items()
    }


def self_time_table(spans: dict[str, list[int]], wall_s: float) -> list[str]:
    """Human-readable per-span lines, largest self time first."""
    wall_ns = max(wall_s, 1e-9) * 1e9
    lines = [f"{'span':34s} {'calls':>7s} {'incl_ms':>10s} {'self_ms':>10s} {'self%':>6s}"]
    for name, (calls, incl, self_ns, _) in sorted(spans.items(), key=lambda kv: -kv[1][2]):
        lines.append(
            f"{name:34s} {calls:7d} {incl / 1e6:10.1f} {self_ns / 1e6:10.1f} "
            f"{100 * self_ns / wall_ns:6.1f}"
        )
    return lines


# -- processes -----------------------------------------------------------------


def _child_env(settings: dict[str, str]) -> dict[str, str]:
    """The caller's environment without REPRO_* knobs, plus ``settings``."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith("REPRO_") and k != "PYTHONASYNCIODEBUG"
    }
    env.update(settings)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a workload's process group and wait for it."""
    deadline = time.monotonic() + 10.0
    sig = signal.SIGKILL
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, sig)
        except ProcessLookupError:
            return
        sig = 0  # already sent; now only probe
        proc.poll()  # reap the group leader so it stops counting
        time.sleep(0.05)
    raise RuntimeError(f"processes of group {proc.pid} survived SIGKILL")


class Runner:
    """Starts workload processes one at a time and collects their results."""

    def __init__(self, tmp: Path, settings: dict[str, str], budget_s: float) -> None:
        self.tmp = tmp
        self.count = 0
        self.env = _child_env(settings)
        self.deadline = time.monotonic() + budget_s

    def spawn(self, *args: str) -> tuple[dict[str, Any], float]:
        self.count += 1
        work = self.tmp / f"p{self.count}"
        work.mkdir(parents=True)
        out = work / "result.json"
        log = work / "log.txt"
        spawned = time.monotonic()
        with open(log, "wb") as fh:
            proc = subprocess.Popen(
                [
                    sys.executable,
                    str(CHILD),
                    *args,
                    "--spawned",
                    repr(spawned),
                    "--out",
                    str(out),
                    "--tmp",
                    str(work),
                ],
                cwd=ROOT,
                env=self.env,
                stdout=fh,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                code = proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                code = None
            finally:
                _stop_group(proc)
                proc.wait()
        if code != 0 or not out.is_file():
            tail = log.read_text(errors="replace")[-4000:]
            raise RuntimeError(
                f"workload process {' '.join(args)} "
                f"{'timed out' if code is None else f'exited {code}'}:\n{tail}"
            )
        return json.loads(out.read_text()), spawned


def host_probe() -> float:
    """A fixed pure-Python kernel; millions of loop steps per second."""
    rates = []
    for _ in range(5):
        x, n = 1, 200_000
        t0 = time.perf_counter()
        for i in range(n):
            x = (x * 1103515245 + 12345 + i) & 0xFFFFFFFF
        rates.append(n / (time.perf_counter() - t0) / 1e6)
    return statistics.median(rates)


# -- workloads -----------------------------------------------------------------


class Outcome:
    def __init__(self) -> None:
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.lines: list[str] = []


def run_gateway(runner: Runner, seed: int, seconds: float, trace: bool, expected: dict) -> Outcome:
    base = ["gateway", "--seed", str(seed), "--seconds", repr(seconds)]

    def cold_starts() -> list[float]:
        # The traced run reports the set-up split of its own process instead.
        out = []
        for _ in range(0 if trace else SETUP_PROBES):
            r, spawned = runner.spawn(*base, "--setup-only")
            out.append(r["setup_end"] - spawned)
        return out

    setups = cold_starts()
    r, spawned = runner.spawn(*base, *(["--trace"] if trace else []))
    setups.append(r["setup_end"] - spawned)
    setups += cold_starts()

    res = Outcome()
    want = expected["gateway_stream_sha256"]
    timed, check = r["timed"], r["check"]
    # Every window replays the seed's schedule from its start, inline or
    # through the pool, so all of them share one stream digest.
    windows = [r[k] for k in ("timed", "traced", "pool") if k in r]
    digest_ok = check["digest"] == want and len({w["digest"] for w in windows}) == 1
    if seed == DEFAULT_SEED:
        digest_ok = digest_ok and timed["digest"] == want
    errors = [w["error"] for w in (*windows, check) if w["error"]]
    res.correct = digest_ok and not errors
    res.attempted = timed["packets"]
    res.failed = res.attempted if not res.correct else timed["failed"]
    rate = timed["packets"] / timed["elapsed_s"]
    lat = timed["latency_ms"]
    pct = ", ".join(f"p{q} {v:.3f} ms" for q, v in lat.items())
    res.lines += [
        f"gw-inline seed {seed}: {timed['packets']} packets in {timed['elapsed_s']:.3f} s "
        f"= {rate:.2f} pkt/s",
        f"staged->published latency (n={timed['latency_n']}): {pct or 'too few samples'}",
        "setup cold starts (s): " + ", ".join(f"{s:.3f}" for s in setups),
        f"stream sha256 (first {DIGEST_PACKETS} packets, seed {seed}): "
        + ", ".join(sorted({str(w["digest"]) for w in windows})),
        f"default-seed check stream: {'ok' if check['digest'] == want else 'MISMATCH'}"
        + (f"; errors: {errors}" if errors else ""),
    ]
    if not trace:
        res.metrics = {
            "throughput_pps": rate,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": r["peak_rss_mb"],
        }
        return res

    if set(lat) != {"50", "99"}:
        raise RuntimeError(
            f"{timed['latency_n']} latency samples in the untraced windows give no "
            f"p50 and p99 with {harness.MIN_SAMPLES_BEYOND} samples beyond each; "
            "run with a larger --seconds"
        )
    traced, pool = r["traced"], r["pool"]
    traced_rate = traced["packets"] / traced["elapsed_s"]
    spans = r["spans_traced"]
    extra = {
        **pool_metrics(r["spans_pool"], ops=pool["packets"], wall_s=pool["elapsed_s"]),
        "gateway.failures": float(sum(w["incidents"] for w in windows)),
        "gateway.latency_p50_ms": lat["50"],
        "gateway.latency_p99_ms": lat["99"],
        "gateway.latency_samples": float(timed["latency_n"]),
        "wavecache.misses": float(r["wavecache_misses"]),
        "setup.import_s": r["import_s"],
        "setup.register_s": r["register_s"],
        "setup.warmup_s": r["warmup_s"],
        "proc.cpu_ms_per_op": r["cpu_s"] * 1e3 / max(timed["packets"], 1),
        "trace.overhead_frac": 1.0 - traced_rate / rate,
    }
    res.metrics = per_layer_metrics(
        spans, ops=traced["packets"], wall_s=traced["elapsed_s"], extra=extra
    )
    covered = _incl_ms(spans, "stage", "decode.inline") / (traced["elapsed_s"] * 1e3)
    largest = max(spans, key=lambda name: spans[name][2])
    res.lines += [
        f"tracing overhead: untraced {rate:.2f} pkt/s, traced {traced_rate:.2f} pkt/s",
        f"stage + decode busy = {100 * covered:.1f}% of traced serve wall",
        f"largest self-time layer: {largest}",
        *self_time_table(spans, traced["elapsed_s"]),
        f"pool window (decode_workers=1, decode_batch=16, traced): "
        f"{extra['gateway.pool.throughput_pps']:.2f} pkt/s; staged->published latency "
        "not reported (unpaced and batched, it measures queue depth)",
        *self_time_table(r["spans_pool"], pool["elapsed_s"]),
    ]
    return res


def run_campaign(
    runner: Runner, seed: int, seconds: float, trace: bool, expected: dict
) -> Outcome:
    base = ["campaign", "--seed", str(seed)]
    # A fixed number of campaigns (not a deadline), so a slow host
    # phase cannot change how much work a run averages over.
    plan = [False, True] if trace else [False] * max(1, round(seconds / CAMPAIGN_NOMINAL_S))
    runs: list[dict[str, Any]] = []
    setups: list[float] = []
    for traced in plan:
        r, spawned = runner.spawn(*base, *(["--trace"] if traced else []))
        runs.append(r)
        setups.append(r["setup_end"] - spawned)

    res = Outcome()
    want = expected["campaign_sha256"]
    first = runs[0]["digests"]
    bad: set[str] = set()
    for r in runs:
        for name, digest in r["digests"].items():
            pinned = seed == DEFAULT_SEED or name not in r["seeded"]
            if digest != first.get(name) or (pinned and digest != want.get(name)):
                bad.add(name)
    errors = {name: err for r in runs for name, err in r["errors"].items()}
    res.attempted = sum(r["experiments"] for r in runs)
    res.correct = not bad and not errors
    res.failed = harness.campaign_failed(
        attempted=res.attempted, raised=sum(len(r["errors"]) for r in runs), digest_ok=not bad
    )
    timed = [r for r, traced in zip(runs, plan) if not traced]
    res.lines += [
        f"campaign-paper seed {seed}: campaign_s "
        + ", ".join(f"{r['campaign_s']:.3f}" for r in runs),
        "setup cold starts (s): " + ", ".join(f"{s:.3f}" for s in setups),
        f"artifact digests: {'ok' if not bad else 'MISMATCH ' + ', '.join(sorted(bad))}"
        + (f"; errors: {errors}" if errors else ""),
    ]
    if trace:
        plain, traced = runs
        spans = traced["spans"]
        extra = {
            **pool_metrics({}, ops=0, wall_s=0.0),
            "gateway.failures": 0.0,
            "gateway.latency_p50_ms": 0.0,
            "gateway.latency_p99_ms": 0.0,
            "gateway.latency_samples": 0.0,
            "wavecache.misses": float(plain["wavecache_misses"]),
            "setup.import_s": plain["import_s"],
            "setup.register_s": 0.0,
            "setup.warmup_s": 0.0,
            "proc.cpu_ms_per_op": plain["cpu_s"] * 1e3 / plain["experiments"],
            "trace.overhead_frac": traced["campaign_s"] / plain["campaign_s"] - 1.0,
        }
        res.metrics = per_layer_metrics(
            spans, ops=traced["experiments"], wall_s=traced["campaign_s"], extra=extra
        )
        res.lines += [
            f"tracing overhead: untraced {plain['campaign_s']:.3f} s, "
            f"traced {traced['campaign_s']:.3f} s",
            *self_time_table(spans, traced["campaign_s"]),
        ]
    else:
        res.metrics = {
            "throughput_pps": sum(r["experiments"] for r in timed)
            / sum(r["campaign_s"] for r in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
        }
    return res


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument(
        "--workload", choices=[w["name"] for w in BENCHMARK["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())

    tmp = ROOT / ".perfbench_run" / str(os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        probe_before = host_probe()
        runner = Runner(tmp, expected["settings"]["env"], run_budget_s(args.seconds))
        if args.workload == "gw-inline":
            res = run_gateway(runner, args.seed, args.seconds, bool(args.trace), expected)
        else:
            res = run_campaign(runner, args.seed, args.seconds, bool(args.trace), expected)
        probe_after = host_probe()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    for line in res.lines:
        print(line)
    if res.attempted < 1:
        print("the run attempted no operation; --seconds is too short", file=sys.stderr)
        return 1
    metrics = labelled(res.metrics, "per_layer" if args.trace else "end_to_end")
    print(f"failed_frac: {res.failed}/{res.attempted} = {res.failed / res.attempted:.6g}")
    print(f"host probe (Mops/s, diagnostic): before {probe_before:.3f}, after {probe_after:.3f}")
    print(
        json.dumps(
            {
                "correct": res.correct,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
