"""Command-line interface: ``python -m repro <command>``.

Gives the repository an adoption-grade front door:

* ``python -m repro list``                  -- declared experiments
  (registry metadata only; imports no implementation module)
* ``python -m repro run fig13_los --preset quick --seed 7 --out runs/x``
  -- run one experiment, print its paper-style table, and (with
  ``--out``) write a versioned JSON artifact
* ``python -m repro run-all --preset quick --workers 4 --out runs/x``
  -- run every experiment, fanning out across processes, with a
  per-experiment pass/fail summary and a crash-safe ``manifest.json``
  ledger in the run directory
* ``python -m repro run-all --resume runs/x`` -- finish an interrupted
  or partially failed campaign: re-runs only the experiments whose
  artifacts are missing, failed, or corrupt, producing a directory
  byte-identical to an uninterrupted run (docs/ROBUSTNESS.md)
* ``python -m repro show runs/x/fig13_los.json`` -- re-render a saved
  artifact exactly as the live run printed it
* ``python -m repro serve --tags 8 --duration 2``
  -- host a live tag network: the streaming gateway
  (:mod:`repro.gateway`) over generated excitation traffic, with a
  drain-clean summary (docs/SERVICE.md)
* ``python -m repro info``                  -- library and calibration
  summary
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

__all__ = ["main"]

#: Preset choices mirrored from repro.experiments.registry.PRESET_NAMES
#: (kept literal so building the parser imports nothing).
_PRESETS = ("quick", "full", "paper")


def _render_result(result) -> str:
    """The one output format shared by ``run`` and ``show``."""
    lines = [f"==== {result.name} ====", result.render()]
    for note in result.notes:
        lines.append(f"  note: {note}")
    return "\n".join(lines)


def _run_one(name: str, preset: str, seed: int | None, out_dir: str | None) -> str:
    """Run one experiment; returns the text to print (raises on error)."""
    from repro.experiments import registry

    spec = registry.get_spec(name)
    overrides = {}
    if seed is not None:
        if not spec.has_param("seed"):
            raise registry.RegistryError(
                f"experiment {name!r} is deterministic and takes no --seed"
            )
        overrides["seed"] = seed
    result = spec.run(preset, **overrides)
    text = _render_result(result)
    if out_dir is not None:
        path = result.save_in(out_dir)
        text += f"\nartifact: {path}"
    return text


def _run_all_worker(
    name: str, preset: str, seed: int | None, out_dir: str | None
) -> tuple[str, bool, str]:
    """Pool entry point for ``run-all``: never raises.

    Runs in a child process; inner ``labeled_traces`` pools are
    disabled so parallelism lives at exactly one level.
    """
    os.environ["REPRO_WORKERS"] = "1"
    return _run_all_serial(name, preset, seed, out_dir)


def _run_all_serial(
    name: str, preset: str, seed: int | None, out_dir: str | None
) -> tuple[str, bool, str]:
    from repro.experiments import registry

    if seed is not None and not registry.get_spec(name).has_param("seed"):
        seed = None
    try:
        return name, True, _run_one(name, preset, seed, out_dir)
    except Exception as exc:  # noqa: BLE001 -- one failure must not kill the run
        return name, False, f"{type(exc).__name__}: {exc}"


def _cmd_list() -> int:
    from repro.experiments import registry

    print("experiments (paper tables and figures):")
    for spec in registry.specs():
        print(f"  {spec.name:22s} {spec.paper_ref:26s} {spec.description}")
    print(f"presets: {', '.join(_PRESETS)} (see 'run --preset')")
    return 0


def _cmd_info() -> int:
    from repro.channel.link import PROTOCOL_LINK_DEFAULTS, BackscatterLink
    from repro.phy.protocols import Protocol

    print("multiscatter reproduction -- Gong et al., CoNEXT 2020")
    print("calibrated LoS backscatter ranges:")
    for p in Protocol:
        link = BackscatterLink(PROTOCOL_LINK_DEFAULTS[p])
        print(f"  {p.value:8s} {link.max_range_m():5.1f} m "
              f"(tx {PROTOCOL_LINK_DEFAULTS[p].tx_power_dbm:.0f} dBm)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments import registry

    preset = args.preset or "full"
    try:
        print(_run_one(args.experiment, preset, args.seed, args.out))
    except registry.UnknownExperimentError as exc:
        print(f"{exc.args[0]}; see 'python -m repro list'", file=sys.stderr)
        return 2
    except registry.RegistryError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro.experiments import registry
    from repro.experiments.manifest import ManifestError, RunManifest
    from repro.sim.runner import resolve_workers

    manifest: RunManifest | None = None
    skipped: tuple[str, ...] = ()
    if args.resume is not None:
        if args.out is not None:
            print(
                "--resume and --out are mutually exclusive (resume reuses "
                "the run directory it is given)",
                file=sys.stderr,
            )
            return 2
        try:
            manifest = RunManifest.load(args.resume)
        except ManifestError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if args.preset is not None and args.preset != manifest.preset:
            print(
                f"--preset {args.preset!r} conflicts with the manifest's "
                f"preset {manifest.preset!r}; omit --preset when resuming",
                file=sys.stderr,
            )
            return 2
        if args.seed is not None and args.seed != manifest.seed:
            print(
                f"--seed {args.seed} conflicts with the manifest's seed "
                f"{manifest.seed}; omit --seed when resuming",
                file=sys.stderr,
            )
            return 2
        if set(manifest.names()) != set(registry.names()):
            print(
                f"manifest in {args.resume} does not match this build's "
                f"experiment catalog; re-run from scratch with --out",
                file=sys.stderr,
            )
            return 2
        from repro.core.atomicio import TMP_SUFFIX

        leftovers = sorted(Path(args.resume).glob(f"*{TMP_SUFFIX}"))
        for tmp in leftovers:
            tmp.unlink()
        if leftovers:
            print(
                f"resume: removed {len(leftovers)} leftover temporary "
                "file(s) from an interrupted save"
            )
        preset = manifest.preset
        seed = manifest.seed
        out_dir = args.resume
        names = manifest.pending()
        skipped = manifest.completed()
        if skipped:
            print(
                f"resume: {len(skipped)} of {len(manifest.names())} "
                f"experiment(s) already complete, re-running {len(names)}"
            )
        if not names:
            print("resume: nothing to do; every artifact is complete and intact")
            return 0
    else:
        preset = args.preset or "full"
        seed = args.seed
        out_dir = args.out
        names = registry.names()
        if out_dir is not None:
            manifest = RunManifest.create(
                out_dir, preset=preset, seed=seed, names=names
            )

    outcomes_by_name: dict[str, tuple[bool, str]] = {}

    def record(name: str, ok: bool, text: str) -> None:
        """Fold in one outcome, updating the crash-safe ledger."""
        outcomes_by_name[name] = (ok, text)
        if manifest is not None:
            if ok:
                manifest.mark_done(name, Path(out_dir) / f"{name}.json")
            else:
                manifest.mark_failed(name, text)

    jobs = [(name, preset, seed, out_dir) for name in names]
    workers = min(resolve_workers(args.workers), len(jobs))
    if workers <= 1:
        for job in jobs:
            record(*_run_all_serial(*job))
    else:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_all_worker, *job): job[0] for job in jobs}
            for future in as_completed(futures):
                name = futures[future]
                try:
                    record(*future.result())
                except Exception as exc:  # noqa: BLE001 -- a dead worker is an outcome
                    record(
                        name, False, f"worker crashed: {type(exc).__name__}: {exc}"
                    )

    for name in names:
        ok, text = outcomes_by_name[name]
        if ok:
            print(text)
        else:
            print(f"==== {name} ====\nFAILED: {text}")
        print()
    failures = [name for name in names if not outcomes_by_name[name][0]]
    print(f"ran {len(names)} experiments, preset {preset!r}:")
    for name in names:
        print(f"  {'PASS' if outcomes_by_name[name][0] else 'FAIL'}  {name}")
    if skipped:
        print(f"  (and {len(skipped)} already complete, skipped)")
    if failures:
        print(f"{len(failures)} failed: {', '.join(failures)}", file=sys.stderr)
        if manifest is not None:
            print(
                f"resume with: python -m repro run-all --resume {out_dir}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    import numpy as np

    from repro.gateway import (
        AsyncExcitationSource,
        Backpressure,
        Gateway,
        GatewayConfig,
        GatewayStats,
        Subscriber,
    )
    from repro.phy.protocols import Protocol
    from repro.sim.traffic import ExcitationSource

    seed = args.seed if args.seed is not None else 0
    try:
        for flag, value in (
            ("--tags", args.tags),
            ("--subscribers", args.subscribers),
            ("--rate", args.rate),
            ("--goal-kbps", args.goal_kbps),
        ):
            if not value >= 0:
                raise ValueError(f"{flag} must be >= 0")
        for flag, value in (("--rate", args.rate), ("--goal-kbps", args.goal_kbps)):
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be finite")
        config = GatewayConfig(
            seed=seed,
            keepalive_timeout_s=args.keepalive_timeout,
            queue_maxlen=args.queue_maxlen,
            decode_batch=args.decode_batch,
            decode_workers=args.decode_workers,
            drain_timeout_s=args.drain_timeout,
        )
        source = AsyncExcitationSource(
            [
                ExcitationSource(protocol=p, rate_pkts=args.rate, periodic=False)
                for p in Protocol
            ],
            duration_s=args.duration,
            rng=np.random.default_rng(seed),
            time_scale=args.time_scale,
            max_packets=args.max_packets,
        )
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    policy = Backpressure(args.policy)

    async def _serve() -> tuple[GatewayStats, list[int], list[str]]:
        gateway = Gateway(config)
        loop = asyncio.get_running_loop()
        try:
            # Ctrl-C asks the air loop to finish the current packet
            # and drain, instead of tearing the event loop down.
            loop.add_signal_handler(signal.SIGINT, gateway.request_stop)
        except NotImplementedError:  # pragma: no cover - non-POSIX loop
            pass
        for i in range(args.tags):
            await gateway.register_tag(f"tag-{i:03d}")
        delivered = [0] * args.subscribers

        async def _consume(index: int, sub: Subscriber) -> None:
            # End of stream is StopAsyncIteration inside the async for;
            # real consumer failures must reach the gather below.
            async for _event in sub:
                delivered[index] += 1

        consumers = [
            asyncio.ensure_future(_consume(j, gateway.subscribe(f"sub-{j}", policy=policy)))
            for j in range(args.subscribers)
        ]
        await gateway.assign_carrier(
            source.observed_rates(), goal_kbps=args.goal_kbps
        )
        stats = await gateway.serve(source)
        results = await asyncio.gather(*consumers, return_exceptions=True)
        errors = [
            f"sub-{j}: {type(r).__name__}: {r}"
            for j, r in enumerate(results)
            if isinstance(r, BaseException)
            and not isinstance(r, asyncio.CancelledError)
        ]
        return stats, delivered, errors

    stats, delivered, consumer_errors = asyncio.run(_serve())
    p50_ms = stats.latency_percentile_s(50) * 1e3
    p99_ms = stats.latency_percentile_s(99) * 1e3
    print(
        f"gateway: {args.tags} tag(s), {args.subscribers} subscriber(s), "
        f"policy {policy.value}"
    )
    print(
        f"  packets {stats.n_packets}  backscattered {stats.n_backscattered}  "
        f"collisions {stats.n_collisions}"
    )
    print(
        f"  decode latency p50 {p50_ms:.2f} ms  p99 {p99_ms:.2f} ms  "
        f"throughput {stats.packets_per_s():.1f} pkt/s"
    )
    print(f"  delivered per subscriber: {delivered}")
    print(
        f"  drops {stats.n_dropped_events}  tag evictions "
        f"{stats.n_tag_evictions}  subscriber evictions "
        f"{stats.n_subscriber_evictions}"
    )
    print(f"  drained clean: {stats.drained_clean}")
    from repro.core import loopwatch

    if loopwatch.enabled():
        print(
            f"  loopwatch: {stats.loopwatch_violations} violation(s), "
            f"{stats.loopwatch_slow_callbacks} slow callback(s), "
            f"max lag {stats.loopwatch_max_lag_s * 1e3:.2f} ms"
        )
    for err in consumer_errors:
        print(f"serve: consumer failed: {err}", file=sys.stderr)
    if args.require_clean and (
        not stats.drained_clean
        or stats.n_dropped_events
        or stats.n_tag_evictions
        or stats.n_subscriber_evictions
        or stats.loopwatch_violations
        or consumer_errors
    ):
        print("serve: --require-clean violated", file=sys.stderr)
        return 1
    return 0


def _cmd_show(path: str) -> int:
    from repro.experiments.artifacts import ArtifactError, ExperimentResult

    try:
        result = ExperimentResult.load(path)
    except FileNotFoundError:
        print(f"no such artifact: {path}", file=sys.stderr)
        return 2
    except ArtifactError as exc:
        print(f"cannot load {path}: {exc}", file=sys.stderr)
        return 2
    print(_render_result(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="multiscatter: multiprotocol backscatter reproduction",
    )
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list declared experiments (fast, no NumPy)")
    sub.add_parser("info", help="library and calibration summary")
    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help="experiment name (see 'list')")
    run_all_p = sub.add_parser("run-all", help="run every experiment")
    for p in (run_p, run_all_p):
        p.add_argument(
            "--preset",
            choices=_PRESETS,
            default=None,
            help="parameter preset (default: full; with --resume, the "
            "manifest's preset)",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            metavar="N",
            help="override the spec seed (seeded experiments only)",
        )
        p.add_argument(
            "--out",
            default=None,
            metavar="DIR",
            help="write <experiment>.json artifacts under DIR",
        )
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            metavar="N",
            help="worker processes (default: REPRO_WORKERS or 1); "
            "results are bit-identical for any worker count",
        )
    run_all_p.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="finish an interrupted run: re-run only experiments whose "
        "artifacts in DIR are missing, failed, or corrupt "
        "(DIR must hold a manifest.json from 'run-all --out')",
    )
    show_p = sub.add_parser("show", help="re-render a saved artifact")
    show_p.add_argument("artifact", help="path to an artifact .json")
    serve_p = sub.add_parser(
        "serve", help="host a live tag network (streaming gateway)"
    )
    serve_p.add_argument(
        "--tags", type=int, default=8, metavar="N", help="concurrent tags (default 8)"
    )
    serve_p.add_argument(
        "--subscribers", type=int, default=1, metavar="M",
        help="event-stream subscribers (default 1)",
    )
    serve_p.add_argument(
        "--duration", type=float, default=2.0, metavar="S",
        help="excitation schedule length in seconds (default 2.0)",
    )
    serve_p.add_argument(
        "--rate", type=float, default=100.0, metavar="PKTS",
        help="per-protocol excitation packet rate (default 100/s)",
    )
    serve_p.add_argument(
        "--max-packets", type=int, default=None, metavar="N",
        help="stop after N excitation packets",
    )
    serve_p.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="gateway + traffic seed (default 0)",
    )
    serve_p.add_argument(
        "--policy", choices=("block", "drop_oldest", "disconnect"),
        default="block", help="subscriber backpressure policy (default block)",
    )
    serve_p.add_argument(
        "--queue-maxlen", type=int, default=64, metavar="N",
        help="subscriber queue bound (default 64)",
    )
    serve_p.add_argument(
        "--decode-batch", type=int, default=1, metavar="N",
        help="pending receptions per decode dispatch; with decode "
        "workers, one executor hop carries them all (default 1)",
    )
    serve_p.add_argument(
        "--decode-workers", type=int, default=0, metavar="N",
        help="decode worker processes (0 = decode inline on the air "
        "loop; output is bit-identical at every worker count)",
    )
    serve_p.add_argument(
        "--time-scale", type=float, default=0.0, metavar="X",
        help="wall seconds per schedule second (0 = fast-forward, 1 = real time)",
    )
    serve_p.add_argument(
        "--goal-kbps", type=float, default=0.0, metavar="KBPS",
        help="application goodput goal for carrier assignment (default 0)",
    )
    serve_p.add_argument(
        "--keepalive-timeout", type=float, default=5.0, metavar="S",
        help="evict tags silent for S seconds (default 5)",
    )
    serve_p.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="S",
        help="shutdown grace for subscriber backlogs (default 5)",
    )
    serve_p.add_argument(
        "--require-clean", action="store_true",
        help="exit 1 unless the run drained cleanly with zero drops "
        "and zero evictions (CI smoke mode)",
    )

    args = parser.parse_args(argv)
    if getattr(args, "workers", None) is not None:
        from repro.sim.runner import validate_bounds

        try:
            validate_bounds(n_workers=args.workers, where="--workers")
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        # Publish through the shared knob so every module sees it.
        os.environ["REPRO_WORKERS"] = str(args.workers)
    if getattr(args, "seed", None) is not None:
        from repro.sim.runner import validate_bounds

        try:
            validate_bounds(seed=args.seed, where="--seed")
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    if args.command == "list":
        return _cmd_list()
    if args.command == "info":
        return _cmd_info()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "run-all":
        return _cmd_run_all(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "show":
        return _cmd_show(args.artifact)
    parser.print_help()
    return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
