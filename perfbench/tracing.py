"""Spans around the public calls into each layer, installed from outside.

The traced run patches the module and class attributes through which
the program reaches each layer (see :data:`SYNC_TARGETS`) with wrappers
that time every call.  Nothing under ``src/`` knows about them, and the
values the program returns are passed through untouched.

Each process keeps its spans in memory as ``name -> [calls, inclusive
ns, self ns, items]``; self time is the inclusive time minus the time of
traced calls nested inside it.  Decode-pool workers are forked after
the wrappers are installed, so they trace too; after every decode group
a worker appends its spans to ``spans-<pid>.jsonl`` in the span
directory and clears them, and the parent merges those files.  Nothing
travels back through the gateway's own results.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable

PROTOCOLS = ("wifi_n", "wifi_b", "ble", "zigbee")

#: (span name, module, attribute path, items counter or None).  The
#: attribute is the binding the caller looks up at call time, e.g. the
#: ``score_capture`` imported into ``repro.core.identification``.
SYNC_TARGETS: list[tuple[str, str, str, Callable[..., int] | None]] = [
    ("stage", "repro.sim.pipeline", "AirlinkPipeline.excite_and_react", None),
    ("stage.excite", "repro.core.overlay", "OverlayCodec.build_carrier", None),
    ("stage.identify", "repro.core.identification", "ProtocolIdentifier.scores", None),
    ("stage.identify.rectifier", "repro.core.rectifier", "ClampRectifier.rectify", None),
    ("stage.identify.adc", "repro.core.adc", "Adc.capture", None),
    ("stage.identify.correlate", "repro.core.identification", "score_capture", None),
    ("stage.backscatter", "repro.core.tag_modulation", "TagModulator.modulate", None),
    (
        "stage.channel.shift",
        "repro.core.tag_modulation",
        "TagModulator.received_at_shifted_channel",
        None,
    ),
    ("stage.channel.awgn", "repro.sim.pipeline", "awgn", None),
    ("decode.inline", "repro.gateway.service", "decode_pending_many", None),
    ("decode.viterbi", "repro.phy.viterbi", "decode_batch", lambda a, k: len(a[0])),
    ("phy.viterbi.scalar", "repro.phy.viterbi", "decode", None),
    ("experiments.save", "repro.experiments.artifacts", "ExperimentResult.save_in", None),
]
for _p in PROTOCOLS:
    SYNC_TARGETS.append(
        (f"decode.demod.{_p}", f"repro.phy.{_p}", "demodulate_batch", lambda a, k: len(a[0]))
    )
    SYNC_TARGETS.append((f"phy.modulate.{_p}", f"repro.phy.{_p}", "modulate", None))


class Recorder:
    """Per-process span totals; a forked child starts from empty."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: dict[str, list[int]] = {}
        self.stack: list[int] = []

    def add(self, name: str, incl_ns: int, self_ns: int, items: int) -> None:
        s = self.spans.get(name)
        if s is None:
            s = self.spans[name] = [0, 0, 0, 0]
        s[0] += 1
        s[1] += incl_ns
        s[2] += self_ns
        s[3] += items


_REC = Recorder()
_SPAN_DIR: Path | None = None
_ORIGINALS: list[tuple[Any, str, Any]] = []
_worker_group: Callable[..., Any] | None = None


def recorder() -> Recorder:
    global _REC
    if _REC.pid != os.getpid():
        _REC = Recorder()
    return _REC


def _timed(name: str, fn: Callable[..., Any], items: Callable[..., int] | None) -> Any:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec = recorder()
        stack = rec.stack
        stack.append(0)
        t0 = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter_ns() - t0
            child = stack.pop()
            if stack:
                stack[-1] += dt
            rec.add(name, dt, dt - child, items(args, kwargs) if items else 0)

    return wrapper


class _BusyAwait:
    """Drives a coroutine and times only the steps it runs, not its waits."""

    def __init__(self, name: str, coro: Any) -> None:
        self.name = name
        self.coro = coro

    def __await__(self) -> Any:
        it = self.coro.__await__()
        busy = 0
        send: Any = None
        throw: BaseException | None = None
        try:
            while True:
                t0 = perf_counter_ns()
                try:
                    step = it.throw(throw) if throw is not None else it.send(send)
                except StopIteration as stop:
                    return stop.value
                finally:
                    busy += perf_counter_ns() - t0
                try:
                    send, throw = (yield step), None
                except BaseException as exc:  # delivered into the coroutine
                    send, throw = None, exc
        finally:
            recorder().add(self.name, busy, busy, 0)


def _busy_async(name: str, fn: Callable[..., Any]) -> Any:
    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        return await _BusyAwait(name, fn(*args, **kwargs))

    return wrapper


def traced_decode_worker_group(*args: Any, **kwargs: Any) -> Any:
    """Pool entry point: decode one group, then hand the spans to the parent.

    Module level so the executor can pickle it by reference; the forked
    worker finds the timed original and the span directory in this
    module's state.
    """
    assert _worker_group is not None and _SPAN_DIR is not None
    try:
        return _worker_group(*args, **kwargs)
    finally:
        rec = recorder()
        with open(_SPAN_DIR / f"spans-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps(rec.spans) + "\n")
        rec.spans = {}


def _pending_to_payload_sized(fn: Callable[..., Any]) -> Any:
    """Counts the pickled size of every payload sent to the decode pool."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        out = fn(*args, **kwargs)
        recorder().add("gateway.pool.payload_bytes", 0, 0, len(pickle.dumps(out)))
        return out

    return wrapper


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


_INHERITED = object()


def _patch(owner: Any, attr: str, new: Any) -> None:
    # An inherited method (ClampRectifier.rectify) is shadowed on the
    # subclass and deleted again on uninstall.
    _ORIGINALS.append((owner, attr, vars(owner).get(attr, _INHERITED)))
    setattr(owner, attr, new)


def install(span_dir: Path) -> None:
    """Wrap every layer entry point; :func:`uninstall` undoes it."""
    global _SPAN_DIR, _worker_group
    if _ORIGINALS:
        raise RuntimeError("tracing is already installed")
    _SPAN_DIR = span_dir
    span_dir.mkdir(parents=True, exist_ok=True)
    for name, module, path, items in SYNC_TARGETS:
        owner, attr = _resolve(module, path)
        _patch(owner, attr, _timed(name, getattr(owner, attr), items))

    service = importlib.import_module("repro.gateway.service")
    _worker_group = _timed(
        "decode.worker", service.decode_worker_group, lambda a, k: len(a[0])
    )
    _patch(service, "decode_worker_group", traced_decode_worker_group)
    _patch(service, "pending_to_payload", _pending_to_payload_sized(service.pending_to_payload))
    hub = importlib.import_module("repro.gateway.subscriptions").SubscriptionHub
    _patch(hub, "publish", _busy_async("gateway.publish", hub.publish))

    spec = importlib.import_module("repro.experiments.registry").ExperimentSpec
    run = spec.run

    @functools.wraps(run)
    def run_experiment(self: Any, *args: Any, **kwargs: Any) -> Any:
        return _timed(f"experiments.{self.name}", run, None)(self, *args, **kwargs)

    _patch(spec, "run", run_experiment)


def uninstall() -> None:
    while _ORIGINALS:
        owner, attr, original = _ORIGINALS.pop()
        if original is _INHERITED:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


def collect(span_dir: Path | None = None) -> dict[str, list[int]]:
    """This process's spans merged with every worker span file."""
    merged: dict[str, list[int]] = {}
    merge(merged, recorder().spans)
    if span_dir is not None and span_dir.is_dir():
        for path in sorted(span_dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                merge(merged, json.loads(line))
    return merged


def merge(total: dict[str, list[int]], more: dict[str, list[int]]) -> None:
    """Add the span totals ``more`` into ``total``."""
    for name, vals in more.items():
        cur = total.setdefault(name, [0] * len(vals))
        for i, v in enumerate(vals):
            cur[i] += v


def reset() -> None:
    recorder().spans = {}
