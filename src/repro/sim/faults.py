"""Deterministic fault injection for robustness testing.

The recovery paths in :mod:`repro.core.atomicio` (crash-safe artifact
writes behind ``run-all --resume``) and :mod:`repro.gateway` (decode
worker crashes and hangs, stalled subscribers, crashed tag tasks) are
only trustworthy if tests can *force* each failure mode on demand.
This module is that switch: a tiny, fully deterministic harness driven
by the ``REPRO_FAULTS`` environment variable, so faults propagate
unchanged into pool workers and CLI subprocesses and the same spec
always fails the same site on the same attempt.

Spec grammar (semicolon-separated entries)::

    REPRO_FAULTS = entry [ ";" entry ]*
    entry        = kind ":" key "=" value [ "," key "=" value ]*

``kind`` selects the action at the matched site:

============  ======================================================
``raise``     raise :class:`FaultInjected`
``hang``      ``time.sleep(hang_s)`` (default 30 s) -- a stuck worker
``kill``      ``os._exit(13)`` -- a hard crash, no cleanup, no excuse
============  ======================================================

Keys:

``site``      required; one of ``save``, ``gateway``, ``decode``
``index``     integer; fire only at this index (the batch dispatch
              counter for ``decode`` sites)
``name``      substring matched against the site name (e.g. the
              artifact path for ``save`` sites, or a decode hop's
              protocol label such as ``WIFI_N,BLE,ZIGBEE``)
``attempts``  fire only while ``attempt <= attempts`` (default 1), so
              a resubmitted decode batch succeeds once the budget is
              spent
``hang_s``    sleep duration for ``hang`` faults, in seconds

Examples::

    REPRO_FAULTS="kill:site=decode,index=1,attempts=1"
    REPRO_FAULTS="hang:site=decode,index=0,attempts=1,hang_s=60"
    REPRO_FAULTS="kill:site=decode,name=ZIGBEE"
    REPRO_FAULTS="kill:site=save,name=fig15_occlusion"

Instrumented code calls :func:`check` at each site; with the
environment variable unset this is a dictionary lookup and a return.
:func:`install`/:func:`clear` set/unset the variable for the current
process tree, which keeps the environment the single source of truth
(no module globals, so fault checks stay fork-safe and side-effect
free in workers).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

__all__ = [
    "FaultInjected",
    "FaultSpecError",
    "FaultSpec",
    "ENV_VAR",
    "SITES",
    "KINDS",
    "check",
    "check_async",
    "clear",
    "install",
    "parse_spec",
]

#: The one knob: a fault spec string (see module docstring).
ENV_VAR = "REPRO_FAULTS"

#: Sites instrumented code may pass to :func:`check`.
#: ``gateway`` sites live inside the asyncio service
#: (:mod:`repro.gateway`): subscriber delivery stalls and tag-task
#: crashes are forced through the same grammar, with names like
#: ``tag:<tag_id>`` and ``subscriber:<name>``.  ``decode`` sites run
#: inside the gateway's decode worker pool
#: (:func:`repro.sim.pipeline.decode_worker_group`): ``kill`` models a
#: crashed decode worker, ``hang`` a stuck one; ``index`` is the batch
#: dispatch counter and ``name`` the hop's protocol label (the
#: protocols of its receptions in first-seen order, joined by commas).
SITES = ("save", "gateway", "decode")

#: Supported fault actions.
KINDS = ("raise", "hang", "kill")


class FaultInjected(RuntimeError):
    """The failure deliberately raised by a ``raise`` fault."""


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` value that does not parse."""


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault entry."""

    kind: str
    site: str
    index: int | None = None
    name: str | None = None
    attempts: int = 1
    hang_s: float = 30.0

    def matches(
        self,
        site: str,
        *,
        index: int | None,
        name: str | None,
        attempt: int,
    ) -> bool:
        if self.site != site or attempt > self.attempts:
            return False
        if self.index is not None and self.index != index:
            return False
        if self.name is not None and (name is None or self.name not in name):
            return False
        return True


def _parse_entry(text: str) -> FaultSpec:
    kind, _, body = text.partition(":")
    kind = kind.strip()
    if kind not in KINDS:
        raise FaultSpecError(
            f"unknown fault kind {kind!r} in {text!r}; expected one of {KINDS}"
        )
    fields: dict[str, str] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        if not sep:
            raise FaultSpecError(f"malformed fault field {item!r} in {text!r}")
        fields[key.strip()] = value.strip()
    site = fields.pop("site", "")
    if site not in SITES:
        raise FaultSpecError(
            f"fault entry {text!r} needs site=<{'|'.join(SITES)}>, got {site!r}"
        )
    try:
        index = int(fields.pop("index")) if "index" in fields else None
        attempts = int(fields.pop("attempts", "1"))
        hang_s = float(fields.pop("hang_s", "30"))
    except ValueError as exc:
        raise FaultSpecError(f"non-numeric fault field in {text!r}: {exc}") from None
    name = fields.pop("name", None)
    if fields:
        raise FaultSpecError(
            f"unknown fault field(s) {sorted(fields)} in {text!r}"
        )
    if attempts < 1:
        raise FaultSpecError(f"attempts must be >= 1 in {text!r}")
    return FaultSpec(
        kind=kind, site=site, index=index, name=name, attempts=attempts, hang_s=hang_s
    )


def parse_spec(text: str) -> tuple[FaultSpec, ...]:
    """Parse a full ``REPRO_FAULTS`` value (may hold several entries)."""
    return tuple(
        _parse_entry(entry)
        for entry in text.split(";")
        if entry.strip()
    )


def install(spec: str) -> tuple[FaultSpec, ...]:
    """Install ``spec`` for this process tree (validates it first)."""
    parsed = parse_spec(spec)
    os.environ[ENV_VAR] = spec
    return parsed


def clear() -> None:
    """Remove any installed fault spec."""
    os.environ.pop(ENV_VAR, None)


def check(
    site: str,
    *,
    index: int | None = None,
    name: str | None = None,
    attempt: int = 1,
) -> None:
    """Fire any installed fault matching this site.  No-op otherwise.

    ``raise`` faults raise :class:`FaultInjected`; ``hang`` faults
    sleep; ``kill`` faults terminate the process without cleanup
    (simulating ``SIGKILL``).  A malformed spec raises
    :class:`FaultSpecError` loudly rather than silently disabling
    injection.
    """
    text = os.environ.get(ENV_VAR, "")
    if not text:
        return
    for fault in parse_spec(text):
        if not fault.matches(site, index=index, name=name, attempt=attempt):
            continue
        where = f"{site}[{index if index is not None else name or '*'}]"
        if fault.kind == "raise":
            raise FaultInjected(
                f"injected fault at {where} (attempt {attempt})"
            )
        if fault.kind == "hang":
            time.sleep(fault.hang_s)
        elif fault.kind == "kill":
            os._exit(13)


async def check_async(site: str, *, name: str | None = None) -> None:
    """:func:`check` for coroutine sites (the gateway's event loop),
    which have a name, no index, and one attempt.

    ``hang`` faults must not block the loop -- a synchronous
    ``time.sleep`` would freeze every tag task and subscriber at once,
    which is not the failure being modeled (one stuck participant).
    They ``await asyncio.sleep`` instead; ``raise``/``kill`` behave as
    in :func:`check`.
    """
    import asyncio

    text = os.environ.get(ENV_VAR, "")
    if not text:
        return
    for fault in parse_spec(text):
        if not fault.matches(site, index=None, name=name, attempt=1):
            continue
        if fault.kind == "raise":
            raise FaultInjected(f"injected fault at {site}[{name or '*'}] (attempt 1)")
        if fault.kind == "hang":
            await asyncio.sleep(fault.hang_s)
        elif fault.kind == "kill":
            os._exit(13)
