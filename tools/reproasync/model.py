"""reproasync's rule catalog (``# reproasync: disable=C001`` pragmas)."""

from __future__ import annotations

__all__ = ["RULES"]

#: code -> one-line description (shown by ``--list-rules``; the full
#: catalog with rationale lives in docs/STATIC_ANALYSIS.md).
RULES: dict[str, str] = {
    "C001": (
        "blocking call reachable inside an async def without "
        "to_thread/executor hand-off"
    ),
    "C002": (
        "orphaned coroutine/task: spawned task dropped or gathered "
        "exceptions silently discarded"
    ),
    "C003": (
        "cancellation-unsafe resource: await between acquire and release "
        "without try/finally"
    ),
    "C004": (
        "async race: shared state read and written across an await "
        "boundary from multiple tasks without a lock"
    ),
    "C005": (
        "determinism-replay violation: seeded Generator drawn from "
        "multiple tasks, or a zero-draw guarantee dropped"
    ),
    "C006": "unbounded asyncio.Queue in a strict directory",
}
