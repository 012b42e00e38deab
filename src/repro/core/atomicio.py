"""Crash-safe file writes.

A ``write_text`` interrupted mid-flight (``SIGKILL``, OOM, power loss)
leaves a truncated file *at the destination path*, which downstream
readers then mistake for a corrupt artifact.  Every durable output in
this repository (experiment artifacts, run manifests) goes through
:func:`atomic_write_text` instead: the bytes land in a uniquely named
temporary file in the *destination directory* (same filesystem, so the
final rename cannot cross a device boundary) and are published with
``os.replace``, which POSIX guarantees atomic.  A reader therefore
sees either the complete old content or the complete new content,
never a prefix.

Durability vs. speed: by default the data is atomic but not fsynced
(a kernel crash within the writeback window can still lose the -- whole,
never partial -- file).  Set ``REPRO_FSYNC=1`` to fsync the temporary
file and its directory before and after the rename, the full
crash-consistency dance.

The module instruments the gap between "temp file complete" and
"rename published" as the ``save`` fault site of
:mod:`repro.sim.faults`, the exact window a crash-mid-save test needs
to hit.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write_text", "fsync_enabled", "TMP_SUFFIX"]

#: Suffix of in-flight temporary files (leftovers indicate a crash).
TMP_SUFFIX = ".tmp"


def fsync_enabled() -> bool:
    """The fsync opt-in: ``REPRO_FSYNC`` set to anything but ``0``."""
    return os.environ.get("REPRO_FSYNC", "") not in ("", "0")


def _fsync_dir(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (parents created).

    On any failure the destination is untouched and the temporary file
    is removed; an interrupting crash can at worst leave a stray
    ``<name>.*.tmp`` alongside an intact destination.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=out.parent, prefix=out.name + ".", suffix=TMP_SUFFIX
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            if fsync_enabled():
                fh.flush()
                os.fsync(fh.fileno())
        if os.environ.get("REPRO_FAULTS", ""):
            # Lazy import: the fault harness lives with the runner and
            # is only consulted when injection is armed.
            from repro.sim.faults import check

            check("save", name=str(out))
        os.replace(tmp, out)
        if fsync_enabled():
            _fsync_dir(out.parent)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    return out
