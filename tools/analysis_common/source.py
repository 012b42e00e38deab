"""Reading a Python source file the way every analyzer does."""

from __future__ import annotations

__all__ = ["read_source"]


def read_source(path: str) -> str:
    """The text of ``path``, decoded as UTF-8 with universal newlines.

    A file that is not valid UTF-8 raises :class:`SyntaxError` at the
    line of its first bad byte, so each analyzer reports it as the parse
    error it is (exit 2) rather than crashing.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise SyntaxError(f"not valid UTF-8 ({exc.reason})", (path, line, 1, None)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
