"""B001/B002: build products tracked by git.

Committed ``.pyc`` files are both noise and a reproducibility hazard
(stale bytecode can shadow edited sources on some import paths), and
committed packaging metadata (``*.egg-info``) drifts out of sync with
``pyproject.toml`` the moment dependencies change, so CI fails if
either reappears.  Silently returns no findings when git is
unavailable or the directory is not a work tree — the rules guard the
repository, not arbitrary file sets.
"""

from __future__ import annotations

import subprocess

from tools.analysis_common import Finding

__all__ = ["check_tracked_bytecode"]

_PATTERNS = ("*.pyc", "*.pyo", "*$py.class", "__pycache__")
_EGG_INFO_PATTERNS = ("*.egg-info", "*.egg-info/*")

_B002_MESSAGE = (
    "packaging metadata (egg-info) is tracked by git; "
    "`git rm --cached` it and rely on .gitignore"
)


def _tracked(repo_root: str, patterns: tuple[str, ...]) -> list[str]:
    try:
        proc = subprocess.run(
            ["git", "ls-files", "-z", "--", *patterns],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return []
    if proc.returncode != 0:
        return []
    return sorted(p for p in proc.stdout.split("\0") if p)


def check_tracked_bytecode(repo_root: str = ".") -> list[Finding]:
    findings = []
    for path in _tracked(repo_root, _PATTERNS):
        findings.append(
            Finding(
                path=path,
                line=1,
                col=1,
                code="B001",
                message="compiled bytecode is tracked by git; "
                "`git rm --cached` it and rely on .gitignore",
            )
        )
    for path in _tracked(repo_root, _EGG_INFO_PATTERNS):
        findings.append(
            Finding(
                path=path,
                line=1,
                col=1,
                code="B002",
                message=_B002_MESSAGE,
            )
        )
    return findings
