"""Host fingerprint of a benchmark result, and the rule for comparing two.

Timings from hosts that differ in core count, CPU model, BLAS library or BLAS
thread setting, Python version or hash seed are not comparable;
:func:`mismatches` names the facts on which two results differ, and
``compare.py`` refuses to compare them.  The commit is recorded too; it is
expected to differ between a base and a head run and takes no part in the
comparison.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, List, Optional

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HOST_FACTS = (
    "nproc", "cpu_model", "blas", "blas_threads", "python", "pythonhashseed",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> str:
    try:
        import numpy
    except ImportError:
        return "none"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def fingerprint(root: Path, env: Dict[str, str]) -> Dict[str, Any]:
    """Host facts plus the program's identity, for ``env`` as children see it."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "blas_threads": {name: env.get(name) for name in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "pythonhashseed": env.get("PYTHONHASHSEED"),
        "commit": _commit(root),
    }


def mismatches(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Host facts on which two fingerprints differ."""
    return [fact for fact in HOST_FACTS if a.get(fact) != b.get(fact)]
