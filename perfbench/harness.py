"""Shared plumbing for the benchmark: locating and importing the sources,
starting fresh interpreters, statistics, the per-analysis time limit and
the reference loop that measures the host's current speed.

Nothing here imports the tracer; ``run.py`` loads it only for ``--trace 1``.
"""
from __future__ import annotations

import hashlib
import importlib
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MODULES = (
    "multiset", "terms", "existential", "shlin_omega", "shlin2", "shlin_sl",
    "oracle", "analyzer", "cli",
)


class MissingSources(Exception):
    """The checkout holds no ``src/sharlin`` package to measure."""


def require_sources() -> None:
    if not (SRC / "sharlin" / "__init__.py").is_file():
        raise MissingSources(f"no sharlin package under {SRC}")
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)


def load_sharlin() -> SimpleNamespace:
    """Import every sharlin module afresh and return them by short name."""
    for name in [m for m in sys.modules if m == "sharlin" or m.startswith("sharlin.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("sharlin")
    return SimpleNamespace(
        **{m: importlib.import_module(f"sharlin.{m}") for m in MODULES}
    )


def rebind(original, replacement) -> None:
    """Replace a function in every loaded sharlin namespace that holds it."""
    for modname, module in list(sys.modules.items()):
        if modname != "sharlin" and not modname.startswith("sharlin."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_python(args: list[str], timeout: float = 60.0) -> tuple[float, subprocess.CompletedProcess]:
    """Run a fresh interpreter from the checkout root; returns (seconds, process)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=timeout,
    )
    return time.perf_counter() - t0, proc


def median(values) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail_percentile(n: int, want: int = 90) -> int:
    """The highest percentile up to ``want`` with at least ten samples
    beyond it (never below the median)."""
    p = want
    while p > 50 and n * (100 - p) / 100 < 10:
        p -= 1
    return p


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


class LimitHit(BaseException):
    """Raised by SIGALRM inside a call that ran past its time limit.

    A BaseException so no handler in the measured code can swallow it.
    """


def _on_alarm(signum, frame):
    raise LimitHit()


def call_with_limit(fn, limit_s: float):
    """Run ``fn()`` with a wall-clock limit; raises LimitHit when it expires."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


REF_NOMINAL_S = 0.0008  # the reference loop on the 2-core box the benchmark was set on


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python work that builds, hashes
    and sorts small containers, as sharlin does: the host's current speed.

    Timings divided by this stay comparable when the host slows down or
    speeds up (on a shared 2-core box the same work drifts by a quarter or
    more within seconds), which wall-clock time alone cannot show.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(600):
        key = tuple(sorted(frozenset((i % 7, i % 11, i % 13, i % 17))))
        table[key] = table.get(key, 0) + len(key)
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
    }
