"""Timing statistics, the in-memory span recorder and small shared helpers."""

from __future__ import annotations

import cmath
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import wofz

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# working files (CLI outputs, span dumps) stay inside the checkout
WORK = ROOT / ".perfbench"

# relative deviation from the reference allowed at points outside the
# known-defect regimes before a run counts as incorrect
REL_GATE = 1e-7
# values below the smallest normal double are compared absolutely
TINY = 2.2250738585072014e-308

clock = time.perf_counter_ns

# Host speed calibration.  The host this was built on alternates between
# a fast and a slow state many times a second (the slow one ~1.7x slower,
# 10-70 % of the time, varying over minutes), so a plain time measures
# mostly how long the host was slow.  A fixed block of work that never
# touches the package (complex arithmetic, cmath and scalar
# scipy.special.wofz calls, the kinds of work a closed-form evaluation
# does; it slows down by the same factor as h2 does) is timed for 3 % of
# every operation's time, right after the operation.  A mean time scaled
# by CAL_REF_NS / (the blocks' mean time) is what it would have been on a
# host that ran the block in CAL_REF_NS, the reference host's fast state.
# README.md gives the measurements behind this.
CAL_ITERATIONS = 300
CAL_REF_NS = 330_000.0
CAL_EVERY_NS = 10_000_000


def calibration_block() -> int:
    """Nanoseconds the fixed calibration block takes right now."""
    t0 = clock()
    acc = 0j
    z = complex(0.3, 0.7)
    for k in range(CAL_ITERATIONS):
        w = cmath.sqrt(z * z + 4j * (k % 7 + 1))
        t = 0.5 * (z + w)
        acc += complex(wofz(t)) / (2.0 * w)
        acc += math.exp(-abs(t.real)) * (1.0 if acc.real >= 0 else -1.0)
    return clock() - t0


# The same idea for child processes, whose speed the in-process block does
# not follow: a child that imports numpy and scipy.special but not the
# package runs after every measured child.  CAL_CHILD_REF_NS is its time
# in the reference host's fast state.
CAL_CHILD_CODE = "import numpy, scipy.special"
CAL_CHILD_REF_NS = 450_000_000.0


def child_calibration_block() -> int:
    wall, proc = run_child(["-c", CAL_CHILD_CODE])
    if proc.returncode != 0:
        raise RuntimeError(f"calibration child failed: {proc.stderr.strip()[:300]}")
    return int(wall * 1e9)


class Calibration:
    """Calibration blocks, one per every_ns of measured operation time.

    every_ns = 0 runs one block after every operation.
    """

    def __init__(self, block=calibration_block, ref_ns: float = CAL_REF_NS,
                 every_ns: int = CAL_EVERY_NS):
        self.block, self.ref_ns, self.every_ns = block, ref_ns, every_ns
        self.samples: list[int] = []
        self._owed = 0

    def owe(self, ns: int) -> None:
        """Account for ns of operation time; run the blocks it has earned."""
        if not self.every_ns:
            self.samples.append(self.block())
            return
        self._owed += ns
        while self._owed >= self.every_ns:
            self.samples.append(self.block())
            self._owed -= self.every_ns

    def merged(self, other: "Calibration") -> "Calibration":
        both = Calibration(self.block, self.ref_ns, self.every_ns)
        both.samples = self.samples + other.samples
        return both

    def scale(self) -> float:
        """Factor that puts a mean time measured in this run on the reference host."""
        if not self.samples:
            self.samples.append(self.block())
        return self.ref_ns / float(np.mean(self.samples))

    def line(self) -> str:
        return (f"host calibration: block mean {np.mean(self.samples) / 1e3:.6g} us over "
                f"{len(self.samples)} blocks (reference {self.ref_ns / 1e3:.6g} us), "
                f"times scaled by {self.scale():.4f}")


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def run_child(args: list[str], timeout: float = 120.0) -> tuple[float, subprocess.CompletedProcess]:
    """Run one Python child to completion: (wall seconds, completed process)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return time.perf_counter() - t0, proc


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / max(abs(ref), TINY)


def tail_rank(n: int) -> float:
    """Highest percentile with at least ten samples beyond it, capped at 99.

    With fewer than 20 samples no percentile at or above the median has
    ten beyond it; the tail is then the maximum (reported as 100).
    """
    if n < 20:
        return 100.0
    return min(99.0, 100.0 * (1.0 - 10.0 / n))


def percentile(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def peak_rss_mb(children: bool = False) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked.

    failed counts operations outside the stated known-defect regimes
    that went wrong (unexpected exception, wrong value, wrong exit code,
    failed verify check); problems inside those regimes are measured by
    the check.* figures instead.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)


class Tracer:
    """Spans (id, parent, name, start_ns, end_ns) kept in memory.

    Only the first ``limit`` spans are stored for the dump; every span is
    still counted and its duration kept per name, so aggregates are exact.
    """

    def __init__(self, limit: int = 100_000):
        self.limit = limit
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.samples: dict[str, list[int]] = {}
        self.cal = Calibration()
        self._last = 0

    def new_id(self) -> int:
        self._last += 1
        return self._last

    def record(self, name: str, start: int, end: int, parent: int = 0, sid: int = 0) -> int:
        """Store a finished span; pass sid from new_id() if children used it."""
        sid = sid or self.new_id()
        if len(self.spans) < self.limit:
            self.spans.append((sid, parent, name, start, end))
        self.samples.setdefault(name, []).append(end - start)
        self.cal.owe(end - start)
        return sid

    def count(self, name: str) -> int:
        return len(self.samples.get(name, ()))

    def total_ns(self, name: str) -> int:
        return int(sum(self.samples.get(name, ())))

    def cost_us(self, name: str) -> float:
        """Mean span duration in microseconds, calibrated; 0 without spans."""
        s = self.samples.get(name)
        return float(np.mean(s)) * self.cal.scale() / 1e3 if s else 0.0

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        summary = {
            name: {
                "count": len(s),
                "total_ms": sum(s) / 1e6,
                "median_us": float(np.median(s)) / 1e3,
                "mean_us": float(np.mean(s)) / 1e3,
            }
            for name, s in sorted(self.samples.items())
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    **extra,
                    "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
                    "recorded": self._last,
                    "calibration_scale": self.cal.scale(),
                    "stored": len(self.spans),
                    "summary": summary,
                    "spans": self.spans,
                },
                fh,
            )
