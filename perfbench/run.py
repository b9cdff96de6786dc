"""Benchmark entry point for the relvoigt package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload point_eval --seed 1 --seconds 20 --trace 0

``--workload all`` runs the four workloads one after another.  Each run
prints its metrics by name with their units, then, as its last line, one
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced run reports the per-layer ones and writes its spans to
``.perfbench/spans-<workload>-<seed>.json``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_LAUNCHES = 5
# the fresh interpreter's job: import the package and return one h2 value
SETUP_CODE = "from relvoigt import h2; print(repr(h2(0.5, 1.0, -1.0).value))"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep_mix", "point_eval", "verify_all", "cli_mix", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup():
    """Wall seconds from a fresh interpreter to its first h2 result.

    One discarded launch first, so compiled bytecode is in place as it is
    for any installed package; the children run one at a time, each
    followed by a calibration child as in cli_mix.  Returns the launch
    times and the calibration.
    """
    import relvoigt
    from common import CAL_CHILD_REF_NS, Calibration, child_calibration_block, run_child

    want = repr(relvoigt.h2(0.5, 1.0, -1.0).value)
    cal = Calibration(child_calibration_block, CAL_CHILD_REF_NS, every_ns=0)
    times = []
    for k in range(SETUP_LAUNCHES + 1):
        wall, proc = run_child(["-c", SETUP_CODE])
        if proc.returncode != 0 or proc.stdout.strip() != want:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[:300]}")
        if k:
            times.append(wall)
            cal.owe(0)
    return times, cal


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from common import WORK, Tracer

    print(f"== {workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    setup, setup_cal = ([], None) if trace else measure_setup()
    tr = Tracer() if trace else None
    t0 = time.perf_counter()
    out = workloads.run(workload, seed, seconds, tr)
    wall = time.perf_counter() - t0
    if trace:
        metrics = out.layer
        path = WORK / f"spans-{workload}-{seed}.json"
        tr.dump(path, {"workload": workload, "seed": seed, "seconds": seconds})
        out.lines.append(f"span dump: {path.relative_to(HERE.parent)} "
                         f"({tr.new_id() - 1} spans)")
    else:
        metrics = dict(out.metrics)
        metrics["setup_s"] = (statistics.median(setup) * setup_cal.scale(), "s")
        out.lines.append("setup_s launches (uncalibrated): "
                         + ", ".join(f"{s:.4f}" for s in setup))
        out.lines.append("setup_s " + setup_cal.line())
    for line in out.lines:
        print(line)
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name} = {value:.6g} {unit}")
    for text in out.problems:
        print(f"problem: {text}")
    print(f"run wall {wall:.1f} s")
    return {
        "correct": out.failed == 0 and not out.problems,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relvoigt" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    seed = args.seed % 2**32
    names = (
        ("sweep_mix", "point_eval", "verify_all", "cli_mix")
        if args.workload == "all"
        else (args.workload,)
    )
    for name in names:
        result = run_one(name, seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
