"""Summarize benchmark run logs into perfbench/BASELINE.json.

Each log is the standard output of one ``perfbench/run.py`` run, saved as
``<workload>-<seed>.txt`` (untraced) or ``<workload>-<seed>-trace.txt``
(traced).  Usage, from the repository root:

    python3 perfbench/baseline.py <log directory> <commit>

The summary gives, per workload, the median and quartiles of every
end-to-end metric over the untraced runs, the per-layer metrics of the
traced runs, and the machine the runs were made on.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }
    try:
        lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return info
    for line in lscpu.splitlines():
        key, _, value = line.partition(":")
        names = {"Model name": "cpu_model", "L1d cache": "l1d_cache",
                 "L2 cache": "l2_cache", "L3 cache": "l3_cache"}
        if key.strip() in names:
            info[names[key.strip()]] = value.strip()
    return info


def summarize(logs: Path) -> tuple[dict, dict]:
    e2e = defaultdict(lambda: defaultdict(list))
    layer = defaultdict(lambda: defaultdict(list))
    for path in sorted(logs.glob("*.txt")):
        workload, _, rest = path.stem.partition("-")
        result = json.loads(path.read_text().strip().splitlines()[-1])
        target = layer if rest.endswith("-trace") else e2e
        for name, m in result["metrics"].items():
            target[workload][name].append(m["value"])
    out_e2e = {}
    for workload, metrics in sorted(e2e.items()):
        out_e2e[workload] = {}
        for name, values in sorted(metrics.items()):
            q1, med, q3 = statistics.quantiles(values, n=4)
            out_e2e[workload][name] = {
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "iqr_over_median": (q3 - q1) / statistics.median(values),
                "runs": len(values),
            }
    out_layer = {
        workload: {name: statistics.median(v) for name, v in sorted(metrics.items())}
        for workload, metrics in sorted(layer.items())
    }
    return out_e2e, out_layer


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    e2e, layer = summarize(Path(argv[0]))
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    doc = {
        "commit": argv[1],
        "run_seconds": spec["run_seconds"],
        "machine": machine(),
        "end_to_end": e2e,
        "per_layer": layer,
    }
    (HERE / "BASELINE.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
