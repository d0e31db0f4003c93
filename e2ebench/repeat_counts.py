"""Check that every count metric of the traced run repeats exactly.

    python3 e2ebench/repeat_counts.py [--seed N] [WORKLOAD ...]

Runs ``run.py --trace 1`` twice per workload, each in a fresh
interpreter, and lists every per-layer metric with unit ``count`` whose
two values differ.  Exits 1 when one does.  ``run.py`` pins the
string-hash seed, so a difference means a count depends on something
else in the process.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--trace", "1"], capture_output=True, text=True, check=True, timeout=300)
    metrics = json.loads(out.stdout.splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("workload", nargs="*", default=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload:
        first, second = (traced_counts(workload, args.seed) for _ in range(2))
        differ = sorted(k for k in first if first[k] != second[k])
        print("%-18s %d count metrics, %s" % (
            workload, len(first),
            "all repeat" if not differ else "differ: " + ", ".join(
                "%s %s vs %s" % (k, first[k], second[k]) for k in differ)))
        status |= bool(differ)
    return status


if __name__ == "__main__":
    sys.exit(main())
