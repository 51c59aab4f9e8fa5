"""Tracing overhead: a traced run's end-to-end figures minus an untraced run's.

Usage (from the repository root):

    python3 perfbench/overhead.py --workload road|social [--seed N]

Runs ``perfbench/run.py`` on the same workload and seed, first with
``--trace 0`` and then with ``--trace 1``, and prints each end-to-end
metric from both runs and their difference.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
METRICS = ("setup_s", "tables_s", "wallclock_s", "peak_rss_mb")


def run(workload: str, seed: int | None, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("road", "social"))
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args()
    plain = run(args.workload, args.seed, 0)
    traced = run(args.workload, args.seed, 1)
    for name in METRICS:
        a, b = plain[name]["value"], traced[f"traced.{name}"]["value"]
        print(
            f"{name:12s} untraced {a:9.2f}  traced {b:9.2f}  "
            f"overhead {b - a:+8.2f} {plain[name]['unit']} ({100 * (b - a) / a:+.1f} %)"
        )


if __name__ == "__main__":
    main()
