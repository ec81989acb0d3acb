"""Every end-to-end metric of every workload, by name and unit, in one table.

    python3 bench/report.py [--seed 1]

Runs bench/run.py once per workload, one after the other, for the
``run_seconds`` that BENCHMARK.json sets, and prints one line per metric
plus each workload's fail_rate (failed over attempted operations) and
artifact digest. Exits 1 if any workload's outputs were wrong.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import gen

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    ok = True
    for workload in gen.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=BENCH.parent,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload:15} did not run: {done.stderr.strip()}")
            ok = False
            continue
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            if line.startswith(("artifact digest", "FAILED", "run_s ", "records_per_s", "ref_s", "setup_wall_s")):
                print(f"{workload:15} {line}")
        for name, metric in result["metrics"].items():
            print(f"{workload:15} {name:34} {metric['value']:14.6g} {metric['unit']}")
        print(f"{workload:15} {'fail_rate':34} {result['failed'] / result['attempted']:14.6g} "
              f"ratio ({result['failed']}/{result['attempted']})")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
