"""Run one workload over several seeds and report each metric's spread.

    python3 benchmarks/spread.py --workload serve_rows --seeds 1-10 [--seconds 15]

For every metric prints the median over the runs, the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a share
of the median, and the bound from BENCHMARK.json; also the failed share of
the operations of each run. Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, shares = {}, []
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, "benchmarks/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.append(f"{result['failed']}/{result['attempted']}")
        line = [f"seed={seed}", f"correct={result['correct']}", f"failed={shares[-1]}"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            line.append(f"{name}={m['value']:.5g}")
        print(" ".join(line), flush=True)

    print(f"\n{'metric':<42} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<42} {med:>14.6g} {spread:>11.4f} {bound if bound else '':>6}")
    print(f"failed/attempted per run: {' '.join(shares)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
