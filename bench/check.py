"""Steadiness and repeatability checks of the benchmark itself.

From the root of a checkout::

    python3 bench/check.py spread --workload small_solves --seeds 10
    python3 bench/check.py repeat --workload certify_targets --seed 3

``spread`` runs the untraced benchmark once per seed, one run at a time,
and prints for every end-to-end metric the median and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  ``repeat`` makes two
traced runs with the same seed and requires the machine-independent counts
to be equal; it also prints the tracing overhead of each run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        print(proc.stdout)
    return doc


def spread(args):
    seeds = range(args.seeds)
    worst = 0.0
    for workload in args.workload:
        docs = [run(workload, s, 0) for s in seeds]
        print(f"{workload}: seeds {seeds.start}..{seeds.stop - 1}, "
              f"correct={all(d['correct'] for d in docs)}, "
              f"failed/attempted={sum(d['failed'] for d in docs)}/{sum(d['attempted'] for d in docs)}")
        for metric in SPEC["end_to_end"]:
            values = [d["metrics"][metric["name"]]["value"] for d in docs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            worst = max(worst, share / metric["bound"])
            print(f"  {metric['name']:<12} median {med:.6g} {metric['unit']:<4} "
                  f"IQR/median {share:.4f} (bound {metric['bound']}, "
                  f"{share / metric['bound']:.2f} of it)  values {[round(v, 6) for v in values]}")
    print(f"largest spread: {worst:.2f} of its bound")


def repeat(args):
    from run import EXACT

    exact = EXACT + ("batch.failed_frac",)
    for workload in args.workload:
        first, second = (run(workload, args.seed, 1) for _ in range(2))
        differ = [n for n in exact if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
        overhead = [d["metrics"]["trace.overhead"]["value"] for d in (first, second)]
        print(f"{workload}: counts {'differ: ' + ', '.join(differ) if differ else 'repeat exactly'}; "
              f"trace.overhead {overhead[0]:.6g} ref and {overhead[1]:.6g} ref")
        for name, metric in first["metrics"].items():
            if metric["value"]:
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
        if differ:
            raise SystemExit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    names = [w["name"] for w in SPEC["workloads"]]
    for cmd in ("spread", "repeat"):
        p = sub.add_parser(cmd)
        p.add_argument("--workload", action="append", choices=names)
    sub.choices["spread"].add_argument("--seeds", type=int, default=10)
    sub.choices["repeat"].add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    args.workload = args.workload or names
    spread(args) if args.cmd == "spread" else repeat(args)


if __name__ == "__main__":
    main()
