"""Steadiness check: repeat workloads over seeds and report each metric's spread.

    python3 -m perfbench.steady --runs 10 [--seconds 20] [--sets 2]

Each run is a separate ``python3 -m perfbench`` process with its own seed;
the seeds of each workload are 1, 2, 3 and so on across its sets.
For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound in BENCHMARK.json.  With ``--sets 2`` it repeats
the whole set and prints how far the second median moved from the first.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "-m", "perfbench", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed requests")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values) -> tuple:
    """(median, (q3 - q1) / median) as statistics.quantiles gives the quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.steady",
                                     description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default run_seconds from BENCHMARK.json")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = args.seconds or config["run_seconds"]
    for workload in WORKLOADS:
        medians = []
        seed = 1
        for index in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(workload, seed, seconds))
                seed += 1
            print(f"{workload} set {index + 1}: {args.runs} runs of {seconds} s")
            print(f"  {'metric':16} {'median':>12} {'IQR/median':>10} {'bound':>6} "
                  f"{'IQR/bound':>9} {'vs set 1':>9}")
            set_medians = {}
            for name in runs[0]:
                median, share = spread([run[name] for run in runs])
                set_medians[name] = median
                moved = f"{median / medians[0][name] - 1:+9.3f}" if medians else ""
                print(f"  {name:16} {median:12.6g} {share:10.3f} {bounds.get(name, 0):6.2f} "
                      f"{share / bounds[name] if name in bounds else 0:9.2f} {moved}")
            medians.append(set_medians)
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
