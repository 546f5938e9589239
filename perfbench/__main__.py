"""Run one workload (or all four) and print its metrics, the JSON result last.

    python3 -m perfbench --workload analyze --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run repeats the workload's request list untraced
until ``--seconds`` are used and reports the end-to-end metrics, its times
scaled to a reference CPU speed (see ``speed``).  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  Each request's cost row goes to
``.perfbench/rows-<workload>-seed<seed>-trace<t>.jsonl`` and the spans of
traced passes to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from . import harness, speed, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 11
#: Speed probe at the end of each set-up interpreter, a fifth of its time.
SETUP_PROBE_S = 0.03
SETUP_CODE = f"""\
import sys
sys.path[:0] = sys.argv[1:3]
import gitgr.cli
from perfbench import speed, workloads
workloads.build(sys.argv[3], int(sys.argv[4]))
print(*speed.probe({SETUP_PROBE_S}))
"""

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    ("semistability.calls", "count"), ("semistability.self_s", "s"),
    ("semistability.subsets", "count"), ("semistability.pairs", "count"),
    ("semistability.pairs_used_ratio", "ratio"),
    ("weyl.calls", "count"), ("weyl.self_s", "s"), ("weyl.bruhat_tests", "count"),
    ("reps.calls", "count"), ("reps.self_s", "s"), ("reps.hilbert_calls", "count"),
    ("reps.calibration_attempts", "count"), ("reps.errors", "count"),
    ("plucker.calls", "count"), ("plucker.self_s", "s"), ("plucker.rank_rows", "count"),
    ("cli.calls", "count"), ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("quotient.calls", "count"), ("quotient.self_s", "s"),
    ("cohomology.calls", "count"), ("cohomology.self_s", "s"),
    ("cohomology.errors", "count"), ("trace.overhead_s", "s"),
)


def load_gitgr():
    """Import gitgr from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "gitgr" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gitgr sources under {SRC}")
    sys.path[:0] = [str(SRC)]
    import gitgr.cli  # what the gitgr command loads; the children need it
    if Path(gitgr.__file__).resolve().parent != SRC / "gitgr":
        raise SystemExit(f"perfbench: imported gitgr from {gitgr.__file__}, not {SRC}")
    return gitgr


def measure_setup(workload: str, seed: int) -> float:
    """Median scaled time of a fresh interpreter importing gitgr and building
    the list."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), str(ROOT), workload, str(seed)]
    subprocess.run(argv, check=True, cwd=ROOT, capture_output=True)  # may compile bytecode
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        out = subprocess.run(argv, check=True, cwd=ROOT, capture_output=True).stdout
        elapsed = time.perf_counter() - start
        seconds, chunks = out.split()
        times.append(speed.scaled(elapsed, (float(seconds), int(chunks))))
    return statistics.median(times)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled(record: dict, key: str) -> float:
    """A request's time at reference speed; raw if the child sent no probe."""
    return speed.scaled(record[key], record["probe"]) if record["probe"] else record[key]


class Run:
    """The passes of one workload run and their per-request records."""

    def __init__(self, gitgr, workload: str, seed: int, trace: bool):
        self.gitgr = gitgr
        self.workload = workload
        self.requests = workloads.build(workload, seed)
        self.passes = []        # (traced, [record per request])
        self.failures = []
        self.rows = []
        self.spans = []
        self.tag = f"{workload}-seed{seed}"
        self.trace = trace

    def run_pass(self, traced: bool) -> None:
        records = []
        for request in self.requests:
            outcome = harness.run_request(self.gitgr, request, traced)
            error = outcome.error or workloads.check(request, outcome.out)
            record = {"wall_s": outcome.wall_s, "cpu_s": outcome.cpu_s,
                      "peak_rss_mb": outcome.maxrss_kb / 1024,
                      "output_bytes": len(outcome.out), "error": error,
                      "probe": outcome.probe}
            if error:
                self.failures.append(f"{' '.join(request.argv)}: {error}")
            if outcome.trace is not None:
                totals = tracing.summarize(outcome.trace["spans"], outcome.trace["counts"])
                totals["cli.output_bytes"] = len(outcome.out)
                totals["semistability.pairs_printed"] = outcome.out.count(b"} <= {")
                record["layers"] = totals
                self.spans.append({"request": len(self.rows), "argv": request.argv,
                                   "spans": outcome.trace["spans"]})
            records.append(record)
            self.rows.append({
                "workload": self.workload, "pass": len(self.passes), "traced": traced,
                "argv": request.argv, "binom_n_r": math.comb(request.n, request.r),
                "degree": request.degree, **{k: v for k, v in record.items()
                                             if k != "layers"}})
        self.passes.append((traced, records))

    def measure(self, seconds: float) -> None:
        """Repeat passes while another one fits in ``seconds``."""
        start = time.perf_counter()
        durations = []
        while True:
            traced = self.trace and len(self.passes) % 2 == 1
            pass_start = time.perf_counter()
            self.run_pass(traced)
            durations.append(time.perf_counter() - pass_start)
            elapsed = time.perf_counter() - start
            enough = not self.trace or len(self.passes) >= 2
            if enough and elapsed + statistics.median(durations) > seconds:
                return

    def records(self, traced: bool) -> list:
        return [records for t, records in self.passes if t == traced]

    def end_to_end(self, setup_s: float) -> dict:
        """Scaled times: the mean over passes of the list's summed time for
        wall_s and cpu_s; percentiles over the list of each request's mean
        latency for the latencies."""
        passes = self.records(False)
        latencies = [statistics.fmean(scaled(p[i], "wall_s") for p in passes) * 1000
                     for i in range(len(self.requests))]
        return {
            "wall_s": sum(latencies) / 1000,
            "cpu_s": sum(scaled(r, "cpu_s") for p in passes for r in p) / len(passes),
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": percentile(latencies, 90),
            "peak_rss_mb": statistics.median(max(r["peak_rss_mb"] for r in p)
                                             for p in passes),
            "setup_s": setup_s,
        }

    def per_layer(self) -> dict:
        per_pass = []
        for records in self.records(True):
            totals = sum((r.get("layers", Counter()) for r in records), Counter())
            values = {name: totals[name] for name, unit in PER_LAYER if unit != "s"}
            for layer in tracing.LAYERS:
                values[layer + ".self_s"] = totals[layer + ".self_ns"] / 1e9
            values["semistability.pairs_used_ratio"] = (
                totals["semistability.pairs_printed"] / totals["semistability.pairs"]
                if totals["semistability.pairs"] else 0.0)
            values["reps.calibration_attempts"] = (
                totals["reps.calibration_attempts"] / totals["reps.calibrations"]
                if totals["reps.calibrations"] else 0.0)
            per_pass.append(values)
        metrics = {name: statistics.median(v[name] for v in per_pass)
                   for name, _ in PER_LAYER if name != "trace.overhead_s"}
        walls = {traced: statistics.fmean(sum(scaled(r, "wall_s") for r in p)
                                          for p in self.records(traced))
                 for traced in (False, True)}
        metrics["trace.overhead_s"] = walls[True] - walls[False]
        return metrics

    def write_outputs(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"rows-{self.tag}-trace{int(self.trace)}.jsonl", "w") as f:
            f.writelines(json.dumps(row) + "\n" for row in self.rows)
        if self.spans:
            with open(OUT_DIR / f"spans-{self.tag}.jsonl", "w") as f:
                f.writelines(json.dumps(entry) + "\n" for entry in self.spans)


def run_workload(gitgr, workload: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; print its table and return (metrics, attempted, failed)."""
    setup_s = None if trace else measure_setup(workload, seed)
    run = Run(gitgr, workload, seed, trace)
    run.measure(seconds)
    run.write_outputs()
    attempted = sum(len(records) for _, records in run.passes)
    failed = len(run.failures)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)

    units = dict(PER_LAYER if trace else END_TO_END)
    metrics = run.per_layer() if trace else run.end_to_end(setup_s)
    untraced = sum(1 for traced, _ in run.passes if not traced)
    print(f"{workload}: seed {seed}, {len(run.requests)} requests per pass, "
          f"{untraced} untraced and {len(run.passes) - untraced} traced passes")
    probes = [r["probe"] for _, records in run.passes for r in records if r["probe"]]
    if probes:
        chunk_ms = 1000 * sum(p[0] for p in probes) / sum(p[1] for p in probes)
        print(f"  host speed: {chunk_ms:.3f} ms per reference chunk in "
              f"{sum(p[1] for p in probes)} probes, "
              f"{1000 * speed.REFERENCE_CHUNK_S:.3f} ms nominal")
    requests = len(run.requests)
    notes = {"wall_s": f"mean of {untraced} passes",
             "cpu_s": f"mean of {untraced} passes",
             "peak_rss_mb": "median over passes of the largest child",
             "latency_p50_ms": f"{requests} requests, each the mean of {untraced} passes",
             "latency_p90_ms": f"{requests} requests, {(requests - 1) // 10} beyond it",
             "setup_s": f"median of {SETUP_REPEATS} fresh interpreters"}
    for name, value in metrics.items():
        print(f"  {name:32} {value:14.6g} {units[name]:6} {notes.get(name, '')}")
    print(f"  {'failed_share':32} {failed / attempted:14.6g} {'':6} "
          f"{failed} of {attempted} requests")
    return ({name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            attempted, failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    gitgr = load_gitgr()
    os.environ.pop("GITGR_MAX_ENUM", None)  # every request runs under the default cap
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        values, tried, bad = run_workload(gitgr, name, args.seed, args.seconds,
                                          bool(args.trace))
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + key: value for key, value in values.items()})
        attempted += tried
        failed += bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
