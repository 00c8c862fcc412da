"""Steadiness report: run each workload N times and summarize spreads.

Usage (from the repository root)::

    python3 perfbench/steady.py --runs 10 [--first-seed 100]

It makes two sets of ``--runs`` runs per workload, the second right
after the first.  Runs are interleaved (one run of each workload per
pass), each with its own seed, each in a fresh process through
``run.py --trace 0``.  For every end-to-end metric and set it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and
IQR/median, and flags a metric whose spread exceeds its bound in
``BENCHMARK.json``; then it flags every metric whose second-set median
is worse than the first-set median by more than its bound.  The host-drift probe, a fixed pure-Python
loop timed before and after each run, is summarized the same way; it is
a diagnostic and never adjusts a metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ops as opsmod  # noqa: E402

#: two sets of runs: the acceptance check is that their medians agree
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=400)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{completed.returncode}: "
                           f"{completed.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# drift_probe"):
            fields = dict(part.split("=") for part in line.split()[2:4])
            result["drift"] = [float(fields["before"].rstrip("s")),
                               float(fields["after"].rstrip("s"))]
    return result


def summarize(name: str, values: List[float], bound: float) -> str:
    q1, median, q3 = opsmod.quartiles(values)
    spread = (q3 - q1) / median if median else 0.0
    flag = ""
    if bound and spread > bound:
        flag = "  OVER BOUND"
    elif bound and spread > bound / 3:
        flag = "  over a third of bound"
    return (f"  {name:<18} median {median:12.4f}  q1 {q1:12.4f}  "
            f"q3 {q3:12.4f}  IQR/median {spread:7.4f}  "
            f"bound {bound:5.3f}{flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    workloads = [workload["name"] for workload in spec["workloads"]]
    #: results[set][workload] -> one result per run
    results: List[Dict[str, List[Dict]]] = []
    for number in range(SETS):
        runs: Dict[str, List[Dict]] = {name: [] for name in workloads}
        for index in range(args.runs):
            seed = args.first_seed + number * args.runs + index
            for workload in workloads:
                result = run_once(workload, seed, spec["run_seconds"])
                runs[workload].append(result)
                values = " ".join(
                    f"{name}={result['metrics'][name]['value']:.4g}"
                    for name in metrics)
                print(f"set {number + 1} run {index + 1}/{args.runs} "
                      f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']} {values} drift="
                      f"{result['drift'][0]:.3f},{result['drift'][1]:.3f}",
                      flush=True)
        results.append(runs)
    failed = False
    for number, runs in enumerate(results):
        for workload, done in runs.items():
            print(f"set {number + 1}: {workload} ({len(done)} runs)")
            for name, metric in metrics.items():
                values = [run["metrics"][name]["value"] for run in done]
                line = summarize(name, values, metric["bound"])
                failed = failed or "OVER BOUND" in line
                print(line)
            for position, label in ((0, "drift_before"), (1, "drift_after")):
                values = [run["drift"][position] for run in done]
                print(summarize(label, values, 0.0))
            incorrect = sum(1 for run in done if not run["correct"])
            if incorrect:
                failed = True
                print(f"  {incorrect} run(s) reported failed ops")
    for number in range(1, len(results)):
        print(f"set {number + 1} against set 1 (worse by, as a share of "
              f"the set 1 median)")
        for workload in workloads:
            for name, metric in metrics.items():
                first, later = (statistics.median(
                    run["metrics"][name]["value"]
                    for run in results[which][workload])
                    for which in (0, number))
                worse = (later - first) / first
                if metric["better"] == "higher":
                    worse = -worse
                flag = "  WORSE THAN BOUND" if worse > metric["bound"] else ""
                failed = failed or bool(flag)
                print(f"  {workload:<20} {name:<18} {first:12.4f} -> "
                      f"{later:12.4f}  worse by {worse:+7.4f}  "
                      f"bound {metric['bound']:5.3f}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
