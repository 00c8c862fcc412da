"""The repository benchmark: three workloads, output-checked, layer-traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload perf-sim --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --update-golden [--workload NAME]

Workloads (definitions and their reasons are in ``workloads.json``):

* ``perf-sim`` — cold timing-model figure cells through
  ``repro.analysis.perfrun`` on binaries compiled during set-up.
* ``security-toolchain`` — one program per op from source to verdicts:
  compile, Galileo mining on both ISAs, the fig3/fig4/table2 gadget
  analysis, ``verify_binary``, ``transpile_binary`` plus a native
  exec-parity check, and ``jitrop_surface``.
* ``serve-mixed`` — a closed loop of 2 clients against a ``repro serve``
  daemon: replays of settled ids, artifact-cache hits and fresh work.

Every run issues a fixed op sequence made from ``--seed``
(``ops.py``); ``--seconds`` sets how many rounds of it a run issues.
Each op's output is digested and compared with ``golden.json``; a
mismatch fails the op.  ``--update-golden`` re-captures the digests of
every op in the catalog on purpose.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
five set-ups in fresh processes), completed ops per host second,
interpreter instructions per host second, op latency (all three as
medians over the run's identical segments, see ``segment_metrics``),
and peak RSS.  ``--trace 1`` runs the workload
untraced and then traced, both in fresh processes, and prints the
per-layer metrics of the traced run plus its overhead against the
untraced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
starting with ``#`` are diagnostics.  All state lives under
``.perfbench-state/`` in the repository root and is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import uuid
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_ROOT = ROOT / ".perfbench-state"
sys.path.insert(0, str(HERE))

import ops as opsmod  # noqa: E402

#: set-ups per untraced run; setup_s is their median
SETUPS = 5
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT = 170.0

DISCLAIMER = ("# note: modelled cycles come from an analytic timing model "
              "that is not validated against hardware and has no error "
              "figure; the benchmark pins them only as program outputs. "
              "Modelled caches start empty after perfrun's 50k-instruction "
              "warm-up (from instruction 0 in the forced-migration cells)")


class ChildFailed(RuntimeError):
    pass


def child_env(workload: str, state: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(state / "cache")
    if workload != "serve-mixed":
        env["REPRO_NO_CACHE"] = "1"     # cold: every artifact recomputed
    return env


def spawn(workload: str, state: Path, argv: List[str],
          setup_only: bool = False) -> Tuple[float, dict]:
    """Run one worker; returns (seconds from spawn to READY, result)."""
    state.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--state", str(state)] + argv
    if setup_only:
        command.append("--setup-only")
    lines: List[Tuple[float, str]] = []

    def read(stream) -> None:
        for line in stream:
            lines.append((time.perf_counter(), line))

    started = time.perf_counter()
    with open(state / "worker.err", "w") as err:
        process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                   stderr=err, text=True,
                                   env=child_env(workload, state), cwd=ROOT)
    reader = threading.Thread(target=read, args=(process.stdout,))
    reader.start()
    try:
        process.wait(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    reader.join()
    process.stdout.close()
    ready = [at for at, line in lines if line.strip() == "READY"]
    output = [line for _, line in lines if line.strip() != "READY"]
    if process.returncode != 0 or not ready:
        stderr = (state / "worker.err").read_text().strip()
        raise ChildFailed(f"{workload} worker exited {process.returncode}: "
                          f"{stderr[-3000:]}")
    if setup_only:
        return ready[0] - started, {}
    for line in output[:-1]:
        if line.startswith("#"):
            print(line.rstrip())
    return ready[0] - started, json.loads(output[-1])


def segment_metrics(timings: List[list], workload: str) -> Tuple[Dict, str]:
    """Time metrics as medians over the run's segments.

    ``timings`` holds [segment, seconds, instructions] per completed op.
    In a closed loop without think time each client always has one op
    in flight, so a segment's host seconds are its summed op latency
    divided by the client count.  ``serve-mixed`` takes each segment's
    nearest-rank p50.  Its tail, the highest percentile with at least 10
    samples beyond it, goes into the note only: on a 2-core shared host
    its run-to-run spread exceeds the largest bound a benchmark metric
    may have.  The batch workloads take no percentiles: a segment has
    few ops of very different sizes, so a percentile would pick out one
    op.  Their latency is a segment's mean op latency.
    """
    by_segment: Dict[int, List[Tuple[float, int]]] = {}
    for segment, seconds, instructions in timings:
        by_segment.setdefault(segment, []).append((seconds, instructions))
    serve = workload == "serve-mixed"
    clients = opsmod.CLIENTS if serve else 1
    rates, kinsn, p50s, tails = [], [], [], []
    for ops in by_segment.values():
        host_seconds = sum(seconds for seconds, _ in ops) / clients
        rates.append(len(ops) / host_seconds)
        kinsn.append(sum(steps for _, steps in ops) / 1000.0 / host_seconds)
        values = sorted(seconds for seconds, _ in ops)
        if serve:
            p50s.append(values[opsmod.nearest_rank(len(values), 50.0)])
            tails.append(values[opsmod.tail_rank(len(values))])
        else:
            p50s.append(statistics.fmean(values))
    median = statistics.median
    note = (f"# time metrics: medians over {len(by_segment)} segments; "
            f"segment latencies "
            f"{', '.join(f'{1000 * v:.1f}' for v in p50s)} ms "
            f"({'p50' if serve else 'mean op latency'})")
    if serve:
        count = min(len(ops) for ops in by_segment.values())
        beyond = count - 1 - opsmod.tail_rank(count)
        note += (f"; latency_tail p{100.0 * (count - beyond) / count:.4g} "
                 f"(N={count} per segment, {beyond} beyond): median "
                 f"{1000 * median(tails):.1f} ms of "
                 f"{', '.join(f'{1000 * v:.1f}' for v in tails)} ms "
                 f"(diagnostic, not a metric)")
    return {"ops_per_s": (median(rates), "1/s"),
            "sim_kinsn_per_s": (median(kinsn), "kinsn/s"),
            "latency_p50_ms": (1000 * median(p50s), "ms")}, note


def end_to_end(workload: str, result: dict, setups: List[float]) -> Dict:
    metrics = {"setup_s": (statistics.median(setups), "s")}
    timed, note = segment_metrics(result["timings"], workload)
    print(note)
    metrics.update(timed)
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
    print(f"# setup: {', '.join(f'{value:.3f}' for value in setups)} s "
          f"(median of {len(setups)} set-ups in fresh processes)")
    return metrics


def report_run(result: dict, workload: str) -> None:
    record = json.loads((HERE / "workloads.json").read_text())
    record = record["workloads"][workload]
    print(f"# workload {workload}: loop={record['loop']}; "
          f"clients={record['clients']}; cache={record['cache_mode']}; "
          f"host nproc={os.cpu_count()}")
    drift = result["drift"]
    print(f"# drift_probe before={drift[0]:.4f}s after={drift[1]:.4f}s "
          f"(diagnostic only)")
    busy = sum(seconds for _, seconds, _ in result["timings"])
    print(f"# ops: {result['attempted']} attempted, {result['failed']} "
          f"failed, {busy:.3f} s of summed op latency")
    if "state_fs" in result:
        print(f"# serve state filesystem: {result['state_fs']}")
    for line in result["mismatches"][:20]:
        print(f"# FAILED {line}")
    if workload != "serve-mixed":
        print(DISCLAIMER)


def measure(args, state: Path) -> dict:
    base = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    if not args.trace:
        setups = [spawn(args.workload, state / f"setup{index}", base,
                        setup_only=True)[0]
                  for index in range(SETUPS - 1)]
        setup, result = spawn(args.workload, state / "run", base)
        report_run(result, args.workload)
        metrics = end_to_end(args.workload, result, setups + [setup])
        return {"attempted": result["attempted"],
                "failed": result["failed"], "metrics": metrics}

    from layers import LAYER_METRICS, layer_metrics
    _setup, plain = spawn(args.workload, state / "plain", base)
    _setup, traced = spawn(args.workload, state / "traced",
                           base + ["--trace"])
    report_run(traced, args.workload)
    dump = json.loads(Path(traced["dump"]).read_text())
    values, notes = layer_metrics(dump, traced["probes"])
    plain_rate = segment_metrics(plain["timings"],
                                 args.workload)[0]["ops_per_s"][0]
    traced_rate = segment_metrics(traced["timings"],
                                  args.workload)[0]["ops_per_s"][0]
    values["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
    notes.append(f"trace.overhead_pct: untraced {plain_rate:.4f} ops/s, "
                 f"traced {traced_rate:.4f} ops/s")
    if traced["probes"]:
        notes.append(f"calibration probes on mcf: "
                     f"{traced['probes']['probe.instructions']:.0f} "
                     f"instructions each")
    for note in notes:
        print(f"# {note}")
    units = dict(LAYER_METRICS)
    return {"attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": {name: (values[name], units[name])
                        for name, _unit in LAYER_METRICS}}


def update_golden(workloads: List[str], state: Path) -> int:
    path = HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    for workload in workloads:
        _setup, result = spawn(workload, state / workload,
                               ["--capture"])
        if result["failed"]:
            for line in result["mismatches"]:
                print(f"error: {line}", file=sys.stderr)
            return 1
        golden[workload] = dict(sorted(result["captured"].items()))
        print(f"{workload}: captured {len(result['captured'])} op digests")
    golden["_note"] = ("sha256 digests (first 32 hex) of each op's output "
                       "record with host-time fields removed; re-capture "
                       "with: python3 perfbench/run.py --update-golden")
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=opsmod.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="re-capture golden digests of every op")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    state = STATE_ROOT / uuid.uuid4().hex[:12]
    state.mkdir(parents=True)
    try:
        if args.update_golden:
            return update_golden([args.workload] if args.workload
                                 else list(opsmod.WORKLOADS), state)
        if args.workload is None:
            parser.error("--workload is required")
        try:
            outcome = measure(args, state)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            STATE_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
