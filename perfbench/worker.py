"""One measured run of one workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  Protocol on
standard output: a line ``READY`` the moment set-up is done (the parent
times set-up from spawn to this line), diagnostic lines starting with
``#``, and a last line holding one JSON object with the run's raw
results.  ``--setup-only`` exits right after ``READY``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import ops as opsmod  # noqa: E402  (sibling module, after sys.path)

GOLDEN = HERE / "golden.json"


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def _strip_timing(value: Any) -> Any:
    """Drop host-time fields (``seconds``) so digests pin behaviour."""
    if isinstance(value, dict):
        return {key: _strip_timing(item) for key, item in value.items()
                if key != "seconds"}
    if isinstance(value, list):
        return [_strip_timing(item) for item in value]
    return value


def digest(record: Any) -> str:
    text = json.dumps(_strip_timing(record), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def check(op_id: str, record: Any, golden: Dict[str, str]) -> Optional[str]:
    """Why ``record`` fails its golden digest, or None when it matches."""
    value = digest(record)
    expected = golden.get(op_id)
    if value == expected:
        return None
    return f"{op_id}: digest {value} != golden {expected}"


def load_golden(workload: str) -> Dict[str, str]:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text()).get(workload, {})


# ----------------------------------------------------------------------
# Host diagnostics
# ----------------------------------------------------------------------
def drift_probe() -> float:
    """A fixed pure-Python loop; its time tracks host speed only."""
    start = time.perf_counter()
    value = 0
    for index in range(3_000_000):
        value = (value * 31 + index) & 0xFFFF
    return time.perf_counter() - start


def peak_rss_mb(pid: Optional[int] = None) -> float:
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def filesystem_of(path: Path) -> str:
    best, kind = "", "unknown"
    for line in Path("/proc/mounts").read_text().splitlines():
        fields = line.split()
        mount, fstype = fields[1], fields[2]
        if str(path).startswith(mount) and len(mount) > len(best):
            best, kind = mount, fstype
    return kind


def say(line: str) -> None:
    print(line, flush=True)


# ----------------------------------------------------------------------
# perf-sim
# ----------------------------------------------------------------------
class PerfSim:
    def __init__(self, recorder):
        from repro.analysis.experiments import PERF_WORK
        from repro.compiler import compile_minic
        from repro.workloads import WORKLOADS
        self.recorder = recorder
        self.workloads = WORKLOADS
        self.binaries = {
            bench: compile_minic(WORKLOADS[bench].make_source(
                PERF_WORK[bench]))
            for bench in opsmod.PERF_BENCHMARKS}

    def run(self, op: Dict) -> Dict:
        from repro.analysis import perfrun
        from repro.core.relocation import PSRConfig
        from layers import model_counts, vm_counts

        binary = self.binaries[op["bench"]]
        stdin = self.workloads[op["bench"]].stdin
        params, seed, kind = op["params"], op["rseed"], op["kind"]
        budget = opsmod.PERF_BUDGET
        config_keys = ("opt_level", "rat_size", "code_cache_size")
        config = PSRConfig(**{key: params[key] for key in config_keys
                              if key in params})
        record: Dict[str, Any] = {}
        if kind == "native":
            measured = perfrun.measure_native(binary, stdin=stdin,
                                              budget=budget)
        elif kind == "psr":
            summary = perfrun.measure_psr_summary(
                binary, config=config, seed=seed, stdin=stdin,
                budget=budget)
            measured = summary.measurement
            record["capacity_misses"] = summary.capacity_misses
            record["security_events"] = summary.security_events
        elif kind == "isomeron":
            measured = perfrun.measure_isomeron(
                binary, diversification_probability=params["p"],
                seed=seed, stdin=stdin, budget=budget)
        elif kind == "psr_isomeron":
            measured = perfrun.measure_psr_isomeron(
                binary, diversification_probability=params["p"],
                seed=seed, stdin=stdin, budget=budget)
        else:
            if kind == "hipstr_forced":
                summary = perfrun.measure_hipstr_summary(
                    binary, seed=seed, migration_probability=0.0,
                    stdin=stdin, budget=budget, warmup=0,
                    phase_interval=params["phase_interval"])
            else:
                summary = perfrun.measure_hipstr_summary(
                    binary, config=config, seed=seed,
                    migration_probability=params["p"], stdin=stdin,
                    budget=budget, prewarm=True)
            measured = summary.measurement
            record["migrations"] = summary.migration_count
            record["migration_micros"] = summary.migration_micros_total
        record["cycles"] = measured.cycles
        record["instructions"] = measured.instructions
        models, vms = self.recorder.release_objects()
        record["timing_models"] = [model_counts(model) for model in models]
        record["vms"] = [vm_counts(vm) for vm in vms]
        return record


# ----------------------------------------------------------------------
# security-toolchain
# ----------------------------------------------------------------------
class SecurityToolchain:
    def __init__(self, recorder):
        from repro.workloads import WORKLOADS
        self.recorder = recorder
        self.workloads = WORKLOADS

    def run(self, op: Dict) -> Dict:
        import dataclasses
        from repro.attacks.bruteforce import table2_row
        from repro.attacks.gadgets import PSRGadgetAnalyzer
        from repro.attacks.galileo import mine_binary
        from repro.attacks.jitrop import jitrop_surface
        from repro.compiler import compile_minic
        from repro.core import run_native
        from repro.staticcheck import verify_binary
        from repro.transpile import transpile_binary

        name, seed = op["bench"], op["rseed"]
        workload = self.workloads[name]
        binary = compile_minic(workload.make_source(op["work"]))
        gadgets = {isa: mine_binary(binary, isa)
                   for isa in ("x86like", "armlike")}
        analyses = PSRGadgetAnalyzer(binary, "x86like", seed=seed) \
            .analyze_all(gadgets["x86like"])
        table2 = table2_row(binary, name, seed)
        report = verify_binary(binary)
        lifted = transpile_binary(binary)
        limit = 20_000_000
        native = run_native(binary, "x86like", stdin=workload.stdin,
                            max_instructions=limit)
        relifted = run_native(lifted, "armlike", stdin=workload.stdin,
                              max_instructions=limit)
        surface = jitrop_surface(binary, name, seed=seed,
                                 stdin=workload.stdin,
                                 steady_state_instructions=opsmod
                                 .JITROP_STEADY)
        self.recorder.release_objects()
        parity = native.os.exit_code is not None \
            and native.os.exit_code == relifted.os.exit_code
        return {
            "gadgets": {isa: len(found) for isa, found in gadgets.items()},
            "fig3_obfuscated": sum(1 for a in analyses if a.obfuscated),
            "fig4_viable": sum(1 for a in analyses
                               if a.brute_force_viable),
            "table2": dataclasses.asdict(table2),
            "findings": [finding.as_dict() for finding in report.findings],
            "lifted_text": hashlib.sha256(
                lifted.text("armlike")).hexdigest(),
            "lift_stats": dict(lifted.lift_stats),
            "exit_codes": [native.os.exit_code, relifted.os.exit_code],
            "parity": parity,
            "jitrop": dataclasses.asdict(surface),
        }


def run_batch(args, recorder, runner) -> Dict:
    golden = load_golden(args.workload)
    ops = (opsmod.batch_catalog(args.workload) if args.capture
           else opsmod.op_sequence(args.workload, args.seed, args.seconds))
    drift_before = drift_probe()
    failed, mismatches, captured = 0, [], {}
    #: [segment, seconds, interpreter instructions] per completed op
    timings: List[list] = []
    # ops take turns on the CPUs the run may use: a single busy process
    # otherwise stays on one CPU for the whole run, and the run measures
    # that CPU's share of the shared host instead of the program
    cpus = sorted(os.sched_getaffinity(0))
    for position, op in enumerate(ops):
        os.sched_setaffinity(0, {cpus[position % len(cpus)]})
        # start every op from a collected heap, so neither its time nor
        # the peak RSS depends on the garbage of the ops run before it
        gc.collect()
        recorder.set_op(op["id"])
        steps = sum(recorder.steps.values())
        began = time.perf_counter()
        try:
            record = runner.run(op)
        except Exception as exc:     # a failing op counts, the run goes on
            failed += 1
            mismatches.append(f"{op['id']}: {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - began
        captured[op["id"]] = digest(record)
        problem = None if args.capture else check(op["id"], record, golden)
        if record.get("parity") is False:
            problem = f"{op['id']}: lifted exit code differs"
        if problem:
            failed += 1
            mismatches.append(problem)
            continue
        timings.append([op.get("segment", 0), elapsed,
                        sum(recorder.steps.values()) - steps])
    recorder.set_op("")
    os.sched_setaffinity(0, cpus)
    drift_after = drift_probe()
    return {"attempted": len(ops), "failed": failed,
            "mismatches": mismatches, "timings": timings,
            "peak_rss_mb": peak_rss_mb(),
            "drift": [drift_before, drift_after], "captured": captured}


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
class Daemon:
    """A ``repro serve`` daemon started in set-up.

    Untraced runs start ``python -m repro serve`` itself through the
    repository's :class:`repro.serve.harness.ServeDaemon`; traced runs
    start the same command line under ``serve_entry.py``, which installs
    the span recorder first and writes its spans on exit.
    """

    def __init__(self, state: Path, trace: bool):
        from repro.serve.harness import ServeDaemon

        self.dump = state / "daemon-spans.json"
        dump = self.dump

        class TracedDaemon(ServeDaemon):
            def _argv(self) -> List[str]:
                argv = super()._argv()       # python -m repro serve ...
                return [argv[0], str(HERE / "serve_entry.py"),
                        "--dump", str(dump), "--"] + argv[3:]

        kind = TracedDaemon if trace else ServeDaemon
        self.daemon = kind(state / "journal", state / "cache")
        try:
            self.client = self.daemon.ensure_up()
            if not self.client.wait_ready(timeout=60.0, interval=0.005):
                raise RuntimeError("serve daemon never became ready")
        except BaseException:
            self.stop()
            raise
        self.pid = self.daemon.process.pid

    def stop(self) -> Optional[int]:
        """SIGTERM drain; a daemon that does not drain in 60 s is killed."""
        try:
            code = self.daemon.sigterm()
        except subprocess.TimeoutExpired:
            self.daemon.kill9()
            code = None
        if self.daemon.process is not None:
            self.daemon.process.stdout.close()
        return code


def request_spec(op: Dict):
    from repro.serve.spec import RequestSpec
    return RequestSpec.from_dict(dict(op["spec"], tenant=op["tenant"],
                                      request_id=op["request_id"]))


def serve_setup(state: Path, trace: bool) -> Daemon:
    daemon = Daemon(state, trace)
    for op in opsmod.priming_ops():
        response = daemon.client.submit(request_spec(op))
        if not response.ok:
            daemon.stop()
            raise RuntimeError(f"priming {op['request_id']} failed: "
                               f"{response.status} {response.body}")
    return daemon


def run_serve(args, daemon: Daemon) -> Dict:
    from repro.errors import ReproError

    golden = load_golden("serve-mixed")
    if args.capture:
        ops = []
        for index, (key, spec) in enumerate(
                sorted(opsmod.serve_catalog().items())):
            ops.append({"class": "capture", "tenant": opsmod.TENANTS[0],
                        "request_id": f"capture-{index}", "spec": spec,
                        "id": key})
    else:
        ops = opsmod.op_sequence("serve-mixed", args.seed, args.seconds)
    specs = [request_spec(op) for op in ops]
    outcomes: List[Optional[str]] = [None] * len(ops)
    captured: Dict[str, str] = {}
    #: [segment, seconds, interpreter instructions] per completed request;
    #: only migrate requests execute code, and report their instructions
    timings: List[Optional[list]] = [None] * len(ops)

    def client(lane: int) -> None:
        for index in range(lane, len(ops), opsmod.CLIENTS):
            op = ops[index]
            sent = time.perf_counter()
            try:
                response = daemon.client.submit(specs[index])
            except ReproError as exc:
                outcomes[index] = f"{op['id']}: {type(exc).__name__}: {exc}"
                continue
            elapsed = time.perf_counter() - sent
            body = response.body
            if not response.ok:
                outcomes[index] = f"{op['id']}: HTTP {response.status} {body}"
                continue
            if body.get("resumed") != (op["class"] == "read"):
                outcomes[index] = (f"{op['id']}: resumed="
                                   f"{body.get('resumed')} for a "
                                   f"{op['class']} request")
                continue
            captured[op["id"]] = digest(body["payload"])
            if not args.capture:
                outcomes[index] = check(op["id"], body["payload"], golden)
            if outcomes[index] is None:
                steps = body["payload"].get("steps_by_isa", {})
                timings[index] = [op.get("segment", 0), elapsed,
                                  sum(steps.values())]

    drift_before = drift_probe()
    lanes = [threading.Thread(target=client, args=(lane,))
             for lane in range(opsmod.CLIENTS)]
    for lane in lanes:
        lane.start()
    for lane in lanes:
        lane.join()
    drift_after = drift_probe()
    rss = peak_rss_mb(daemon.pid)
    mismatches = [outcome for outcome in outcomes if outcome]
    return {"attempted": len(ops), "failed": len(mismatches),
            "mismatches": mismatches,
            "timings": [timing for timing in timings if timing],
            "peak_rss_mb": rss, "drift": [drift_before, drift_after],
            "captured": captured}


# ----------------------------------------------------------------------
def run_probes() -> Dict[str, float]:
    """The calibration probes, before any hook is installed."""
    from layers import calibration_probes
    from repro.analysis.experiments import PERF_WORK
    from repro.compiler import compile_minic
    from repro.workloads import WORKLOADS
    return calibration_probes(compile_minic(
        WORKLOADS["mcf"].make_source(PERF_WORK["mcf"])))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=opsmod.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--state", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--capture", action="store_true",
                        help="run every catalog op once and report digests")
    args = parser.parse_args()
    state = Path(args.state)
    state.mkdir(parents=True, exist_ok=True)

    probes: Dict[str, float] = {}
    if args.trace:
        probes = run_probes()
    if args.workload == "serve-mixed":
        daemon = serve_setup(state, args.trace)
        say("READY")
        if args.setup_only:
            daemon.stop()
            return 0
        try:
            result = run_serve(args, daemon)
        finally:
            code = daemon.stop()
        if code not in (0, 130):
            raise RuntimeError(f"serve daemon exited {code}")
        result["state_fs"] = filesystem_of(state.resolve())
        result["probes"] = probes
        if args.trace:
            result["dump"] = str(daemon.dump)
        say(json.dumps(result))
        return 0

    from layers import install, write_dump
    from repro import obs

    recorder = install(args.trace)
    recorder.set_op("setup")
    runner = (PerfSim(recorder) if args.workload == "perf-sim"
              else SecurityToolchain(recorder))
    say("READY")
    if args.setup_only:
        return 0
    result = run_batch(args, recorder, runner)
    if obs.enabled():
        result["failed"] = result["attempted"]
        result["mismatches"].append(
            "repro.obs was enabled: the batch run measured the profiled "
            "interpreter path instead of the program's own")
    result["probes"] = probes
    if args.trace:
        result["dump"] = str(state / "spans.json")
        write_dump(recorder, result["dump"])
    say(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
