"""Seeded op sequences and the statistics helpers of the benchmark.

Pure standard library, no ``repro`` import: the self-tests and the
steadiness report use this module without the program under test.

A run is a number of *segments* with identical content: every segment
issues the same ops, in its own seeded order.  Time metrics are medians
over segments, so a slow spell of the shared host that covers a
minority of the segments does not move them, while a change to any op
moves every segment.  The seed only orders the ops: every run of a
workload issues the same multiset of ops, all of them in the finite
catalog that ``golden.json`` pins.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("perf-sim", "security-toolchain", "serve-mixed")

#: instruction cap of every timing-model cell (the figures' FAST_BUDGET)
PERF_BUDGET = 4_000_000

#: randomization seed of every perf-sim and security op
RSEED = 0

# ----------------------------------------------------------------------
# perf-sim: one op = one cold figure cell through repro.analysis.perfrun
# ----------------------------------------------------------------------
#: (cell kind, benchmark, parameters); binaries use PERF_WORK sizes.
#: The two shortest-running benchmarks keep a segment near 8 s.
PERF_CELLS: Tuple[Tuple[str, str, Tuple[Tuple[str, object], ...]], ...] = (
    ("native", "gobmk", ()),
    ("psr", "sphinx3", (("opt_level", 1),)),
    ("psr", "gobmk", (("opt_level", 2),)),
    ("psr", "sphinx3", (("opt_level", 3),)),
    ("psr", "gobmk", (("rat_size", 32),)),
    ("psr", "sphinx3", (("rat_size", 2048),)),
    ("psr", "sphinx3", (("code_cache_size", 2048),)),
    ("psr", "gobmk", (("code_cache_size", 8192),)),
    ("isomeron", "sphinx3", (("p", 0.5),)),
    ("psr_isomeron", "gobmk", (("p", 0.5),)),
    ("hipstr_forced", "sphinx3", (("phase_interval", 2000),)),
    ("hipstr_prewarm", "gobmk", (("code_cache_size", 262144), ("p", 0.5))),
)

#: benchmarks whose binaries perf-sim compiles during set-up
PERF_BENCHMARKS = tuple(sorted({bench for _, bench, _ in PERF_CELLS}))

# ----------------------------------------------------------------------
# security-toolchain: one op = one program from source to verdicts
# ----------------------------------------------------------------------
#: work size of each program; the two workloads whose cost barely
#: moves with the size run a larger one, so no two sources are alike
SECURITY_SIZES: Dict[str, int] = {
    "bzip2": 1, "gobmk": 1, "hmmer": 1, "lbm": 1, "libquantum": 1,
    "mcf": 1, "milc": 1, "sphinx3": 2, "httpd": 3,
}

#: steady-state length of the JIT-ROP run
JITROP_STEADY = 100_000

# ----------------------------------------------------------------------
# serve-mixed: a closed loop of requests against a repro serve daemon
# ----------------------------------------------------------------------
TENANTS = ("alpha", "beta")
CLIENTS = 2

#: class (b): experiment cells every tenant caches during set-up
CACHED_SPECS: Tuple[Tuple[str, str], ...] = (
    ("fig3", "mcf"), ("fig3", "lbm"), ("fig3", "sphinx3"), ("fig3", "gobmk"),
    ("fig4", "mcf"), ("fig4", "lbm"), ("fig4", "sphinx3"),
    ("table2", "mcf"), ("table2", "lbm"), ("table2", "sphinx3"))

#: class (c): workloads of the verify and transpile requests, and the
#: number of distinct migrate sources
FRESH_BENCHES = ("mcf", "lbm", "httpd")
MIGRATE_VARIANTS = 6

#: (class, kind, requests per segment), classes in nominal latency
#: order: (a) "read" replays a settled request_id, (b) "cached" sends a
#: fresh id for work the tenant has cached, (c) "fresh" is work that
#: misses the cache — compile + HIPStR run of a new source, all
#: verifier passes, or lift + static re-proof.  Class (c) holds the
#: median on purpose: (a) and (b) wait behind the other client's fresh
#: work part of the time, so their latencies are bimodal and a median
#: among them would sit on the steep knee between the two modes.
SERVE_KINDS: Tuple[Tuple[str, str, int], ...] = (
    ("read", "read", 20),
    ("cached", "cached", 20),
    ("fresh", "migrate", 24),
    ("fresh", "verify", 18),
    ("fresh", "transpile", 18),
)
SERVE_SEGMENT = sum(share for _, _, share in SERVE_KINDS)

#: nominal host seconds of one segment of each workload on the
#: reference host (2 shared cores); a run has round(seconds / this)
#: segments, and at least three
SEGMENT_SECONDS = {"perf-sim": 8.5, "security-toolchain": 10.7,
                   "serve-mixed": 4.5}


def segments_for(workload: str, seconds: float) -> int:
    return max(3, int(round(seconds / SEGMENT_SECONDS[workload])))


def migrate_source(variant: int) -> str:
    """A small mini-C program; each variant is a distinct source."""
    bound = 300 + 25 * variant
    mul = 3 + variant % 5
    return (
        "int mix(int a, int b) { return (a * %d + b) & 4095; }\n"
        "int main() {\n"
        "  int i = 0; int s = %d;\n"
        "  while (i < %d) { s = mix(s, i); i = i + 1; }\n"
        "  return s & 255;\n"
        "}\n" % (mul, variant, bound))


def op_sequence(workload: str, seed: int, seconds: float) -> List[Dict]:
    """The run's fixed op sequence: a pure function of its arguments."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "perf-sim":
        segment = [perf_op(cell) for cell in PERF_CELLS]
    elif workload == "security-toolchain":
        segment = [security_op(name, work)
                   for name, work in SECURITY_SIZES.items()]
    elif workload == "serve-mixed":
        segment = _serve_segment()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    ops: List[Dict] = []
    for index in range(segments_for(workload, seconds)):
        batch = [dict(op, segment=index) for op in segment]
        rng.shuffle(batch)
        ops.extend(batch)
    for index, op in enumerate(ops):
        op["index"] = index
        if op.get("class") in ("cached", "fresh"):
            op["request_id"] = f"r{index}-{op['tenant']}"
    return ops


def perf_op(cell) -> Dict:
    kind, bench, params = cell
    params = dict(params)
    tag = ",".join(f"{key}={value}" for key, value in sorted(params.items()))
    return {"kind": kind, "bench": bench, "params": params,
            "rseed": RSEED, "id": f"{kind}/{bench}/{tag}/r{RSEED}"}


def security_op(name: str, work: int) -> Dict:
    return {"kind": "toolchain", "bench": name, "work": work,
            "rseed": RSEED, "id": f"toolchain/{name}/w{work}/r{RSEED}"}


def cached_spec(experiment: str, bench: str) -> Dict:
    return {"kind": "experiment",
            "params": {"name": experiment, "benchmarks": [bench]}}


def priming_ops() -> List[Dict]:
    """Set-up requests: warm every tenant's cache and settle the ids
    that class (a) replays."""
    ops = []
    for tenant in TENANTS:
        for index, (experiment, bench) in enumerate(CACHED_SPECS):
            ops.append({"class": "prime", "tenant": tenant,
                        "request_id": f"prime-{tenant}-{index}",
                        "spec": cached_spec(experiment, bench),
                        "id": f"experiment/{experiment}/{bench}"})
    return ops


def _serve_segment() -> List[Dict]:
    """One segment's requests; each kind's share is a whole number of
    passes over its (spec, tenant) combinations."""
    catalog = serve_catalog()
    keys = {
        "cached": [f"experiment/{experiment}/{bench}"
                   for experiment, bench in CACHED_SPECS],
        "migrate": [f"migrate/v{v}" for v in range(MIGRATE_VARIANTS)],
        "verify": [f"verify/{bench}" for bench in FRESH_BENCHES],
        "transpile": [f"transpile/{bench}" for bench in FRESH_BENCHES],
    }
    ops: List[Dict] = []
    for klass, kind, share in SERVE_KINDS:
        if kind == "read":
            combos = [dict(prime, **{"class": "read"})
                      for prime in priming_ops()]
        else:
            combos = [{"class": klass, "tenant": tenant,
                       "spec": catalog[key], "id": key}
                      for key in keys[kind] for tenant in TENANTS]
        assert share % len(combos) == 0, (kind, share, len(combos))
        ops.extend(combos * (share // len(combos)))
    return ops


def serve_catalog() -> Dict[str, Dict]:
    """Every distinct serve spec the benchmark can send, by op id."""
    catalog = {op["id"]: op["spec"] for op in priming_ops()}
    for variant in range(MIGRATE_VARIANTS):
        catalog[f"migrate/v{variant}"] = {
            "kind": "migrate",
            "params": {"source": migrate_source(variant),
                       "seed": variant % 3}}
    for bench in FRESH_BENCHES:
        catalog[f"verify/{bench}"] = {"kind": "verify",
                                      "params": {"workload": bench}}
        catalog[f"transpile/{bench}"] = {
            "kind": "transpile",
            "params": {"workload": bench, "tiers": ["static"]}}
    return catalog


def batch_catalog(workload: str) -> List[Dict]:
    """Every distinct op of a batch workload (for golden capture)."""
    if workload == "perf-sim":
        return [perf_op(cell) for cell in PERF_CELLS]
    return [security_op(name, work)
            for name, work in SECURITY_SIZES.items()]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def nearest_rank(count: int, percentile: float) -> int:
    """0-based index of the nearest-rank percentile in a sorted list."""
    return max(0, math.ceil(percentile * count / 100.0) - 1)


def tail_rank(count: int, beyond: int = 10) -> Optional[int]:
    """0-based rank of the highest percentile with at least ``beyond``
    samples above it; None when that rank would sit below the median."""
    rank = count - beyond - 1
    if rank <= nearest_rank(count, 50.0):
        return None
    return rank


def class_bounds(count: int) -> List[Tuple[str, int, int]]:
    """Nominal rank span [lo, hi) of each serve class among ``count``
    requests, latencies sorted by the classes' nominal order."""
    shares: Dict[str, int] = {}
    for klass, _kind, share in SERVE_KINDS:
        shares[klass] = shares.get(klass, 0) + share
    spans = []
    lo = 0
    for klass, share in shares.items():
        hi = lo + count * share // SERVE_SEGMENT
        spans.append((klass, lo, hi))
        lo = hi
    return spans


def boundary_margin(count: int, rank: int) -> float:
    """Distance, as a share of ``count``, from a rank to the nearest
    boundary between two serve classes."""
    boundaries = [hi for _, _, hi in class_bounds(count)][:-1]
    return min(abs(rank - edge) for edge in boundaries) / count


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    import statistics
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
