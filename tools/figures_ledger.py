#!/usr/bin/env python3
"""Golden-digest gate for the regenerated figures.

Usage::

    python tools/figures_ledger.py check [--ledger FILE] [NAME ...]
    python tools/figures_ledger.py update [--ledger FILE] [NAME ...]

Every ``repro experiment`` name (``cli.EXPERIMENTS``) is regenerated
cold (``REPRO_NO_CACHE=1``) through the same ``execute_spec`` call the
CLI and the serve daemon use, and its full-precision payload is
digested with ``result_digest``.  Every ablation benchmark
(``benchmarks/test_ablation_<name>.py``, ledger name
``ablation_<name>``) is pinned the same way: its module-level
``_run()`` payload, regenerated cold.  The rendered tables are deliberately
*not* digested: they round to three decimals and would hide a last-bit
change in a modelled cycle count.  Keys named ``seconds`` or ending in
``_seconds`` are stripped first, so host wall time can never churn the
ledger.

``check`` exits 1 if any digest differs from the committed ledger
(``figures-golden.json``) or an experiment is missing from it.
``update`` rewrites the ledger entries for the experiments it ran.
Naming experiments restricts either mode to them.  ``REPRO_WORKERS``
fans each experiment out over worker processes; digests do not depend
on it.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import sys
import time
from typing import Any, Dict

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_LEDGER = os.path.join(_ROOT, "figures-golden.json")


def strip_host_time(value: Any) -> Any:
    """The payload minus every host-time ``seconds`` field."""
    if isinstance(value, dict):
        return {key: strip_host_time(item) for key, item in value.items()
                if not (key == "seconds" or key.endswith("_seconds"))}
    if isinstance(value, list):
        return [strip_host_time(item) for item in value]
    return value


def experiment_digest(name: str) -> str:
    from repro.serve.spec import RequestSpec, execute_spec, result_digest
    spec = RequestSpec(kind="experiment", params={"name": name})
    return result_digest(strip_host_time(execute_spec(spec)))


def ablation_names():
    """Ledger names of the ablation benchmarks, in file order."""
    pattern = os.path.join(_ROOT, "benchmarks", "test_ablation_*.py")
    return sorted(os.path.basename(path)[len("test_"):-len(".py")]
                  for path in glob.glob(pattern))


def ablation_digest(name: str) -> str:
    from repro.serve.spec import normalize, result_digest
    module = importlib.import_module(f"benchmarks.test_{name}")
    return result_digest(strip_host_time(normalize(module._run())))


def load_ledger(path: str) -> Dict[str, str]:
    if not os.path.exists(path):
        return {}
    with open(path, "r") as handle:
        return json.load(handle).get("digests", {})


def write_ledger(path: str, digests: Dict[str, str]) -> None:
    payload = {"comment": "Cold-cache result_digest of every repro "
                          "experiment payload; regenerate with "
                          "tools/figures_ledger.py update.",
               "digests": dict(sorted(digests.items()))}
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    # cold by construction: set before the first repro import
    os.environ["REPRO_NO_CACHE"] = "1"
    sys.path.insert(0, os.path.join(_ROOT, "src"))
    sys.path.insert(0, _ROOT)
    from repro.cli import EXPERIMENTS
    ablations = ablation_names()
    known = sorted(EXPERIMENTS) + ablations
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("check", "update"))
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="experiments or ablations to run "
                             "(default: all)")
    parser.add_argument("--ledger", default=DEFAULT_LEDGER)
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(known))
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    names = args.names or known
    ledger = load_ledger(args.ledger)
    computed: Dict[str, str] = {}
    failures = 0
    for name in names:
        started = time.perf_counter()
        computed[name] = (ablation_digest(name) if name in ablations
                          else experiment_digest(name))
        elapsed = time.perf_counter() - started
        expected = ledger.get(name)
        if args.mode == "update" or expected == computed[name]:
            status = "ok"
        else:
            status = "MISSING" if expected is None else "CHANGED"
            failures += 1
        print(f"{name:<8} {computed[name][:16]}  {status:<8} "
              f"{elapsed:7.1f}s", flush=True)
    if args.mode == "update":
        ledger.update(computed)
        write_ledger(args.ledger, ledger)
        print(f"wrote {len(computed)} digest(s) to {args.ledger}")
        return 0
    if failures:
        print(f"{failures} experiment digest(s) differ from "
              f"{args.ledger}; if the change is intended, re-baseline "
              f"with `tools/figures_ledger.py update`", file=sys.stderr)
        return 1
    print(f"all {len(computed)} experiment digests match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
