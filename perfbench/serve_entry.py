"""Entry script of the benchmark's traced ``repro serve`` daemon.

``python3 perfbench/serve_entry.py --dump FILE -- serve ARGS...`` wraps
``ServerCore``, the journal and the layers below them with the
benchmark's span recorder, then runs ``repro serve ARGS...`` through the
CLI.  On exit (SIGTERM drain) it writes the spans and capture counters
to FILE.  Untraced runs start ``python -m repro serve`` itself.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dump", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER,
                        help="the repro command line, after --")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from layers import install, write_dump
    from repro.cli import main as repro_main

    recorder = install(True, serve=True)
    code = repro_main(argv)
    write_dump(recorder, args.dump)
    return code


if __name__ == "__main__":
    sys.exit(main())
