"""Measure one workload once and print its result as the last line.

    python3 benchmarks/suite/run.py --workload zoo-cold --seed 0 --seconds 15 --trace 0

Run from the repository root (or anywhere: paths resolve from this
file).  The program under test is imported from ``src/``; no install or
build step is needed.  ``--trace 1`` reports the per-layer metrics of
BENCHMARK.json instead of the end-to-end ones.  Exit status is 0 when a
result was printed, non-zero when the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD_NAMES = ("zoo-cold", "potential-warm", "serve-open", "grid-fanout")
HASH_SEED = "0"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="keep repeating the task until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced tasks")
    parser.add_argument("--quick", action="store_true",
                        help="toy sizes, for the suite's self-test")
    parser.add_argument("--ladder", action="store_true",
                        help="serve-open only: also climb the rate ladder for serve_max_rps")
    parser.add_argument("--report", type=Path,
                        help="write the full report (checks, spans, host) as JSON here")
    args = parser.parse_args(argv)
    if args.ladder and args.workload != "serve-open":
        parser.error("--ladder applies to serve-open only")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Randomized str hashing reorders sets and dicts, which moves object
        # lifetimes and garbage collections: a cold zoo build peaked at 337
        # or 389 MB from run to run with it, at 389 MB every time without.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        p for p in sys.path[1:] if Path(p or ".").resolve() != Path(__file__).parent
    ]
    from benchmarks.suite import host

    env = host.pin_environment()  # before numpy loads: BLAS reads its threads once
    from benchmarks.suite import runner  # imports numpy and every repro layer

    report = runner.measure(args, ROOT, env)
    if args.report is not None:
        args.report.write_text(json.dumps(report) + "\n")
    runner.print_table(report)
    print(json.dumps(report["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
