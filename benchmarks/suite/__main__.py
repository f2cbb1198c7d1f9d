"""``python -m benchmarks.suite run|compare`` (from the repository root).

run       repeat every workload in fresh subprocesses, interleaved
          round-robin (zoo, potential, serve, grid, zoo, ...), plus one
          traced run each with --trace; print every metric as median and
          quartiles and write them, with the host fingerprint, to --out.
compare   diff two such files against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.suite.run import WORKLOAD_NAMES
from benchmarks.suite.stats import quartiles, spread

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "suite" / "run.py"
# Counts that must not grow at all: failed operations and failed checks.
ZERO_TOLERANCE = ("fail_frac", "check_failures")


def _git(*args: str) -> str:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def aggregate(reports: list[dict]) -> dict:
    """One workload's runs: every metric as median and quartiles over runs."""
    plain = [r for r in reports if not r["trace"]]
    traced = [r for r in reports if r["trace"]]
    metrics: dict[str, dict] = {}
    for name in plain[0]["result"]["metrics"]:
        unit = plain[0]["result"]["metrics"][name]["unit"]
        metrics[name] = _summary([r["result"]["metrics"][name]["value"] for r in plain], unit)
    extras = {name for r in plain for name in r["extras"]}
    for name in sorted(extras):
        runs = [r["extras"][name] for r in plain if name in r["extras"]]
        metrics[name] = _summary([e["value"] for e in runs], runs[0]["unit"])
        metrics[name]["samples_per_run"] = [e["n"] for e in runs]
    failed = {c["name"] for r in reports for c in r["checks"] if not c["passed"]}
    # Each run checks its own tasks against each other; this checks the
    # runs, each a fresh process, against each other.
    if any(r["outcome"] != plain[0]["outcome"] for r in plain):
        failed.add("repeatable[across runs]")
    return {
        "metrics": metrics,
        "failed_checks": sorted(failed),
        "per_layer": (
            {name: m["value"] for name, m in traced[0]["result"]["metrics"].items()}
            | traced[0]["layer_detail"]
            if traced else None
        ),
        "ladder": next((r["ladder"] for r in plain if r["ladder"]), None),
        "probes": [{"before": r["host"]["probe_before"], "after": r["host"]["probe_after"]}
                   for r in reports],
    }


def cmd_run(args) -> int:
    workloads = args.workload or list(WORKLOAD_NAMES)
    plan = [(w, False) for _ in range(args.repeats) for w in workloads]
    plan += [(w, True) for w in workloads] if args.trace else []
    reports: dict[str, list[dict]] = {w: [] for w in workloads}
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for i, (workload, traced) in enumerate(plan):
            report_path = Path(tmp) / f"{i}.json"
            cmd = [
                sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(int(traced)),
                "--report", str(report_path),
            ]
            cmd += ["--quick"] if args.quick else []
            cmd += ["--ladder"] if workload == "serve-open" and not traced else []
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"error: run {i} ({workload}) exited {proc.returncode}", file=sys.stderr)
                return 1
            reports[workload].append(json.loads(report_path.read_text()))
            print(f"[{i + 1}/{len(plan)}] {workload}{' (traced)' if traced else ''} "
                  f"{time.perf_counter() - t0:.1f}s", file=sys.stderr)
    first = reports[workloads[0]][0]
    results = {
        "command": (
            f"python -m benchmarks.suite run --seed {args.seed} --repeats {args.repeats} "
            f"--seconds {args.seconds:g}" + " --trace" * args.trace + " --quick" * args.quick
        ),
        "seed": args.seed,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "quick": args.quick,
        "wall_s": time.perf_counter() - start,
        "host": first["host"]["fingerprint"] | {
            "cpu": _cpu_model(),
            "git_commit": _git("rev-parse", "HEAD"),
            "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
            "env": first["host"]["env"],
        },
        "workloads": {w: aggregate(reports[w]) for w in workloads},
    }
    args.out.write_text(json.dumps(results, indent=1) + "\n")
    print_results(results)
    return 0


def print_results(results: dict) -> None:
    host = results["host"]
    print(f"host: {host['cpu']} nproc={host['nproc']} {host['blas']} numpy {host['numpy']} "
          f"python {host['python']} commit {host['git_commit'][:12]}"
          f"{' (dirty)' if host['git_dirty'] else ''}")
    print(f"seed {results['seed']}, {results['repeats']} repeats, wall {results['wall_s']:.0f}s")
    for workload, agg in results["workloads"].items():
        print(f"\n{workload}")
        for name, m in agg["metrics"].items():
            print(f"  {name:30s} {m['median']:12.5g} {m['unit']:8s} "
                  f"[{m['q1']:.5g}, {m['q3']:.5g}] n={m['n']}")
        if agg["failed_checks"]:
            print(f"  FAILED CHECKS: {', '.join(agg['failed_checks'])}")


def verdict(name: str, a: dict, b: dict, spec: dict) -> str:
    """How B's median compares with A's under the metric's bound."""
    if name in ZERO_TOLERANCE:
        return "REGRESSED" if b["median"] > a["median"] else "ok"
    if name not in spec:
        return ""
    bound, lower = spec[name]["bound"], spec[name]["better"] == "lower"
    sign = 1 if lower else -1
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    if max(spread(a["values"]), spread(b["values"])) > bound:
        better_everywhere = (
            max(b["values"]) < min(a["values"]) if lower else min(b["values"]) > max(a["values"])
        )
        return "better" if better_everywhere else "unresolved"
    if worse > bound:
        return "REGRESSED"
    return "better" if -worse > bound else "ok"


def cmd_compare(args) -> int:
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    regressed = False
    print(f"{'workload':16s} {'metric':30s} {'A median [q1, q3]':>32s} "
          f"{'B median [q1, q3]':>32s} {'change':>8s}  verdict")
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        ma, mb = a["workloads"][workload]["metrics"], b["workloads"][workload]["metrics"]
        for name in [n for n in ma if n in mb]:
            x, y = ma[name], mb[name]
            change = (y["median"] - x["median"]) / abs(x["median"]) if x["median"] else 0.0
            v = verdict(name, x, y, spec)
            regressed |= v == "REGRESSED"
            a_col = f"{x['median']:.5g} [{x['q1']:.4g}, {x['q3']:.4g}]"
            b_col = f"{y['median']:.5g} [{y['q1']:.4g}, {y['q3']:.4g}]"
            print(f"{workload:16s} {name:30s} {a_col:>32s} {b_col:>32s} {change:+8.1%}  {v}")
        for check in b["workloads"][workload]["failed_checks"]:
            regressed = True
            print(f"{workload:16s} FAILED CHECK in B: {check}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure every workload")
    run.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                     help="repeatable; default: all four")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--repeats", type=int, default=5)
    run.add_argument("--seconds", type=float, default=15.0)
    run.add_argument("--trace", action="store_true", help="add one traced run per workload")
    run.add_argument("--quick", action="store_true", help="toy sizes (self-test)")
    run.add_argument("--out", type=Path, required=True)
    compare = sub.add_parser("compare", help="diff two result files")
    compare.add_argument("a", type=Path)
    compare.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
