"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``zoo``          pre-train the cached model zoo used by the benchmarks
``methods``      list the registered pruning methods and their hyperparameters
``curve``        run one prune-retrain pipeline and print its curve
``potential``    prune potential per distribution for one (model, method)
``tables``       print the PR/FR and overparameterization tables
``verify``       audit cached artifacts (mask/weight consistency, accounting)
``trace``        render a run ledger (span tree + metric rollups)
``serve-bench``  load-test the serving layer and write ``BENCH_serve.json``

``zoo``, ``curve``, ``potential`` and ``tables`` run grids and share one
flag set: ``--jobs``, ``--on-error``, ``--max-retries`` and
``--cell-timeout``.

``--method`` accepts any registry spec string — a method name with
optional keyword hyperparameters, e.g. ``wt``, ``lowrank(rank_frac=0.25)``
or ``random(seed=3)``; run ``python -m repro methods`` for the catalog.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _method_spec(text: str) -> str:
    """Argparse type: validate + canonicalize a registry spec string."""
    from repro.pruning import available_methods, canonical_spec

    try:
        return canonical_spec(text)
    except (KeyError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"{exc} (registered methods: {', '.join(available_methods())})"
        )


def _method_specs(text: str) -> list[str]:
    """Argparse type: comma-separated list of registry spec strings."""
    return [_method_spec(part) for part in text.split(",") if part.strip()]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--task", default="cifar", choices=["cifar", "imagenet", "voc"])
    parser.add_argument("--model", default="resnet20")
    parser.add_argument(
        "--method",
        default="wt",
        type=_method_spec,
        metavar="SPEC",
        help="registry spec string, e.g. wt, lowrank(rank_frac=0.25); "
        "see `python -m repro methods`",
    )
    parser.add_argument("--repetitions", type=int, default=None)
    _add_grid_flags(parser)


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    """The flags of every grid-running command."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (0 = all CPUs; default: REPRO_NUM_WORKERS or 1)",
    )
    parser.add_argument(
        "--on-error",
        choices=["raise", "collect"],
        default=None,
        help="collect: finish the surviving cells and persist a failure "
        "manifest (NaN holes in results) instead of aborting on the first "
        "dead cell (default: raise)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="per-cell retry budget for transient failures (default: 2)",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="per-cell deadline in seconds; a hung pool worker is replaced. "
        "Serial runs have no deadline (default: none)",
    )


def _grid_kwargs(args) -> dict:
    return {
        "jobs": args.jobs,
        "on_error": args.on_error or "raise",
        "max_retries": args.max_retries,
        "cell_timeout": args.cell_timeout,
    }


def _report_degraded(timing) -> None:
    if timing is None or not getattr(timing, "failures", None):
        return
    print()
    for failure in timing.failures:
        print(f"FAILED {failure.describe()}")
    print(f"failure manifest: {timing.manifest_path}")


def _scale(args):
    from repro.experiments import SMOKE

    scale = SMOKE
    if args.repetitions is not None:
        scale = scale.with_(n_repetitions=args.repetitions)
    return scale


def cmd_zoo(args) -> int:
    from repro import observe
    from repro.experiments import SMOKE
    from repro.experiments.zoo import bench_zoo_specs, build_zoo

    timing = build_zoo(bench_zoo_specs(), SMOKE, **_grid_kwargs(args))
    for cell in timing.cells:
        status = "cached" if cell.cached else "built"
        print(f"{cell.key}: {status} in {cell.seconds:.1f}s", flush=True)
    print(timing.summary())
    _report_degraded(timing)
    if timing.failures:
        print("re-run this command to rebuild the failed cells")
    ledger = observe.current_ledger_path()
    if ledger is not None:
        print(f"run ledger: {ledger}")
        print(f"render it with: python -m repro trace {ledger}")
    return 1 if timing.failures else 0


def cmd_curve(args) -> int:
    from repro.experiments import prune_curve_experiment, prune_summary_row
    from repro.experiments.reporting import curve_line

    scale = _scale(args)
    res = prune_curve_experiment(
        args.task, args.model, args.method, scale, **_grid_kwargs(args)
    )
    _report_degraded(res.timing)
    print(f"{args.model} / {args.method.upper()} on synth-{args.task}")
    print(f"parent test error: {100 * res.parent_errors.mean():.2f}%")
    print(curve_line("test error vs PR", res.ratios, res.error_mean))
    row = prune_summary_row(res, scale.delta)
    print(
        f"commensurate operating point: PR={100 * row.prune_ratio:.1f}% "
        f"FR={100 * row.flop_reduction:.1f}% (ΔErr {100 * row.error_delta:+.2f}%)"
    )
    return 0


def cmd_potential(args) -> int:
    from repro.experiments import corruption_potential_experiment
    from repro.utils.tables import format_table

    scale = _scale(args)
    res = corruption_potential_experiment(
        args.task, args.model, args.method, scale, **_grid_kwargs(args)
    )
    _report_degraded(res.timing)
    rows = [
        [d, f"{100 * m:.1f}", f"{100 * s:.1f}"]
        for d, m, s in zip(res.distributions, res.mean, res.std)
    ]
    print(
        format_table(
            ["Distribution", "Potential (%)", "± std"],
            rows,
            title=f"Prune potential — {args.model}/{args.method.upper()} on synth-{args.task}",
        )
    )
    return 0


def cmd_tables(args) -> int:
    from repro.experiments import overparam_table, pr_fr_table

    scale = _scale(args)
    knobs = _grid_kwargs(args)
    methods = args.methods  # None → every registered method
    _, text = pr_fr_table(args.task, [args.model], methods, scale, **knobs)
    print(text)
    print()
    _, text = overparam_table(args.task, [args.model], methods, scale, **knobs)
    print(text)
    return 0


def cmd_methods(args) -> int:
    from repro.pruning import describe_methods

    print(describe_methods())
    return 0


def cmd_verify(args) -> int:
    from repro.experiments.zoo import cache_dir
    from repro.verify import (
        audit_path,
        merge_reports,
        oracle_registry_grad_plan_parity,
        oracle_registry_plan_parity,
    )

    target = args.path if args.path is not None else str(cache_dir())
    report = audit_path(target, deep=args.deep)
    if args.deep:
        # --deep also proves both compiled engines: inference-plan logits
        # must match module logits, and gradient-plan training steps must
        # match the tape (bitwise in exact mode), for every registry
        # model, unpruned, pruned and channel-pruned.
        report = merge_reports(
            report.subject,
            [
                report,
                oracle_registry_plan_parity(),
                oracle_registry_grad_plan_parity(),
            ],
        )
    if args.json is not None:
        from pathlib import Path

        Path(args.json).write_text(report.to_json())
    if args.verbose:
        for result in report.results:
            print(result)
    print(report.summary())
    return 0 if report.passed else 1


def cmd_serve_bench(args) -> int:
    from repro import observe
    from repro.serve import run_serve_bench
    from repro.utils.tables import format_table

    report = run_serve_bench(
        n_requests=args.requests,
        seed=args.seed,
        mean_interarrival=args.mean_interarrival,
        budget_mb=args.budget_mb if args.budget_mb > 0 else None,
        out=args.out,
    )
    load = report["load"]
    rows = [
        ["requests", str(load["n_requests"])],
        ["served ok", str(load["ok"])],
        ["shed", f"{load['shed']} ({100 * load['shed_rate']:.1f}%)"],
        [
            "deadline missed",
            f"{load['deadline_miss']} ({100 * load['deadline_miss_rate']:.1f}%)",
        ],
        ["errors", str(load["errors"])],
        ["lost", str(load["lost"])],
        ["latency p50", f"{load['latency_p50_ms']:.2f} ms"],
        ["latency p99", f"{load['latency_p99_ms']:.2f} ms"],
        ["throughput", f"{load['throughput_rps']:.0f} req/s"],
        ["batches", str(load["batches"])],
        ["batch occupancy", f"mean {load['batch_occupancy']['mean']:.1f} "
         f"max {load['batch_occupancy']['max']}"],
        ["plan memory", f"{report['registry']['plan_memory_bytes'] / 2**20:.1f} MiB "
         f"({report['registry']['evictions']} evictions)"],
        ["bitwise parity", "ok" if report["parity"]["bitwise_equal"] else "FAILED"],
        ["host load 1/5/15 min", ", ".join(
            f"{when} " + "/".join(f"{x:.2f}" for x in report["host_load"][when])
            for when in ("start", "end")
        )],
    ]
    print(
        format_table(
            ["Metric", "Value"],
            rows,
            title=f"serve-bench — {len(report['models'])} models, "
            f"{len(report['shapes'])} shapes, lognormal arrivals",
        )
    )
    if args.out:
        print(f"\nreport: {args.out}")
    ledger = observe.current_ledger_path()
    if ledger is not None:
        print(f"run ledger: {ledger}")
    return 0 if report["parity"]["bitwise_equal"] and load["lost"] == 0 else 1


def cmd_trace(args) -> int:
    from repro.observe import load_report

    try:
        report = load_report(args.path)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    zoo_parser = sub.add_parser("zoo", help="pre-train the cached model zoo")
    _add_grid_flags(zoo_parser)
    zoo_parser.set_defaults(fn=cmd_zoo)

    for name, fn in [("curve", cmd_curve), ("potential", cmd_potential), ("tables", cmd_tables)]:
        p = sub.add_parser(name)
        _add_common(p)
        if name == "tables":
            p.add_argument(
                "--methods",
                default=None,
                type=_method_specs,
                metavar="SPEC[,SPEC...]",
                help="comma-separated registry spec strings "
                "(default: every registered method)",
            )
        p.set_defaults(fn=fn)

    methods_parser = sub.add_parser(
        "methods", help="list registered pruning methods and hyperparameters"
    )
    methods_parser.set_defaults(fn=cmd_methods)

    verify_parser = sub.add_parser(
        "verify", help="audit cached artifacts or a zoo directory"
    )
    verify_parser.add_argument(
        "path",
        nargs="?",
        default=None,
        help="artifact (.npz) or zoo directory (default: the cache dir)",
    )
    verify_parser.add_argument(
        "--deep",
        action="store_true",
        help="also run save/load round-trip oracles per artifact and the "
        "registry plan-parity oracles (compiled inference plans vs modules, "
        "compiled gradient plans vs the autograd tape)",
    )
    verify_parser.add_argument(
        "--json", default=None, help="write the full report to this JSON file"
    )
    verify_parser.add_argument(
        "--verbose", action="store_true", help="print every check, not just failures"
    )
    verify_parser.set_defaults(fn=cmd_verify)

    serve_parser = sub.add_parser(
        "serve-bench",
        help="seeded mixed-traffic load run against the serving layer",
    )
    serve_parser.add_argument(
        "--requests", type=int, default=400, help="arrivals to simulate"
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--mean-interarrival",
        type=float,
        default=0.002,
        help="mean lognormal inter-arrival gap in seconds",
    )
    serve_parser.add_argument(
        "--budget-mb",
        type=float,
        default=48.0,
        help="compiled-plan memory budget in MiB (<=0: unbounded)",
    )
    serve_parser.add_argument(
        "--out",
        default="BENCH_serve.json",
        help="write the JSON report here (default: BENCH_serve.json)",
    )
    serve_parser.set_defaults(fn=cmd_serve_bench)

    trace_parser = sub.add_parser(
        "trace", help="render a run ledger written under REPRO_OBSERVE=1"
    )
    trace_parser.add_argument(
        "path",
        help="ledger file (run-*.jsonl) or a directory of ledgers (newest wins)",
    )
    trace_parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    trace_parser.set_defaults(fn=cmd_trace)

    args = parser.parse_args(argv)
    np.set_printoptions(precision=3, suppress=True)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
