"""Generate EXPERIMENTS.md: paper-vs-measured for every table and figure.

Runs the full experiment harness at the SMOKE scale (reusing the cached
model zoo; run ``python -m repro zoo`` first) and writes a markdown report pairing
each paper artifact with the reproduced numbers and a shape verdict.

    python benchmarks/generate_experiments_md.py [output_path]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

from repro.data.corruptions import CORRUPTION_CATEGORIES
from repro.experiments import (
    SMOKE,
    backselect_heatmap_experiment,
    corruption_excess_error_experiment,
    corruption_potential_experiment,
    delta_sweep_experiment,
    noise_potential_experiment,
    noise_similarity_experiment,
    overparam_table,
    pr_fr_table,
    prune_curve_experiment,
    robust_excess_error_experiment,
    robust_potential_experiment,
)
from repro.experiments.reporting import sparkline
from repro.pruning import available_methods
from repro.utils.tables import format_table

# The paper's four methods lead the report in its own order; every other
# registered family (lowrank/uniform/random, and anything added later)
# follows automatically.
PAPER_METHODS = ("wt", "sipp", "ft", "pfp")
CURVE_METHODS = (
    *PAPER_METHODS,
    *[m for m in available_methods() if m not in PAPER_METHODS],
)

IMAGENET_CORRUPTIONS = (
    "gaussian_noise", "shot_noise", "defocus_blur", "motion_blur",
    "snow", "fog", "contrast", "jpeg",
)
VOC_CORRUPTIONS = (
    "gaussian_noise", "defocus_blur", "snow", "brightness", "contrast", "jpeg",
)


def section(out: list[str], title: str) -> None:
    out.append(f"\n## {title}\n")


_DIVERGENCES = """
Shape statements that did **not** transfer to this scaled substrate, with
root causes:

1. **ℓ∞-noise prune potential does not collapse** (Fig. 1 / 28 sweep).
   The synthetic generator bakes per-pixel noise into every training image,
   so additive uniform noise at evaluation time is largely
   *in-distribution*: parent and pruned networks degrade in lockstep and
   Definition 1's relative margin stays satisfied. The collapse phenomenon
   appears here for *mean-shifting* corruptions instead (brightness, fog,
   snow), so the headline claim — potential is task-dependent and can
   collapse under shifts the parent tolerates — reproduces on a different
   shift axis.

2. **FT's excess-error slope is negative** (Fig. 6f). Our FT leaves the
   commensurate regime at ~35% PR; past that its *nominal* error saturates
   faster than its corrupted error, pushing ê − e negative — the same
   spurious sign the paper's Appendix D.5 reports for DeeplabV3's FT row.
   WT shows the paper's positive slope.

3. **The synth-VOC task is too easy to discriminate methods** (Table 8):
   all methods reach ≥90% PR at commensurate pixel accuracy.

4. **Robust-vs-nominal potential comparisons invert on already-easy
   corruptions** because the robust parent is stronger, raising Definition
   1's bar. At matched prune ratios the paper's effect is clean: robustly
   retrained pruned networks have strictly lower corrupted error, the
   train/test potential gap closes, minimum held-out potentials lift off
   the floor, and the excess-error slope shrinks.
"""


def main(path: str = "EXPERIMENTS.md") -> int:
    scale = SMOKE
    t0 = time.time()
    out: list[str] = [
        "# EXPERIMENTS — paper vs measured",
        "",
        "Reproduction of every table and figure of *Lost in Pruning* (MLSys",
        "2021) at the calibrated `SMOKE` scale (scaled synthetic tasks,",
        "scaled architecture-family members, CPU). Absolute numbers are not",
        "expected to match the paper — the substrate differs by design (see",
        "DESIGN.md §5) — the *shape* statements are the reproduction targets.",
        "",
        f"Generated by `benchmarks/generate_experiments_md.py` "
        f"(scale digest `{scale.digest()}`).",
    ]

    # ----------------------------------------------------------- Fig. 2 / 9
    section(out, "Fig. 2 / Fig. 9 — prune-accuracy curves (CIFAR role)")
    out.append("Paper: WT/SiPP hold accuracy to ~85–98% PR on ResNet20; FT/PFP")
    out.append("degrade far earlier; all methods eventually collapse.\n")
    out.append("Measured (ResNet20, mean test error over 2 repetitions):\n")
    rows = []
    curves = {}
    for method in CURVE_METHODS:
        res = prune_curve_experiment("cifar", "resnet20", method, scale)
        curves[method] = res
        rows.append(
            [
                method.upper(),
                f"{100 * res.parent_errors.mean():.1f}",
                sparkline(res.error_mean),
                f"{100 * res.error_mean[0]:.1f} → {100 * res.error_mean[-1]:.1f}",
            ]
        )
    out.append(format_table(
        ["Method", "Parent err (%)", "err vs PR", "first → last (%)"], rows))
    out.append(f"\nPR grid: {np.round(curves['wt'].ratios, 2).tolist()}")

    # --------------------------------------------------------- Tables 4/6/8
    for task, models, label, paper_note in [
        ("cifar", ["resnet20", "vgg16", "wrn16_8"], "Table 4 (CIFAR)",
         "paper PR at δ=0.5%: ResNet20 WT 84.9 / FT 52.1; VGG16 WT 97.9 / FT 61.4; WRN16-8 WT 95.2 / FT 76.8"),
        ("imagenet", ["resnet18"], "Table 6 (ImageNet role)",
         "paper PR: ResNet18 WT 85.8 / FT 13.7"),
        ("voc", ["deeplab_small"], "Table 8 (VOC role)",
         "paper PR: DeeplabV3 WT 58.9 / FT 0.0"),
    ]:
        section(out, f"{label} — PR/FR at commensurate accuracy")
        out.append(f"Paper: {paper_note}.\n")
        t_scale = scale if task == "cifar" else scale.with_(n_repetitions=1)
        # CIFAR enumerates the whole registry (methods=None); the larger
        # tasks stay on the paper's WT/FT pair to bound generation time.
        methods = None if task == "cifar" else ["wt", "ft"]
        _, text = pr_fr_table(task, models, methods, t_scale)
        out.append("Measured:\n")
        out.append(text)

    # ------------------------------------------------------------ Fig. 3
    section(out, "Fig. 3 — informative-feature heatmap (BackSelect)")
    out.append("Paper: parent's informative pixels support confident predictions")
    out.append("by its pruned children but not by a separately trained network;")
    out.append("pruned networks' pixels transfer back to the parent.\n")
    hm = backselect_heatmap_experiment("cifar", "resnet20", "wt", scale, n_pruned=4)
    rows = [[hm.labels[i]] + [f"{v:.2f}" for v in hm.heatmap[i]] for i in range(len(hm.labels))]
    out.append("Measured (row = pixel source, column = evaluator, mean true-class confidence):\n")
    out.append(format_table(["pixels from \\ eval on", *hm.labels], rows))
    sep = hm.separate_index()
    pruned_cols = list(range(1, sep))
    out.append(
        f"\nShape check: parent→pruned mean {hm.heatmap[0, pruned_cols].mean():.2f} "
        f"vs parent→separate {hm.heatmap[0, sep]:.2f} "
        f"({'OK' if hm.heatmap[0, pruned_cols].mean() > hm.heatmap[0, sep] else 'MISMATCH'})"
    )

    # ------------------------------------------------------------ Fig. 4
    section(out, "Fig. 4 — functional similarity under noise")
    out.append("Paper: pruned nets match the parent's predictions far more than a")
    out.append("separately trained net; similarity decreases with prune ratio.\n")
    sim = noise_similarity_experiment("cifar", "resnet20", "wt", scale)
    rows = [
        [f"PR={r:.2f}", f"{sim.match_rates[k].mean():.2f}", f"{sim.l2_distances[k].mean():.3f}"]
        for k, r in enumerate(sim.ratios)
    ]
    rows.append(["separate", f"{sim.separate_match_rates.mean():.2f}",
                 f"{sim.separate_l2_distances.mean():.3f}"])
    out.append("Measured (averaged over noise levels "
               f"{list(sim.noise_levels)}):\n")
    out.append(format_table(["Network", "match rate", "softmax L2"], rows))

    # ------------------------------------------------------- Fig. 1/5/28
    section(out, "Fig. 1 / 5 / 28 — prune potential vs input noise")
    out.append("Paper: potential collapses to ~0% as ℓ∞ noise grows, although a")
    out.append("human (here: a generator-aware template classifier) still")
    out.append("classifies the noisy images; WRN16-8's potential is noise-stable.\n")
    rows = []
    for model in ("resnet20", "wrn16_8"):
        res = noise_potential_experiment("cifar", model, "wt", scale)
        rows.append([model, *[f"{100 * p:.0f}" for p in res.mean]])
    out.append("Measured WT potential (%) per noise level "
               f"{list(scale.noise_levels)}:\n")
    out.append(format_table(["Model", *[f"ε={e:.1f}" for e in scale.noise_levels]], rows))

    # ---------------------------------------------------------- Fig. 6 / 7
    section(out, "Fig. 6 / 7 / App. D.2-D.3 — potential per corruption")
    out.append("Paper: noise-family corruptions drive the potential to ~0; mild")
    out.append("digital corruptions preserve it; variance is larger on the")
    out.append("ImageNet-scale task.\n")
    for task, model, corr in [
        ("cifar", "resnet20", None),
        ("imagenet", "resnet18", IMAGENET_CORRUPTIONS),
    ]:
        t_scale = scale if task == "cifar" else scale.with_(n_repetitions=1)
        res = corruption_potential_experiment(task, model, "wt", t_scale, corruptions=corr)
        rows = [
            [d, f"{100 * m:.0f}", f"{100 * s:.0f}"]
            for d, m, s in zip(res.distributions, res.mean, res.std)
        ]
        out.append(f"\nMeasured — {model} on synth-{task} (WT potential %):\n")
        out.append(format_table(["Distribution", "mean", "std"], rows))
    res_voc = corruption_potential_experiment(
        "voc", "deeplab_small", "wt", scale.with_(n_repetitions=1),
        corruptions=VOC_CORRUPTIONS,
    )
    rows = [[d, f"{100 * m:.0f}"] for d, m in zip(res_voc.distributions, res_voc.mean)]
    out.append("\nMeasured — DeeplabV3 role on synth-VOC (Fig. 37):\n")
    out.append(format_table(["Distribution", "WT potential (%)"], rows))

    # --------------------------------------------------------- Fig. 6c / D.5
    section(out, "Fig. 6c/6f / App. D.5 — difference in excess error")
    out.append("Paper: ê − e grows with prune ratio (up to ~2–3% for ResNet20);")
    out.append("positive OLS slope through the origin with bootstrap CIs.\n")
    rows = []
    for method in ("wt", "ft"):
        res = corruption_excess_error_experiment("cifar", "resnet20", method, scale)
        lo, hi = res.slope_ci
        rows.append(
            [
                method.upper(),
                f"{res.slope:+.4f}",
                f"[{lo:+.4f}, {hi:+.4f}]",
                f"{100 * res.differences.mean(axis=0)[-1]:+.1f}",
            ]
        )
    out.append(format_table(
        ["Method", "OLS slope", "95% CI", "Δexcess err @ max PR (%)"], rows))

    # -------------------------------------------------------------- Fig. 38
    section(out, "Fig. 38 / App. D.4 — δ sensitivity")
    out.append("Paper: potentials grow with δ but the cross-distribution trends")
    out.append("are unchanged; δ = 0.5% used everywhere.\n")
    ds = delta_sweep_experiment(
        "cifar", "resnet20", "wt", scale,
        deltas=(0.0, 0.005, 0.01, 0.02, 0.05),
        corruptions=["gaussian_noise", "jpeg"],
    )
    mean = ds.mean()
    rows = [
        [f"{d:.3f}", *[f"{100 * v:.0f}" for v in mean[j]]]
        for j, d in enumerate(ds.deltas)
    ]
    out.append(format_table(["δ", *ds.distributions], rows))

    # ----------------------------------------------------- Tables 2/9/10
    section(out, "Tables 2 / 9 / 10 — overparameterization (nominal training)")
    out.append("Paper: ~20-point drop in average potential from train to test")
    out.append("distribution; minimum test-distribution potential is 0% for most")
    out.append("nets; WRN16-8 is the stable outlier.\n")
    _, text = overparam_table("cifar", ["resnet20", "wrn16_8"], ["wt", "ft"], scale)
    out.append(text)

    # ------------------------------------------------- Fig. 8, Tables 12/13
    section(out, "Fig. 8 / Tables 12 / 13 — robust (re-)training")
    out.append("Paper: robust training recovers potential on train-distribution")
    out.append("corruptions, narrows the train/test gap, lifts minimum potentials")
    out.append("off 0%, and shrinks the excess-error slope.\n")
    _, text = overparam_table("cifar", ["resnet20"], ["wt", "ft"], scale, robust=True)
    out.append(text)
    rp = robust_potential_experiment("cifar", "resnet20", "wt", scale)
    out.append(
        f"\nRobust WT ResNet20: avg train-dist potential "
        f"{100 * rp.train_dist_potentials().mean():.0f}%, avg held-out "
        f"{100 * rp.test_dist_potentials().mean():.0f}%."
    )
    ree = robust_excess_error_experiment("cifar", "resnet20", "wt", scale)
    nee = corruption_excess_error_experiment("cifar", "resnet20", "wt", scale)
    out.append(
        f"\nExcess-error slope: nominal {nee.slope:+.4f} → robust {ree.slope:+.4f} "
        f"({'shrinks, OK' if ree.slope < nee.slope else 'MISMATCH'})."
    )

    # -------------------------------------------------------- divergences
    section(out, "Divergences from the paper (and why)")
    out.append(_DIVERGENCES.strip())

    # ------------------------------------------------------------ footer
    section(out, "Evaluation substrate")
    out.append("Every eval loop above (curves, potentials, excess error,")
    out.append("similarity, heatmaps) runs through the `repro.infer` compiled")
    out.append("inference engine (no autograd tape, BatchNorm folded, masked")
    out.append("weights densified); `pytest benchmarks/test_bench_infer.py`")
    out.append("records the module-vs-engine speedup in `BENCH_infer.json`.")
    bench = Path(__file__).resolve().parent.parent / "BENCH_infer.json"
    if bench.exists():
        import json

        data = json.loads(bench.read_text())
        out.append(
            f"Last measured best speedup: {data['best_speedup']:.2f}x "
            f"(batch {data['batch_size']})."
        )
    out.append("")
    out.append("Every training loop (zoo cells, per-prune-step retraining)")
    out.append("runs through the `repro.infer.grad` compiled gradient plans")
    out.append("by default: forward, backward, BatchNorm batch statistics,")
    out.append("and the SGD update replayed as a flat kernel list, validated")
    out.append("against the autograd tape (bitwise in exact mode) before")
    out.append("serving. `pytest benchmarks/test_bench_train.py` records the")
    out.append("tape-vs-compiled per-step speedup in `BENCH_train.json`.")
    bench_train = Path(__file__).resolve().parent.parent / "BENCH_train.json"
    if bench_train.exists():
        import json

        data = json.loads(bench_train.read_text())
        best_name = max(
            data["models"], key=lambda k: data["models"][k]["speedup"]
        )
        out.append(
            f"Last measured best speedup: {data['best_speedup']:.2f}x "
            f"({best_name}, batch {data['batch_size']})."
        )
    out.append("")
    out.append("The serving layer (`repro.serve`) is load-tested nightly:")
    out.append("`python -m repro serve-bench` (or `pytest")
    out.append("benchmarks/test_bench_serve.py`) drives seeded lognormal")
    out.append("heavy-tail traffic — three pruned registry models x two input")
    out.append("shapes, dynamic batching on a virtual clock — and writes")
    out.append("`BENCH_serve.json`. SLO fields: `latency_p50_ms` /")
    out.append("`latency_p99_ms` (request latency through the batching path),")
    out.append("`throughput_rps`, `shed_rate` (backpressure drops),")
    out.append("`deadline_miss_rate`, `batch_occupancy` (mean/max/histogram of")
    out.append("rows per executed batch), plus the registry's plan-memory and")
    out.append("eviction counts and a `parity` block asserting served")
    out.append("responses are bitwise equal to direct `engine_for` calls.")
    bench_serve = Path(__file__).resolve().parent.parent / "BENCH_serve.json"
    if bench_serve.exists():
        import json

        data = json.loads(bench_serve.read_text())
        load = data["load"]
        out.append(
            f"Last measured: p50 {load['latency_p50_ms']:.1f}ms / "
            f"p99 {load['latency_p99_ms']:.1f}ms, "
            f"{load['throughput_rps']:.0f} req/s, "
            f"occupancy mean {load['batch_occupancy']['mean']:.1f}, "
            f"{load['shed']} shed, {load['lost']} lost "
            f"({load['n_requests']} requests)."
        )
    out.append(f"\n---\nTotal generation time: {time.time() - t0:.0f}s.\n")
    Path(path).write_text("\n".join(out) + "\n")
    print(f"wrote {path} in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
