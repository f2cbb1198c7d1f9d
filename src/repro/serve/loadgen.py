"""Open-loop load harness: seeded heavy-tail traffic against a server.

Arrivals are lognormal (heavy-tailed — bursts and lulls, like real
request streams) and scheduled up front, whatever the server does;
traffic mixes several models and input shapes, and the whole run
executes on the server's :class:`~repro.serve.clock.VirtualClock`: the
harness fast-forwards between events, so a run simulating minutes of
traffic finishes in however long the engine calls themselves take, and
with an injected service-time model it is bit-for-bit reproducible.

:func:`run_load` drives one profile and returns a :class:`LoadReport`
(p50/p99 latency from each request's scheduled arrival, throughput,
shed/deadline-miss rates, batch-occupancy histogram, zero-lost
accounting).  :func:`run_serve_bench` is the
``python -m repro serve-bench`` scenario: a three-model, two-shape zoo
with synthetic Def.-1 safety contexts, ending in a bitwise parity audit
of served responses against direct ``engine_for`` calls and a
``BENCH_serve.json`` report.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import observe
from repro.serve.batcher import TERMINAL, PendingResponse
from repro.serve.clock import VirtualClock
from repro.serve.registry import ModelKey, ModelZooRegistry
from repro.serve.safety import safety_from_arrays
from repro.serve.server import PruneServer, ServeConfig


@dataclass(frozen=True)
class TrafficMix:
    """One traffic class: a model key, a row shape, and a sampling weight."""

    key: str
    row_shape: tuple[int, ...]
    weight: float = 1.0


@dataclass
class LoadProfile:
    """A seeded traffic scenario.

    ``mean_interarrival``/``sigma`` parameterize the lognormal arrival
    process (the mean is the *actual* mean gap; ``sigma`` controls tail
    heaviness).  Each request carries 1–``max_rows`` rows drawn uniformly.
    """

    mixes: list[TrafficMix]
    n_requests: int = 500
    mean_interarrival: float = 0.002
    sigma: float = 1.2
    max_rows: int = 4
    deadline: float | None = None  # None: the server's default
    seed: int = 0

    def __post_init__(self):
        if not self.mixes:
            raise ValueError("LoadProfile needs at least one TrafficMix")
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {self.n_requests}")
        if self.mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when, what model/shape, how many rows."""

    t: float
    mix: TrafficMix
    rows: int


def generate_arrivals(profile: LoadProfile) -> list[Arrival]:
    """The deterministic arrival schedule for ``profile``.

    Lognormal inter-arrival gaps with ``mu = ln(mean) - sigma²/2`` so the
    configured mean is the distribution's true mean; mixes are drawn by
    weight, request sizes uniformly in ``[1, max_rows]``.
    """
    rng = np.random.default_rng(profile.seed)
    mu = float(np.log(profile.mean_interarrival) - profile.sigma**2 / 2.0)
    gaps = rng.lognormal(mean=mu, sigma=profile.sigma, size=profile.n_requests)
    times = np.cumsum(gaps)
    weights = np.array([m.weight for m in profile.mixes], dtype=float)
    weights /= weights.sum()
    picks = rng.choice(len(profile.mixes), size=profile.n_requests, p=weights)
    rows = rng.integers(1, profile.max_rows + 1, size=profile.n_requests)
    return [
        Arrival(t=float(times[i]), mix=profile.mixes[picks[i]], rows=int(rows[i]))
        for i in range(profile.n_requests)
    ]


@dataclass
class LoadReport:
    """Outcome of one load run; ``lost`` must always be zero.

    Latencies run from each request's scheduled arrival to its
    completion, so time a request spent waiting to be submitted behind a
    batch that held the clock past its arrival counts against the server.
    """

    n_requests: int
    ok: int
    shed: int
    deadline_miss: int
    errors: int
    lost: int
    duration_s: float
    latency_p50_s: float
    latency_p99_s: float
    latency_mean_s: float
    throughput_rps: float
    occupancy_mean: float
    occupancy_max: int
    occupancy_hist: dict[int, int]
    retries: int
    batches: int
    per_model: dict[str, int] = field(default_factory=dict)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.n_requests

    @property
    def deadline_miss_rate(self) -> float:
        return self.deadline_miss / self.n_requests

    def to_dict(self) -> dict:
        out = {
            "n_requests": self.n_requests,
            "ok": self.ok,
            "shed": self.shed,
            "deadline_miss": self.deadline_miss,
            "errors": self.errors,
            "lost": self.lost,
            "duration_s": round(self.duration_s, 6),
            "latency_p50_ms": round(1e3 * self.latency_p50_s, 4),
            "latency_p99_ms": round(1e3 * self.latency_p99_s, 4),
            "latency_mean_ms": round(1e3 * self.latency_mean_s, 4),
            "throughput_rps": round(self.throughput_rps, 2),
            "shed_rate": round(self.shed_rate, 4),
            "deadline_miss_rate": round(self.deadline_miss_rate, 4),
            "batch_occupancy": {
                "mean": round(self.occupancy_mean, 3),
                "max": self.occupancy_max,
                "hist": {str(k): v for k, v in sorted(self.occupancy_hist.items())},
            },
            "retries": self.retries,
            "batches": self.batches,
            "per_model": dict(sorted(self.per_model.items())),
        }
        return out


def run_load(
    server: PruneServer,
    profile: LoadProfile,
    keep_responses: bool = False,
) -> "LoadReport | tuple[LoadReport, list]":
    """Drive ``profile`` through ``server`` to completion.

    Interleaves scheduled arrivals with due batch flushes on the server's
    clock, then drains.  A request is submitted at its arrival, or as
    soon as the batch holding the clock past it ends.  With
    ``keep_responses`` the per-request ``(Arrival, images,
    PendingResponse)`` triples come back too, for parity audits against
    direct engine calls.
    """
    rng = np.random.default_rng(profile.seed + 1)
    arrivals = generate_arrivals(profile)
    records: list[tuple[Arrival, np.ndarray, PendingResponse]] = []
    submitted: list[float] = []  # clock instant of each submit
    start = server.clock.now()
    with observe.span("serve.load", requests=profile.n_requests):
        for arrival in arrivals:
            while True:
                due = server.next_due()
                if due is None or due > start + arrival.t:
                    break
                server.clock.advance_to(due)
                server.pump()
            server.clock.advance_to(start + arrival.t)
            images = rng.standard_normal(
                (arrival.rows,) + tuple(arrival.mix.row_shape)
            ).astype(np.float32)
            submitted.append(server.clock.now())
            response = server.submit(
                arrival.mix.key, images, deadline=profile.deadline
            )
            records.append((arrival, images, response))
            server.pump()  # full batches flush immediately
        server.run_until_idle()
    report = _summarize(server, records, submitted, start)
    return (report, records) if keep_responses else report


def _summarize(
    server: PruneServer,
    records: list,
    submitted: list[float],
    start: float,
) -> LoadReport:
    statuses = [resp.status for _, _, resp in records]
    lost = sum(1 for s in statuses if s not in TERMINAL)
    # A response's own latency runs from its submit; completion minus the
    # scheduled arrival also charges the wait to be submitted.
    latencies = np.array([
        sent + resp.latency - (start + arrival.t)
        for (arrival, _, resp), sent in zip(records, submitted)
        if resp.status == "ok"
    ])
    metrics = server.metrics()
    occupancies = metrics["occupancies"]
    hist: dict[int, int] = {}
    for rows in occupancies:
        hist[rows] = hist.get(rows, 0) + 1
    per_model: dict[str, int] = {}
    for arrival, _, _ in records:
        per_model[arrival.mix.key] = per_model.get(arrival.mix.key, 0) + 1
    duration = max(server.clock.now() - start, 1e-12)
    n_ok = int((np.array(statuses) == "ok").sum())
    report = LoadReport(
        n_requests=len(records),
        ok=n_ok,
        shed=statuses.count("shed"),
        deadline_miss=statuses.count("deadline"),
        errors=statuses.count("error"),
        lost=lost,
        duration_s=duration,
        latency_p50_s=float(np.percentile(latencies, 50)) if n_ok else float("nan"),
        latency_p99_s=float(np.percentile(latencies, 99)) if n_ok else float("nan"),
        latency_mean_s=float(latencies.mean()) if n_ok else float("nan"),
        throughput_rps=n_ok / duration,
        occupancy_mean=float(np.mean(occupancies)) if occupancies else 0.0,
        occupancy_max=int(max(occupancies)) if occupancies else 0,
        occupancy_hist=hist,
        retries=metrics["retries"],
        batches=metrics["batches"],
        per_model=per_model,
    )
    observe.event("serve.load_report", **report.to_dict())
    return report


# ----------------------------------------------------------------- benchmark

BENCH_MODELS = ("resnet20", "resnet56", "densenet22")
BENCH_SHAPES = ((3, 8, 8), (3, 16, 16))
BENCH_BATCH_SIZE = 32


BENCH_PRUNE_RATIO = 0.5


def _bench_methods() -> list[str]:
    """Every data-free registered method (the bench has no training data)."""
    from repro.pruning import available_methods, method_spec

    return [
        name
        for name in available_methods()
        if not method_spec(name).data_informed
    ]


def _synthetic_safety(name: str, seed: int):
    """A seeded Def.-1 context: nominal + three hold-out shift curves."""
    rng = np.random.default_rng(seed)
    ratios = np.linspace(0.1, 0.9, 9)
    parent = {"nominal": 0.08, "gaussian_noise": 0.12, "fog": 0.15, "jpeg": 0.10}
    errors = {}
    for i, dist in enumerate(parent):
        # Error stays flat then ramps past a per-distribution knee; shifts
        # break earlier than the nominal set, as in the paper's Fig. 6.
        knee = max(0.2, 0.85 - 0.2 * i - 0.1 * rng.random())
        ramp = np.clip(ratios - knee, 0.0, None) * (0.5 + 0.5 * rng.random())
        errors[dist] = parent[dist] + ramp
    return safety_from_arrays(ratios, errors, parent, delta=0.005)


def build_bench_registry(
    seed: int = 0,
    budget_mb: float | None = 48.0,
    models: tuple[str, ...] = BENCH_MODELS,
) -> ModelZooRegistry:
    """The serve-bench zoo: pruned registry models + synthetic safety.

    Each model is pruned to :data:`BENCH_PRUNE_RATIO` by a real registry
    method — the bench cycles through every data-free family, so the
    serving layer is exercised over the same masks (unstructured,
    per-layer uniform, random, and structured low-rank) the experiments
    produce, not a bespoke median cut.
    """
    from repro.models.registry import build_model
    from repro.pruning import build_method

    registry = ModelZooRegistry(
        memory_budget_bytes=(
            None if budget_mb is None else int(budget_mb * 2**20)
        ),
        batch_size=BENCH_BATCH_SIZE,
    )
    methods = _bench_methods()
    for i, name in enumerate(models):
        method_name = methods[i % len(methods)]
        model = build_model(name, rng=np.random.default_rng(seed + i))
        build_method(method_name).prune(model, BENCH_PRUNE_RATIO)
        registry.register(
            ModelKey(name, method_name, BENCH_PRUNE_RATIO),
            model,
            safety=_synthetic_safety(name, seed + i),
        )
    return registry


def run_serve_bench(
    n_requests: int = 400,
    seed: int = 0,
    mean_interarrival: float = 0.002,
    budget_mb: float | None = 48.0,
    parity_samples: int = 32,
    out: str | Path | None = None,
) -> dict:
    """The ``serve-bench`` scenario: mixed traffic, SLO report, parity audit.

    Three pruned models × two input shapes under seeded lognormal
    arrivals on a virtual clock; measured engine time is charged to the
    clock, so latencies reflect real service cost while the schedule
    itself needs no wall-clock waiting.  A seeded sample of served
    responses is re-computed through direct ``engine_for`` calls and must
    match **bitwise**.  Returns the full report dict (also written to
    ``out`` as JSON when given).  Other processes on the host slow the
    measured engine time, and so inflate the latencies: ``host_load``
    records the 1/5/15-minute load averages at the start and the end of
    the run.
    """
    load_at_start = os.getloadavg()
    registry = build_bench_registry(seed=seed, budget_mb=budget_mb)
    keys = registry.keys()
    server = PruneServer(
        registry,
        ServeConfig(max_wait=0.004, max_pending=512, default_deadline=0.5),
        VirtualClock(),
    )
    for key in keys:
        registry.warm(key, list(BENCH_SHAPES))
    profile = LoadProfile(
        mixes=[
            TrafficMix(key, shape) for key in keys for shape in BENCH_SHAPES
        ],
        n_requests=n_requests,
        mean_interarrival=mean_interarrival,
        seed=seed,
    )
    report, records = run_load(server, profile, keep_responses=True)
    parity = audit_parity(registry, records, n_samples=parity_samples, seed=seed)
    result = {
        "models": keys,
        "shapes": [list(s) for s in BENCH_SHAPES],
        "batch_size": BENCH_BATCH_SIZE,
        "arrivals": {
            "process": "lognormal",
            "mean_interarrival_s": mean_interarrival,
            "sigma": profile.sigma,
            "seed": seed,
        },
        "load": report.to_dict(),
        "registry": registry.stats(),
        "buckets": {key: _bucket_report(registry.engine(key)) for key in keys},
        "parity": parity,
        "safety": {
            key: registry.safety_context(key).to_dict() for key in keys
        },
        "host_load": {"start": list(load_at_start), "end": list(os.getloadavg())},
    }
    if out is not None:
        Path(out).write_text(json.dumps(result, indent=2) + "\n")
    return result


def _bucket_report(engine) -> dict:
    """Per row shape: the licensed row buckets, and the resident plans
    with their resident bytes (constants and conv scratch)."""
    report = {}
    for shape in BENCH_SHAPES:
        plans = [
            nbytes for (row_shape, _), nbytes in engine.plan_stats().items()
            if row_shape == shape
        ]
        report["x".join(map(str, shape))] = {
            "licensed_rows": engine.licensed_buckets(shape),
            "resident_plans": len(plans),
            "plan_bytes": sum(plans),
        }
    return report


def audit_parity(
    registry: ModelZooRegistry,
    records: list,
    n_samples: int = 32,
    seed: int = 0,
) -> dict:
    """Bitwise-compare a sample of served responses to direct engine calls.

    Uses the model's shared ``engine_for`` engine — the same one the
    server batched through.  A direct call of one request usually pads to
    a smaller row bucket than the coalesced batch it was served in, so any
    mismatch means a licensed bucket or the padding changed the
    arithmetic, which the bucket licenses forbid.
    """
    from repro.infer import engine_for

    served = [(a, images, r) for a, images, r in records if r.status == "ok"]
    if not served:
        return {"sampled": 0, "bitwise_equal": True, "mismatches": 0}
    rng = np.random.default_rng(seed)
    picks = rng.choice(
        len(served), size=min(n_samples, len(served)), replace=False
    )
    mismatches = 0
    for i in picks:
        arrival, images, response = served[i]
        direct = engine_for(registry.model(arrival.mix.key)).logits(images)
        if not np.array_equal(direct, response.value):
            mismatches += 1
    return {
        "sampled": int(len(picks)),
        "bitwise_equal": mismatches == 0,
        "mismatches": mismatches,
    }
