"""In-process memoization for experiment entry points.

Benches compose experiments (e.g. the overparameterization table reuses the
corruption-potential curves), so top-level experiment functions are memoized
for the lifetime of the process.  Arguments are normalized recursively —
lists/tuples become tuples, dicts and sets become sorted tuples — so e.g. a
``corruptions`` list and the equal tuple hit the same cache entry instead of
silently missing.  Anything else must be hashable (``ExperimentScale`` is a
frozen dataclass).

Execution knobs that cannot change the result (``jobs``, the worker count)
are excluded from the key via ``memoize(ignore=...)``: re-running an
experiment with a different parallelism must hit the cache.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, Mapping, TypeVar

F = TypeVar("F", bound=Callable)


def _normalize(value):
    """Recursively convert containers into hashable, order-canonical keys."""
    if isinstance(value, (list, tuple)):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, dict):
        # Tag the shape so {"a": 1} and (("a", 1),) cannot collide.
        return ("__dict__", tuple(sorted(
            ((k, _normalize(v)) for k, v in value.items()), key=repr
        )))
    if isinstance(value, (set, frozenset)):
        return ("__set__", tuple(sorted((_normalize(v) for v in value), key=repr)))
    return value


def cache_key(args: tuple, kwargs: dict, ignore: tuple[str, ...] = ()) -> tuple:
    """The memoization key for one call: normalized args + sorted kwargs.

    Exposed separately from :func:`memoize` so the key can be inspected and
    regression-tested: it must be a pure function of the call's values —
    stable across processes and sessions — or process-parallel experiment
    grids would silently recompute (or worse, collide on) cells.
    """
    return (
        tuple(_normalize(a) for a in args),
        tuple(sorted(
            (k, _normalize(v)) for k, v in kwargs.items() if k not in ignore
        )),
    )


def memoize(
    fn: F | None = None,
    *,
    ignore: tuple[str, ...] = (),
    normalize: Mapping[str, Callable] | None = None,
) -> F:
    """Cache results keyed by :func:`cache_key` over the call's arguments.

    ``ignore`` names keyword arguments left out of the cache key (pass
    result-neutral knobs like ``jobs`` there as keywords, not
    positionally).

    ``normalize`` maps parameter names to canonicalizers applied before
    keying *and* before the call — e.g. a pruning-method spec string is
    rewritten to its canonical form, so ``"WT(steps=1)"`` and ``"wt"``
    share one cache entry (and one result label) instead of recomputing.
    """
    if fn is None:
        return functools.partial(  # type: ignore[return-value]
            memoize, ignore=ignore, normalize=normalize
        )
    cache: dict = {}
    sig = inspect.signature(fn) if normalize else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        # Lazy import: repro.experiments re-exports through packages that
        # may still be initializing when memoized functions are defined.
        from repro import observe

        if normalize:
            bound = sig.bind(*args, **kwargs)
            for name, canon in normalize.items():
                if name in bound.arguments:
                    bound.arguments[name] = canon(bound.arguments[name])
            args, kwargs = bound.args, bound.kwargs
        key = cache_key(args, kwargs, ignore)
        if key not in cache:
            observe.incr("memo.miss", fn=fn.__name__)
            result = fn(*args, **kwargs)
            # A degraded grid (its timing carries failures, its arrays NaN
            # holes) must not be pinned for the process lifetime: the same
            # call repeated in this process is how an in-process caller
            # recovers, so it must recompute, not replay the holes.
            timing = getattr(result, "timing", None)
            if timing is not None and getattr(timing, "degraded", False):
                observe.incr("memo.degraded_skip", fn=fn.__name__)
                return result
            cache[key] = result
        else:
            observe.incr("memo.hit", fn=fn.__name__)
        return cache[key]

    wrapper.cache_clear = cache.clear  # type: ignore[attr-defined]
    return wrapper  # type: ignore[return-value]
