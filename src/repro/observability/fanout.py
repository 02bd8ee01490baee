"""One process fan-out, traced as if it had run in-process.

The option advisor explores its binary groups, and the validation
harness checks rule shards and replays injection shards, in worker
processes.  All three go through :func:`fan_out`.  It maps a
module-level function over picklable tasks on a
:class:`concurrent.futures.ProcessPoolExecutor`.  When the parent is
tracing, each worker runs its task under a :class:`Tracer` of its
own, and the parent grafts the worker's spans under one parent span
and merges its metrics, in task order, so the deterministic export
of the trace does not depend on the worker count.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import TypeVar

from repro.observability.tracer import Span, Tracer, active

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None, tasks: int) -> int:
    """The effective worker count: ``None`` auto-sizes to the CPU
    count, and never more workers than tasks."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(workers, max(1, tasks)))


def _traced(fn: Callable[[T], R], task: T) -> tuple[R, list, dict]:
    """Run one task in a worker under a tracer of its own; return the
    result with the spans and metrics it recorded."""
    collector = Tracer("worker")
    with collector.activate():
        result = fn(task)
    return result, collector.export_spans(), collector.metrics.snapshot()


def fan_out(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    workers: int | None,
    *,
    parent: Span | None = None,
) -> list[R]:
    """``[fn(task) for task in tasks]``, over worker processes when
    ``workers`` resolves to more than one (see :func:`resolve_workers`).

    ``fn`` must be a module-level function and the tasks and results
    picklable.  The results come back in task order.  When tracing,
    the workers' spans are grafted under ``parent`` in task order, and
    their counters are added to the parent's.  The in-process path
    records straight onto the active tracer, under the current span,
    so both paths leave the same trace when ``parent`` is the current
    span (the default).
    """
    workers = resolve_workers(workers, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    tracer = active()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        if tracer is None:
            return list(pool.map(fn, tasks))
        traced = list(pool.map(partial(_traced, fn), tasks))
    results = []
    for result, spans, metrics in traced:
        tracer.adopt(spans, parent=parent)
        tracer.metrics.merge(metrics)
        results.append(result)
    return results
