"""The one process fan-out: task order, grafted spans, merged metrics.

``fan_out`` must give a serial run's results and trace for any worker
count: results and worker spans in task order, worker spans under the
given parent, worker counters added to the parent's.  Only a tracing
parent makes the workers trace.
"""

import os

import pytest

from repro.observability import Tracer, active, count, span, to_json
from repro.observability.fanout import fan_out

TASKS = [3, 1, 4, 1, 5]


def square(n):
    with span("task", n=n):
        count("tasks")
        count("total", n)
    return n * n


def traced_here(_):
    return active() is not None


def traced_run(workers):
    tracer = Tracer("fan-out")
    with tracer.activate(), span("parent") as parent:
        results = fan_out(square, TASKS, workers, parent=parent)
    assert results == [n * n for n in TASKS]
    return tracer


@pytest.mark.parametrize("workers", [1, 2])
def test_results_come_back_in_task_order(workers):
    assert fan_out(square, TASKS, workers) == [9, 1, 16, 1, 25]


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_spans_are_grafted_under_parent_in_task_order(workers):
    (root,) = traced_run(workers).roots
    assert [child.name for child in root.children] == ["task"] * len(TASKS)
    assert [child.attributes["n"] for child in root.children] == TASKS
    pids = {child.pid for child in root.children}
    assert (os.getpid() in pids) == (workers == 1)


def test_deterministic_export_is_byte_identical_for_1_and_2_workers():
    assert to_json(traced_run(1)) == to_json(traced_run(2))


@pytest.mark.parametrize("workers", [1, 2])
def test_metrics_merge_additively(workers):
    counters = traced_run(workers).metrics.snapshot()["counters"]
    assert counters == {"tasks": len(TASKS), "total": sum(TASKS)}


def test_with_tracing_off_nothing_is_recorded():
    """Workers trace only for a tracing parent."""
    assert fan_out(traced_here, [0, 1], 2) == [False, False]
    with Tracer("on").activate():
        assert fan_out(traced_here, [0, 1], 2) == [True, True]

