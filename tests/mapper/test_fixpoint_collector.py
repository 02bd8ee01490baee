"""``check_fixpoint`` pauses CPython's cyclic collector.

Its rounds leave no cyclic garbage, so the collections their
allocations would trigger walk the live heap and free nothing.  The
call pauses the collector only when it finds it on and turns it back
on only then, so every caller ends in the state it began in: after a
return or a raise, under concurrent threads, and when the caller keeps
the collector off itself (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import gc
import sys
import threading
from pathlib import Path

import pytest

from repro.cris import cris_schema
from repro.cris.figure6 import figure6_schema
from repro.dsl import parse
from repro.errors import SqlGenerationError
from repro.mapper import check_fixpoint
from repro.workloads import generate_schema
from tests.executor.test_memory_kernels import INDUSTRIAL_SHAPE

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "conference.ridl"

TARGETS = {
    "cris": (cris_schema, {}),
    "figure6": (figure6_schema, {}),
    "conference": (lambda: parse(EXAMPLE.read_text()), {}),
    "industrial": (lambda: generate_schema(INDUSTRIAL_SHAPE, seed=1989), {}),
    "cris-empirical": (cris_schema, {"empirical_scale": 500}),
}


@pytest.fixture
def collector_on():
    assert gc.isenabled()
    yield
    gc.enable()


class TestCollectorState:
    def test_enabled_after_a_return(self, collector_on):
        assert check_fixpoint(figure6_schema()).ok
        assert gc.isenabled()

    def test_enabled_after_a_raise(self, collector_on):
        with pytest.raises(SqlGenerationError):
            check_fixpoint(figure6_schema(), dialect="nope")
        assert gc.isenabled()

    def test_stays_off_when_the_caller_keeps_it_off(self, collector_on):
        gc.disable()
        assert check_fixpoint(figure6_schema()).ok
        assert not gc.isenabled()
        with pytest.raises(SqlGenerationError):
            check_fixpoint(figure6_schema(), dialect="nope")
        assert not gc.isenabled()

    def test_threads_leave_it_enabled(self, collector_on):
        schema = figure6_schema()
        errors: list[Exception] = []

        def work() -> None:
            try:
                for _ in range(3):
                    assert check_fixpoint(schema).ok
            except Exception as exc:  # a thread's failure, reported below
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert gc.isenabled()


@pytest.mark.parametrize("target", TARGETS)
def test_a_repeated_call_leaves_no_cyclic_garbage(target, collector_on):
    build, kwargs = TARGETS[target]
    schema = build()
    # Warm up: the executor's first use in a process leaves about 300
    # import-time objects behind.  Every later call leaves none, which
    # is what makes the pause sound.
    check_fixpoint(schema, **kwargs)
    gc.disable()
    gc.collect()
    report = check_fixpoint(schema, **kwargs)
    assert gc.collect() == 0
    assert report.ok, report.describe()


def test_no_collection_runs_inside_the_call(collector_on):
    schema = generate_schema(INDUSTRIAL_SHAPE, seed=1989)
    generations: list[int] = []

    def record(phase: str, info: dict) -> None:
        if phase == "start":
            generations.append(info["generation"])

    gc.collect()
    gc.callbacks.append(record)
    try:
        check_fixpoint(schema)
    finally:
        gc.callbacks.remove(record)
    assert generations == []
