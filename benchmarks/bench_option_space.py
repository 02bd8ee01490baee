"""Exploring the section-4.2 option lattice: advisor vs. naive sweep.

The engineer of section 4.2 "turns and twists" the mapping options
and inspects each result.  Done naively — one full ``map_schema``
per candidate, serially — evaluating a 24-candidate lattice on the
industrial-scale schema costs 24 full pipeline runs.  The advisor
exploits the structure of the lattice instead: candidates agreeing
on the scope and the effective sublink policies share one binary
phase, those also agreeing on the null policy and the lexical
choices share one plan synthesis, the combine/omit suffixes fork
from the prefix snapshot and are scored on their relation plans (no
per-candidate materialization), and the independent binary groups
fan out over a process pool.

Reproduced claims: the ranked winner is identical however the
exploration runs (serial, parallel, or naive), and the advisor beats
the naive sweep by the factor recorded in ``BENCH_option_space.json``
— the prefix-reuse win and the parallelism win are reported
separately, so a single-core runner shows an honest 1.0x for the
latter.
"""

import os
from statistics import median
from time import perf_counter

import pytest

from bench_industrial_scale import INDUSTRIAL_SHAPE, calibration_time
from conftest import emit
from repro.mapper import (
    NullPolicy,
    SublinkPolicy,
    advise,
    enumerate_options,
    map_schema,
    score_plan,
)
from repro.mapper.engine import binary_key
from repro.mapper.optionspace import discover_space
from repro.workloads import generate_schema

#: The acceptance floor for the combined advisor win on the
#: industrial lattice.  Locally the margin is comfortable (the
#: recorded figure is the point); the assertion keeps a safety gap
#: for noisy shared runners.
MIN_COMBINED_SPEEDUP = 2.5

#: Timed runs per advisor configuration; their median is the figure
#: recorded, so one run slowed by a noisy neighbour does not move it.
TIMED_RUNS = 3


@pytest.fixture(scope="module")
def industrial_schema():
    return generate_schema(INDUSTRIAL_SHAPE, seed=1989)


@pytest.fixture(scope="module")
def space(industrial_schema):
    """A 24-candidate lattice: 6 prefix groups x 4 omit suffixes."""
    discovered = discover_space(
        industrial_schema,
        null_policies=(NullPolicy.DEFAULT, NullPolicy.NOT_IN_KEYS),
        sublink_policies=(
            SublinkPolicy.SEPARATE,
            SublinkPolicy.TOGETHER,
            SublinkPolicy.INDICATOR,
        ),
        max_omit_toggles=2,
    )
    assert len(discovered.omit_toggles) == 2
    return discovered


def median_wall(run):
    """The median wall seconds of :data:`TIMED_RUNS` calls, and the
    last call's result."""
    walls = []
    for _ in range(TIMED_RUNS):
        started = perf_counter()
        result = run()
        walls.append(perf_counter() - started)
    return median(walls), result


def naive_sweep(schema, candidates):
    """One full map_schema per candidate, serially — the baseline the
    advisor replaces.  Failures are tolerated the same way the
    advisor tolerates them, and each result is scored so both sides
    do the full ranking work."""
    outcomes = []
    for options in candidates:
        try:
            result = map_schema(schema, options)
            outcomes.append((options, score_plan(result.plan)))
        except Exception as exc:
            outcomes.append((options, exc))
    return outcomes


def test_option_space_exploration(industrial_schema, space):
    candidates = enumerate_options(space)
    assert len(candidates) >= 24

    started = perf_counter()
    naive = naive_sweep(industrial_schema, candidates)
    naive_wall = perf_counter() - started

    serial_wall, serial_report = median_wall(
        lambda: advise(industrial_schema, space, workers=1)
    )

    workers = min(4, os.cpu_count() or 1)
    parallel_wall, parallel_report = median_wall(
        lambda: advise(industrial_schema, space, workers=workers)
    )
    binary_groups = len(
        {binary_key(industrial_schema, options) for options in candidates}
    )

    # Identical rankings however the lattice is explored.
    assert serial_report.to_json() == parallel_report.to_json()
    naive_scored = [
        (options, score)
        for options, score in naive
        if not isinstance(score, Exception)
    ]
    naive_best = min(
        naive_scored, key=lambda item: (item[1].total, item[0].describe())
    )
    assert serial_report.winner_options == naive_best[0].canonical()
    assert serial_report.winner.score.total == naive_best[1].total

    prefix_reuse_speedup = naive_wall / serial_wall
    parallel_speedup = serial_wall / parallel_wall
    combined_speedup = naive_wall / parallel_wall
    best_wall = min(serial_wall, parallel_wall)
    assert naive_wall / best_wall >= MIN_COMBINED_SPEEDUP

    emit(
        "§4.2 — exploring the mapping-option lattice "
        f"({len(candidates)} candidates, industrial schema)",
        [
            f"candidates: {len(candidates)} in "
            f"{serial_report.prefix_groups} prefix groups, "
            f"{binary_groups} binary groups "
            f"({len(serial_report.failures)} inadmissible)",
            f"naive serial sweep (full map_schema each): {naive_wall:.3f}s",
            f"advisor, serial (prefix reuse + plan scoring), median of "
            f"{TIMED_RUNS}: {serial_wall:.3f}s -> "
            f"{prefix_reuse_speedup:.1f}x",
            f"advisor, {workers} workers, median of {TIMED_RUNS}: "
            f"{parallel_wall:.3f}s -> "
            f"{parallel_speedup:.2f}x over serial advisor",
            f"combined: {combined_speedup:.1f}x over the naive sweep",
            f"winner: {serial_report.winner.label}",
        ],
        data={
            "candidates": len(candidates),
            "prefix_groups": serial_report.prefix_groups,
            "binary_groups": binary_groups,
            "timed_runs": TIMED_RUNS,
            "failures": len(serial_report.failures),
            "naive_serial_wall_s": round(naive_wall, 4),
            "advisor_serial_wall_s": round(serial_wall, 4),
            "advisor_parallel_wall_s": round(parallel_wall, 4),
            "advisor_workers": workers,
            "prefix_reuse_speedup": round(prefix_reuse_speedup, 2),
            "parallel_speedup": round(parallel_speedup, 2),
            "combined_speedup": round(combined_speedup, 2),
            "winner": serial_report.winner.label,
            "winner_total": serial_report.winner.score.total,
            "advisor_wall_s": round(best_wall, 4),
            "calibration_s": round(calibration_time(), 4),
        },
    )


def test_serial_parallel_winner_determinism(industrial_schema, space):
    """`--workers 1` and `--workers N` must agree to the byte."""
    serial = advise(industrial_schema, space, workers=1)
    parallel = advise(industrial_schema, space, workers=2)
    assert serial.to_json() == parallel.to_json()
    assert serial.render() == parallel.render()
    assert [o.score.total for o in serial.ranked if o.score] == [
        o.score.total for o in parallel.ranked if o.score
    ]


def test_advise_benchmark(benchmark, industrial_schema, space):
    """The advisor under the timing harness (pytest-benchmark)."""
    report = benchmark(advise, industrial_schema, space, workers=1)
    assert report.winner is not None
