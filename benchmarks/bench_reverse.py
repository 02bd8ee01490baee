"""Reverse-engineering cost at industrial scale.

The lift walks the whole DDL script — parsing, classifying every
relation, splitting every column, dispatching every CHECK and view —
yet it reuses the mapper's own naming tables rather than searching,
so it must stay in the same complexity class as the forward pass it
inverts.  The asserted bound: parsing plus lifting the industrial
schema's DDL costs **at most 2x** the forward ``map_schema`` wall on
the same workload, and the full three-round fixpoint harness stays
under 10x (it runs two extra forward maps and two lifts by design).

``BENCH_reverse.json`` records the calibrated walls;
``scripts/check_bench_regression.py`` gates on the committed
baseline.  Each wall is the median of :data:`TIMED_RUNS` calls, each
from cold analyzer caches and a collected heap, so one call slowed by
a noisy neighbour, or by the full collection the previous call's
garbage tips over, does not move a gated key.
"""

import gc
from statistics import median
from time import perf_counter

import pytest

from bench_industrial_scale import INDUSTRIAL_SHAPE, calibration_time
from conftest import emit
from repro.analyzer.cache import clear_all_caches
from repro.mapper import MappingOptions, map_schema
from repro.mapper.reverse import check_fixpoint, lift_ddl
from repro.workloads import generate_schema

#: Lift wall <= 2x forward-map wall on the same schema.
LIFT_WALL_FACTOR = 2.0
#: Full fixpoint (3 maps + 2 lifts + implication closure) <= 10x.
FIXPOINT_WALL_FACTOR = 10.0
#: Timed calls per wall; their median is the figure reported.
TIMED_RUNS = 3


def median_wall(run):
    """The median wall seconds of :data:`TIMED_RUNS` calls of ``run``,
    each from cold analyzer caches and a collected heap, and the last
    call's result."""
    walls = []
    for _ in range(TIMED_RUNS):
        clear_all_caches()
        gc.collect()
        started = perf_counter()
        result = run()
        walls.append(perf_counter() - started)
    return median(walls), result


@pytest.fixture(scope="module")
def industrial_schema():
    return generate_schema(INDUSTRIAL_SHAPE, seed=1989)


def test_lift_stays_within_forward_map_wall(benchmark, industrial_schema):
    forward_wall_s, result = median_wall(
        lambda: map_schema(industrial_schema, MappingOptions())
    )
    ddl = result.sql("sql2")

    lift_wall_s, lifted = median_wall(lambda: lift_ddl(ddl))

    benchmark(lift_ddl, ddl)

    # The lift must reconstruct the full conceptual inventory, not
    # shortcut to a skeleton.
    assert len(lifted.schema.fact_types) >= len(
        industrial_schema.sublinks
    )
    assert len(lifted.schema.sublinks) == len(industrial_schema.sublinks)
    assert lift_wall_s < forward_wall_s * LIFT_WALL_FACTOR

    fixpoint_wall_s, fixpoint = median_wall(
        lambda: check_fixpoint(industrial_schema, MappingOptions())
    )
    assert fixpoint.ok, fixpoint.describe()
    assert fixpoint_wall_s < forward_wall_s * FIXPOINT_WALL_FACTOR

    calibration_s = calibration_time()
    emit(
        "reverse lift at industrial scale (bound: lift <= 2x forward "
        "map, fixpoint <= 10x)",
        [
            f"forward map_schema wall   {forward_wall_s:8.3f} s",
            f"parse + lift wall         {lift_wall_s:8.3f} s  "
            f"({lift_wall_s / forward_wall_s:4.2f}x)",
            f"3-round fixpoint wall     {fixpoint_wall_s:8.3f} s  "
            f"({fixpoint_wall_s / forward_wall_s:4.2f}x)",
            f"relations lifted          {len(result.relational.relations):8d}",
            f"elements with provenance  {len(lifted.report.entries):8d}",
        ],
        data={
            "forward_map_wall_s": forward_wall_s,
            "lift_wall_s": lift_wall_s,
            "fixpoint_wall_s": fixpoint_wall_s,
            "lift_over_forward": lift_wall_s / forward_wall_s,
            "relations": len(result.relational.relations),
            "provenance_entries": len(lifted.report.entries),
            "sublinks": len(lifted.schema.sublinks),
            "calibration_s": calibration_s,
        },
    )
