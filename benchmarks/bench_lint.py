"""Lint cost at industrial scale.

The lint engine is built to ride on the version-stamped caches: its
analysis pass reuses the memoized ``analyze`` result, its redundancy
rules reuse ``indexes_for``/``subset_graph_for``, and with a
precomputed :class:`MappingResult` the trace/sql/map passes are pure
rule bodies.  The asserted bound: a **full** lint sweep (every rule,
every artifact) over the 90-entity industrial schema, right after
mapping it, takes at most three runs of the fixed pure-Python
``calibration_time`` loop timed in the same process — lint is cheap
enough to run after every mapping session.  The bound is in
calibration units, not a share of ``map_schema``, so that making the
mapper faster does not fail the lint bound.
"""

from time import perf_counter

import pytest

from bench_industrial_scale import INDUSTRIAL_SHAPE, calibration_time
from conftest import emit
from repro.lint import lint_schema
from repro.mapper import MappingOptions, SublinkPolicy, map_schema
from repro.workloads import SchemaShape, generate_schema

#: Full lint wall time over the calibration loop's, at most.
LINT_CALIBRATED_BOUND = 3.0


@pytest.fixture(scope="module")
def industrial_schema():
    return generate_schema(INDUSTRIAL_SHAPE, seed=1989)


@pytest.fixture(scope="module")
def industrial_options():
    return MappingOptions(sublink_policy=SublinkPolicy.INDICATOR)


def test_lint_is_a_fraction_of_mapping(
    benchmark, industrial_schema, industrial_options
):
    # Time the guarded mapping session first (cold caches), then the
    # full lint sweep reusing its result — the engineer's actual
    # workflow: map once, lint the result.
    started = perf_counter()
    result = map_schema(industrial_schema, industrial_options)
    map_wall_s = perf_counter() - started

    started = perf_counter()
    report = lint_schema(industrial_schema, result=result)
    lint_wall_s = perf_counter() - started
    calibration_s = calibration_time()
    calibrated = lint_wall_s / calibration_s

    benchmark(lint_schema, industrial_schema, result=result)

    assert report.errors == []  # zero false-positive errors at scale
    assert calibrated <= LINT_CALIBRATED_BOUND, (
        f"full lint sweep took {lint_wall_s:.3f}s, {calibrated:.2f}x the "
        f"{calibration_s:.4f}s calibration loop (bound "
        f"{LINT_CALIBRATED_BOUND}x)"
    )

    counts = report.counts()
    emit(
        "lint cost at industrial scale (bound: <=3x the calibration loop)",
        [
            f"guarded map_schema: {map_wall_s:.3f}s",
            f"full lint sweep:    {lint_wall_s:.3f}s "
            f"({calibrated:.2f}x the calibration loop, "
            f"{lint_wall_s / map_wall_s:.1%} of mapping)",
            f"findings: {counts['errors']} error(s), "
            f"{counts['warnings']} warning(s), {counts['infos']} info(s)",
        ],
        data={
            "guarded_map_schema_wall_s": round(map_wall_s, 4),
            "lint_wall_s": round(lint_wall_s, 4),
            "lint_fraction": round(lint_wall_s / map_wall_s, 4),
            "lint_calibrated": round(calibrated, 4),
            "bound_calibrated": LINT_CALIBRATED_BOUND,
            "errors": counts["errors"],
            "warnings": counts["warnings"],
            "infos": counts["infos"],
            "calibration_s": round(calibration_s, 4),
        },
    )


def test_lint_errors_are_zero_across_dialects(
    industrial_schema, industrial_options
):
    """No false-positive errors under any 1989 dialect profile."""
    result = map_schema(industrial_schema, industrial_options)
    for dialect in ("sql2", "oracle", "db2"):
        report = lint_schema(
            industrial_schema, result=result, dialect=dialect
        )
        assert report.errors == [], dialect


def test_lint_without_result_maps_once_and_still_terminates():
    """Convenience path: a smaller workload linted from scratch."""
    schema = generate_schema(
        SchemaShape(entity_types=20, rich_constraints=True), seed=7
    )
    report = lint_schema(schema)
    assert report.skipped_artifacts == ()
    assert report.errors == []
