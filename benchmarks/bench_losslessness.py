"""Empirical losslessness at data scale.

The harness's cost profile on the CRIS case study: bulk-generate a
valid population mapping to ~2e4 relational rows, load it on the
best available SQL backend, run every compiled lossless rule, and
round-trip the state.  Asserted shape: the valid state violates
nothing, the round trip is exact, and the injection detection matrix
is diagonal — the paper's losslessness claim (section 4.1,
Definition 2), measured through a real engine instead of symbolic
state.

The emitted ``BENCH_losslessness.json`` records load/check/round-trip
and injection-phase (plan plus matrix) wall times and rows/s;
``scripts/check_bench_regression.py`` gates CI on the calibrated
wall-time keys.
"""

import os
from time import perf_counter

import pytest

from conftest import emit
from repro.executor import resolve_backend, run_validation
from repro.mapper import MappingOptions, map_schema
from repro.workloads import generate_bulk_population

#: Forward-mapped row target for the benchmark run.  Small enough
#: for the tier-2 benchmark job, large enough that quadratic loading
#: or checking would dominate the measurement (the 1e5-row acceptance
#: run lives in the executor test suite's DuckDB tier).
SCALE = 20_000
SEED = 7

#: Row target for the columnar forward-map kernel measurement.
FORWARD_SCALE = 100_000

#: The 1e6-row ceiling run takes minutes; it only executes when this
#: environment variable is set (the scheduled/label-triggered CI leg
#: and baseline regeneration), so the default benchmark job stays
#: fast.  The regression gate skips absent keys, so partial runs of
#: this module still emit a valid, gateable JSON.
SCALE_1E6_ENV = "BENCH_SCALE_1E6"
SCALE_1E6 = 1_000_000


def calibration_time() -> float:
    """Seconds for a fixed pure-Python workload on this machine."""
    started = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i % 7
    assert total > 0
    return perf_counter() - started


@pytest.fixture(scope="module")
def report(cris):
    started = perf_counter()
    validation = run_validation(
        cris, backend="auto", scale=SCALE, seed=SEED
    )
    return validation, perf_counter() - started


def test_losslessness_at_scale(report):
    validation, total_wall_s = report
    assert validation.rows_loaded >= SCALE
    assert validation.violations_on_valid == ()
    assert validation.round_trip_ok
    assert validation.matrix is not None and validation.matrix.diagonal
    assert validation.ok

    load_rate = validation.rows_loaded / validation.load_s
    check_rate = validation.rows_loaded / validation.check_s
    round_trip_rate = validation.rows_loaded / validation.round_trip_s
    emit(
        "§4.1 losslessness, empirically — CRIS at "
        f"{validation.rows_loaded} rows on {validation.backend_used}",
        [
            f"backend: {validation.backend_used} "
            f"(requested auto), seed {SEED}",
            f"load: {validation.load_s:.3f}s ({load_rate:,.0f} rows/s)",
            f"check: {sum(validation.rule_counts.values())} rules in "
            f"{validation.check_s:.3f}s ({check_rate:,.0f} rows/s)",
            f"round trip: {validation.round_trip_s:.3f}s "
            f"({round_trip_rate:,.0f} rows/s), empty diff",
            f"matrix: {len(validation.matrix.rows)} injections, "
            f"diagonal; planned in {validation.plan_s:.3f}s, "
            f"replayed in {validation.matrix_s:.3f}s",
            f"harness total: {total_wall_s:.3f}s",
        ],
        data={
            "backend": validation.backend_used,
            "rows_loaded": validation.rows_loaded,
            "rules": sum(validation.rule_counts.values()),
            "injections": len(validation.matrix.rows),
            "load_wall_s": round(validation.load_s, 4),
            "check_wall_s": round(validation.check_s, 4),
            "round_trip_wall_s": round(validation.round_trip_s, 4),
            "plan_wall_s": round(validation.plan_s, 4),
            "matrix_wall_s": round(validation.matrix_s, 4),
            "inject_wall_s": round(validation.plan_s + validation.matrix_s, 4),
            "load_rows_per_s": round(load_rate, 1),
            "check_rows_per_s": round(check_rate, 1),
            "round_trip_rows_per_s": round(round_trip_rate, 1),
            "calibration_s": round(calibration_time(), 4),
        },
    )


def test_forward_map_wall_at_1e5(cris):
    """The columnar forward-map kernel at 1e5 rows.

    This is the hot path the columnar population layout exists for:
    canonical population -> relational rows as per-relation batch
    column joins.  The emitted ``scale_forward_wall_s`` is gated by
    ``scripts/check_bench_regression.py`` so the kernel cannot
    silently fall back to per-row navigation.
    """
    result = map_schema(cris, MappingOptions())
    population = generate_bulk_population(
        cris, target_rows=FORWARD_SCALE, seed=SEED
    )
    canonical = result.canonicalize(result.state.to_canonical(population))

    started = perf_counter()
    database = result.state_map.forward(canonical)
    forward_wall_s = perf_counter() - started

    rows = sum(len(database.rows(r.name)) for r in result.relational.relations)
    assert rows >= FORWARD_SCALE
    assert forward_wall_s < 10.0  # order-of-magnitude guard; CI gate is finer
    emit(
        f"columnar forward map — CRIS at {rows} rows",
        [
            f"forward: {forward_wall_s:.3f}s "
            f"({rows / forward_wall_s:,.0f} rows/s)",
        ],
        data={
            "scale_rows": rows,
            "scale_forward_wall_s": round(forward_wall_s, 4),
            "scale_forward_rows_per_s": round(rows / forward_wall_s, 1),
            "calibration_s": round(calibration_time(), 4),
        },
    )


@pytest.mark.skipif(
    not os.environ.get(SCALE_1E6_ENV),
    reason=f"set {SCALE_1E6_ENV}=1 to run the 1e6-row ceiling",
)
def test_ceiling_at_1e6(cris):
    """The full harness at the 1e6-row scale ceiling: chunked bulk
    load, sharded check phase, delta-verified injection planning and
    the delta-replay injection matrix."""
    started = perf_counter()
    validation = run_validation(
        cris, backend="auto", scale=SCALE_1E6, seed=SEED, check_workers=4
    )
    total_wall_s = perf_counter() - started
    assert validation.ok
    assert validation.rows_loaded >= SCALE_1E6
    # The columnar backward map's acceptance ceiling: a 1e6-row CRIS
    # round trip on stdlib SQLite must stay under 8 seconds (it was
    # ~39s row-at-a-time).
    assert validation.round_trip_s < 8.0

    load_rate = validation.rows_loaded / validation.load_s
    check_rate = validation.rows_loaded / validation.check_s
    round_trip_rate = validation.rows_loaded / validation.round_trip_s
    emit(
        f"1e6-row ceiling — CRIS at {validation.rows_loaded} rows on "
        f"{validation.backend_used}",
        [
            f"load: {validation.load_s:.3f}s ({load_rate:,.0f} rows/s)",
            f"check: {sum(validation.rule_counts.values())} rules in "
            f"{validation.check_s:.3f}s over "
            f"{validation.check_workers} workers",
            f"round trip: {validation.round_trip_s:.3f}s "
            f"({round_trip_rate:,.0f} rows/s), empty diff",
            f"injections: planned in {validation.plan_s:.3f}s, "
            f"replayed in {validation.matrix_s:.3f}s",
            f"harness total: {total_wall_s:.3f}s",
        ],
        data={
            "backend": validation.backend_used,
            "scale1e6_rows_loaded": validation.rows_loaded,
            "scale1e6_load_wall_s": round(validation.load_s, 4),
            "scale1e6_check_wall_s": round(validation.check_s, 4),
            "scale1e6_round_trip_wall_s": round(validation.round_trip_s, 4),
            "scale1e6_plan_wall_s": round(validation.plan_s, 4),
            "scale1e6_matrix_wall_s": round(validation.matrix_s, 4),
            "scale1e6_inject_wall_s": round(
                validation.plan_s + validation.matrix_s, 4
            ),
            "scale1e6_load_rows_per_s": round(load_rate, 1),
            "scale1e6_check_rows_per_s": round(check_rate, 1),
            "scale1e6_round_trip_rows_per_s": round(round_trip_rate, 1),
            "check_workers": validation.check_workers,
            "calibration_s": round(calibration_time(), 4),
        },
    )


def test_backend_resolution_is_cheap():
    started = perf_counter()
    resolved = resolve_backend("auto")
    resolved.backend.close()
    assert perf_counter() - started < 1.0
