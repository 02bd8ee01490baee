"""Empirical losslessness at data scale.

The harness's cost profile on the CRIS case study: bulk-generate a
valid population mapping to ~2e4 relational rows, load it on the
best available SQL backend, run every compiled lossless rule, and
round-trip the state.  Asserted shape: the valid state violates
nothing, the round trip is exact, and the injection detection matrix
is diagonal — the paper's losslessness claim (section 4.1,
Definition 2), measured through a real engine instead of symbolic
state.

The emitted ``BENCH_losslessness.json`` records the conceptual
phases (generate, canonicalize, forward map), load/check/round-trip
(and the round trip's fetch, backward and diff legs), map and compile,
and injection-phase (plan plus matrix) wall times and rows/s, plus the
share of the harness total outside every timed phase;
``scripts/check_bench_regression.py`` gates CI on the calibrated
wall-time keys.
"""

import os
from time import perf_counter

import pytest

from bench_industrial_scale import calibration_time
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

#: The most of a harness run that may fall outside its timed phases
#: (``ValidationReport.unattributed_s`` over ``total_s``).  Asserted
#: at 2e4 rows, where the fixed per-run costs outside the phases are
#: a few percent of the total; at 2e3 rows they reach 3-6%.
MAX_UNATTRIBUTED_SHARE = 0.05

#: The 1e6-row ceiling run takes minutes; it only executes when this
#: environment variable is set (the scheduled CI leg and baseline
#: regeneration), so the default benchmark job stays fast.  The
#: regression gate fails on a gated key absent from either run, so the
#: per-PR job gates only keys a default run emits; the ``scale1e6_*``
#: keys are gated by the scheduled leg alone.
SCALE_1E6_ENV = "BENCH_SCALE_1E6"
SCALE_1E6 = 1_000_000


#: The 1e6-row round-trip ceiling, in calibration loops: 8.0 s at the
#: ``calibration_s`` of the committed 1e6 block (0.0724 s), so it gates
#: the same regression as the raw 8-second bound did, on any host.
ROUND_TRIP_1E6_CEILING = 8.0 / 0.0724


@pytest.fixture(scope="module")
def report(cris):
    # Import the backend's driver first: a first ``import duckdb`` is
    # not harness work, and would land in the unattributed remainder.
    resolve_backend("auto").backend.close()
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
    unattributed_share = validation.unattributed_s / validation.total_s
    assert 0 <= unattributed_share <= MAX_UNATTRIBUTED_SHARE

    load_rate = validation.rows_loaded / validation.load_s
    check_rate = validation.rows_loaded / validation.check_s
    round_trip_rate = validation.rows_loaded / validation.round_trip_s
    emit(
        "§4.1 losslessness, empirically — CRIS at "
        f"{validation.rows_loaded} rows on {validation.backend_used}",
        [
            f"backend: {validation.backend_used} "
            f"(requested auto), seed {SEED}",
            f"map: {validation.map_s:.3f}s, compile: "
            f"{validation.compile_s:.3f}s",
            f"generate: {validation.generate_s:.3f}s, canonicalize: "
            f"{validation.canonicalize_s:.3f}s, forward: "
            f"{validation.forward_s:.3f}s",
            f"load: {validation.load_s:.3f}s ({load_rate:,.0f} rows/s)",
            f"check: {sum(validation.rule_counts.values())} rules in "
            f"{validation.check_s:.3f}s ({check_rate:,.0f} rows/s)",
            f"round trip: {validation.round_trip_s:.3f}s "
            f"({round_trip_rate:,.0f} rows/s), empty diff: fetch "
            f"{validation.fetch_s:.3f}s, backward "
            f"{validation.backward_s:.3f}s, diff {validation.diff_s:.3f}s",
            f"matrix: {len(validation.matrix.rows)} injections, "
            f"diagonal; planned in {validation.plan_s:.3f}s, "
            f"replayed in {validation.matrix_s:.3f}s",
            f"harness total: {total_wall_s:.3f}s, "
            f"{unattributed_share:.1%} outside the timed phases",
        ],
        data={
            "backend": validation.backend_used,
            "rows_loaded": validation.rows_loaded,
            "rules": sum(validation.rule_counts.values()),
            "injections": len(validation.matrix.rows),
            "generate_wall_s": round(validation.generate_s, 4),
            "canonicalize_wall_s": round(validation.canonicalize_s, 4),
            "forward_wall_s": round(validation.forward_s, 4),
            "load_wall_s": round(validation.load_s, 4),
            "check_wall_s": round(validation.check_s, 4),
            "round_trip_wall_s": round(validation.round_trip_s, 4),
            "fetch_wall_s": round(validation.fetch_s, 4),
            "backward_wall_s": round(validation.backward_s, 4),
            "diff_wall_s": round(validation.diff_s, 4),
            "map_wall_s": round(validation.map_s, 4),
            "compile_wall_s": round(validation.compile_s, 4),
            "unattributed_share": round(unattributed_share, 4),
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
    """The id-space kernels at 1e5 rows: generate, canonicalize and
    the columnar forward map.

    These are the hot paths the interned population layout exists
    for: a valid state built as id columns, renamed to its lexical
    references by whole-column passes, and mapped to relational rows
    as per-relation batch column joins.  The emitted
    ``scale_generate_wall_s``, ``scale_canonicalize_wall_s`` and
    ``scale_forward_wall_s`` are gated by
    ``scripts/check_bench_regression.py`` so no kernel can silently
    fall back to per-instance work.
    """
    result = map_schema(cris, MappingOptions())
    started = perf_counter()
    population = generate_bulk_population(
        cris, target_rows=FORWARD_SCALE, seed=SEED
    )
    generate_wall_s = perf_counter() - started

    started = perf_counter()
    canonical = result.canonicalize(result.state.to_canonical(population))
    canonicalize_wall_s = perf_counter() - started
    del population

    started = perf_counter()
    database = result.state_map.forward(canonical)
    forward_wall_s = perf_counter() - started

    rows = sum(len(database.rows(r.name)) for r in result.relational.relations)
    assert rows >= FORWARD_SCALE
    assert forward_wall_s < 10.0  # order-of-magnitude guard; CI gate is finer
    emit(
        f"columnar forward map — CRIS at {rows} rows",
        [
            f"generate: {generate_wall_s:.3f}s",
            f"canonicalize: {canonicalize_wall_s:.3f}s",
            f"forward: {forward_wall_s:.3f}s "
            f"({rows / forward_wall_s:,.0f} rows/s)",
        ],
        data={
            "scale_rows": rows,
            "scale_generate_wall_s": round(generate_wall_s, 4),
            "scale_canonicalize_wall_s": round(canonicalize_wall_s, 4),
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
    load, sharded check phase, injection planning by delta verdicts
    and the delta-replay injection matrix."""
    started = perf_counter()
    validation = run_validation(
        cris, backend="auto", scale=SCALE_1E6, seed=SEED, check_workers=4
    )
    total_wall_s = perf_counter() - started
    calibration_s = calibration_time()
    assert validation.ok
    assert validation.rows_loaded >= SCALE_1E6
    # The columnar backward map's acceptance ceiling: a 1e6-row CRIS
    # round trip on stdlib SQLite must stay under 8 seconds at the
    # committed calibration (it was ~39s row-at-a-time).
    assert validation.round_trip_s / calibration_s < ROUND_TRIP_1E6_CEILING

    load_rate = validation.rows_loaded / validation.load_s
    check_rate = validation.rows_loaded / validation.check_s
    round_trip_rate = validation.rows_loaded / validation.round_trip_s
    emit(
        f"1e6-row ceiling — CRIS at {validation.rows_loaded} rows on "
        f"{validation.backend_used}",
        [
            f"generate: {validation.generate_s:.3f}s, canonicalize: "
            f"{validation.canonicalize_s:.3f}s, forward: "
            f"{validation.forward_s:.3f}s",
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
            "scale1e6_generate_wall_s": round(validation.generate_s, 4),
            "scale1e6_canonicalize_wall_s": round(
                validation.canonicalize_s, 4
            ),
            "scale1e6_forward_wall_s": round(validation.forward_s, 4),
            "scale1e6_load_wall_s": round(validation.load_s, 4),
            "scale1e6_check_wall_s": round(validation.check_s, 4),
            "scale1e6_round_trip_wall_s": round(validation.round_trip_s, 4),
            "scale1e6_fetch_wall_s": round(validation.fetch_s, 4),
            "scale1e6_backward_wall_s": round(validation.backward_s, 4),
            "scale1e6_diff_wall_s": round(validation.diff_s, 4),
            "scale1e6_map_wall_s": round(validation.map_s, 4),
            "scale1e6_unattributed_share": round(
                validation.unattributed_s / validation.total_s, 4
            ),
            "scale1e6_plan_wall_s": round(validation.plan_s, 4),
            "scale1e6_matrix_wall_s": round(validation.matrix_s, 4),
            "scale1e6_inject_wall_s": round(
                validation.plan_s + validation.matrix_s, 4
            ),
            "scale1e6_load_rows_per_s": round(load_rate, 1),
            "scale1e6_check_rows_per_s": round(check_rate, 1),
            "scale1e6_round_trip_rows_per_s": round(round_trip_rate, 1),
            "check_workers": validation.check_workers,
            "calibration_s": round(calibration_s, 4),
        },
    )


def test_backend_resolution_is_cheap():
    started = perf_counter()
    resolved = resolve_backend("auto")
    resolved.backend.close()
    assert perf_counter() - started < 1.0
