"""The end-to-end harness: round trips, detection matrices, reports.

The acceptance shape of the executor subsystem: on the paper's
schemas and the fig. 6 mapping alternatives, a valid generated state
violates nothing, round-trips exactly, and the injection detection
matrix is *diagonal* — every surgical violation is caught by its
target rule and by no other.
"""

import gc
import json
import sqlite3
import weakref

import pytest

import repro.executor.harness as harness
from repro.executor import (
    ValidationReport,
    compile_rules,
    dataset_of,
    load_dataset,
    resolve_backend,
    run_validation,
)
from repro.mapper import (
    MappingOptions,
    NullPolicy,
    RelationalStateMap,
    SublinkPolicy,
    map_schema,
)
from repro.observability import Tracer
from repro.robustness.violations import MUTATOR_KINDS
from repro.workloads import generate_bulk_population
from tests.executor.conftest import requires_duckdb

FIG6_ALTERNATIVES = (
    MappingOptions(),
    MappingOptions(sublink_policy=SublinkPolicy.TOGETHER),
    MappingOptions(sublink_policy=SublinkPolicy.INDICATOR),
    MappingOptions(null_policy=NullPolicy.NOT_ALLOWED),
    MappingOptions(
        null_policy=NullPolicy.NOT_IN_KEYS,
        sublink_policy=SublinkPolicy.INDICATOR,
    ),
)


class TestBackendResolution:
    def test_auto_picks_an_available_backend(self):
        resolved = resolve_backend("auto")
        try:
            assert resolved.used in ("duckdb", "sqlite")
        finally:
            resolved.backend.close()

    def test_explicit_unavailable_backend_degrades_with_note(self):
        from repro.executor import duckdb_available

        if duckdb_available():
            pytest.skip("duckdb installed; fallback path not reachable")
        resolved = resolve_backend("duckdb")
        try:
            assert resolved.requested == "duckdb"
            assert resolved.used == "sqlite"
            assert "fell back" in resolved.note
        finally:
            resolved.backend.close()

    def test_unknown_backend_is_rejected(self):
        with pytest.raises(Exception, match="unknown backend"):
            resolve_backend("oracle-v5")


class TestValidStateAndRoundTrip:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_cris_is_valid_and_round_trips(self, cris, backend):
        report = run_validation(
            cris, backend=backend, scale=300, seed=7, inject=False
        )
        assert report.violations_on_valid == ()
        assert report.round_trip_ok
        assert report.round_trip_diff == {}
        assert report.ok

    @pytest.mark.parametrize(
        "options", FIG6_ALTERNATIVES, ids=lambda o: repr(o)[:40]
    )
    def test_fig6_alternatives_round_trip(self, fig6, options):
        report = run_validation(
            fig6, options, backend="sqlite", scale=200, seed=7,
            inject=False,
        )
        assert report.ok, report.render()


class TestDetectionMatrix:
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_cris_matrix_is_diagonal(self, cris, backend):
        report = run_validation(cris, backend=backend, scale=300, seed=7)
        assert report.matrix is not None
        assert report.matrix.diagonal, report.render()
        kinds = {row.kind for row in report.matrix.rows}
        assert kinds >= {
            "null-breach", "duplicate-key", "orphan-foreign-key",
            "equality-asymmetry",
        }

    def test_together_alternative_exercises_check_breach(self, fig6):
        report = run_validation(
            fig6,
            MappingOptions(sublink_policy=SublinkPolicy.TOGETHER),
            backend="sqlite", scale=200, seed=7,
        )
        assert report.ok, report.render()
        assert "check-breach" in {row.kind for row in report.matrix.rows}

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_subset_leak_is_detected(self, authorship_schema, backend):
        report = run_validation(
            authorship_schema, backend=backend, scale=200, seed=7
        )
        assert report.ok, report.render()
        assert "subset-leak" in {row.kind for row in report.matrix.rows}

    def test_every_kind_fires_somewhere(self, cris, fig6,
                                        authorship_schema):
        fired = set()
        for schema, options in (
            (cris, MappingOptions()),
            (fig6, MappingOptions(sublink_policy=SublinkPolicy.TOGETHER)),
            (authorship_schema, MappingOptions()),
        ):
            report = run_validation(
                schema, options, backend="sqlite", scale=200, seed=7
            )
            assert report.ok, report.render()
            fired |= {row.kind for row in report.matrix.rows}
        assert fired == set(MUTATOR_KINDS)


class TestReport:
    def test_seed_determines_the_report(self, fig6):
        first = run_validation(fig6, backend="sqlite", scale=200, seed=11)
        second = run_validation(fig6, backend="sqlite", scale=200, seed=11)
        a, b = first.as_dict(), second.as_dict()
        a.pop("timings"), b.pop("timings")
        assert a == b

    def test_json_is_machine_readable(self, fig6):
        report = run_validation(fig6, backend="memory", scale=100, seed=7)
        decoded = json.loads(report.to_json())
        assert decoded["ok"] is True
        assert decoded["backend"]["used"] == "memory"
        assert decoded["matrix"]["diagonal"] is True
        assert decoded["rows_loaded"] == report.rows_loaded

    def test_render_summarizes_the_outcome(self, fig6):
        report = run_validation(fig6, backend="memory", scale=100, seed=7)
        text = report.render()
        assert "result: OK" in text
        assert "detection matrix" in text

    def test_injection_phase_is_timed(self, fig6):
        report = run_validation(fig6, backend="sqlite", scale=100, seed=7)
        assert report.plan_s > 0 and report.matrix_s > 0
        timings = report.as_dict()["timings"]
        assert timings["plan_s"] > 0 and timings["matrix_s"] > 0
        assert "planned in" in report.render()
        skipped = run_validation(
            fig6, backend="sqlite", scale=100, seed=7, inject=False
        )
        assert skipped.plan_s == skipped.matrix_s == 0.0

    def test_conceptual_phases_are_timed(self, cris):
        report = run_validation(
            cris, backend="memory", scale=300, seed=7, inject=False
        )
        timings = report.as_dict()["timings"]
        for key in ("generate_s", "canonicalize_s", "forward_s"):
            assert getattr(report, key) > 0
            assert timings[key] > 0
        assert "canonicalized in" in report.render()

    @pytest.mark.parametrize("inject", [True, False])
    def test_phases_and_remainder_add_up_to_the_total(self, cris, inject):
        report = run_validation(
            cris, backend="sqlite", scale=300, seed=7, inject=inject
        )
        phases = (
            "map_s", "compile_s", "generate_s", "canonicalize_s",
            "forward_s", "load_s", "check_s", "fetch_s", "backward_s",
            "diff_s", "plan_s", "matrix_s",
        )
        timed = sum(getattr(report, phase) for phase in phases)
        assert report.unattributed_s >= 0
        assert timed + report.unattributed_s == pytest.approx(
            report.total_s, abs=1e-9
        )
        assert report.round_trip_s == pytest.approx(
            report.fetch_s + report.backward_s + report.diff_s, abs=1e-12
        )
        for phase in ("map_s", "fetch_s", "backward_s", "diff_s", "total_s"):
            assert getattr(report, phase) > 0
        timings = report.as_dict()["timings"]
        for key in phases + ("total_s", "unattributed_s"):
            assert key in timings
        assert "outside the timed phases" in report.render()

    def test_generated_population_is_freed_before_the_forward_map(
        self, cris, monkeypatch
    ):
        # Under the default options ``to_canonical`` hands back the
        # generated population itself; only the canonical one may
        # outlive canonicalization.
        generated = []
        generate = harness.generate_bulk_population
        forward = RelationalStateMap.forward

        def tracked_generate(*args, **kwargs):
            population = generate(*args, **kwargs)
            generated.append(weakref.ref(population))
            return population

        def checked_forward(self, population):
            gc.collect()
            assert generated and generated[0]() is None
            return forward(self, population)

        monkeypatch.setattr(
            harness, "generate_bulk_population", tracked_generate
        )
        monkeypatch.setattr(RelationalStateMap, "forward", checked_forward)
        report = run_validation(
            cris, backend="memory", scale=300, seed=7, inject=False
        )
        assert report.ok

    def test_invalid_state_is_reported(self, fig6):
        report = run_validation(fig6, backend="memory", scale=100, seed=7)
        broken = ValidationReport(
            **{**report.__dict__, "violations_on_valid": ("C_KEY$_1",)}
        )
        assert not broken.ok
        assert "INVALID" in broken.render()


def check_spans(tracer, name):
    return [
        span
        for root in tracer.roots
        for span in (root, *root.children)
        if span.name == name
    ]


class TestShardedCheck:
    """``run_checks`` over worker processes finds a serial run's
    violations, in compile order, and the check span records the
    worker count that ran."""

    @pytest.fixture(scope="class")
    def dirty(self, cris):
        result = map_schema(cris, MappingOptions())
        population = generate_bulk_population(cris, target_rows=120, seed=7)
        canonical = result.canonicalize(result.state.to_canonical(population))
        dataset = dataset_of(result.state_map.forward(canonical))
        # An all-NULL row in every relation breaks its NOT NULL rules.
        for rows in dataset.values():
            rows.append(dict.fromkeys(rows[0]))
        return result.relational, compile_rules(result.relational), dataset

    @pytest.mark.skipif(
        not hasattr(sqlite3.Connection, "serialize"),
        reason="SQLite snapshots need Connection.serialize (Python 3.11+)",
    )
    def test_two_workers_find_the_serial_violations_in_compile_order(
        self, dirty
    ):
        relational, rules, dataset = dirty
        runs = {}
        for workers in (1, 2):
            backend = resolve_backend("sqlite").backend
            tracer = Tracer("check")
            try:
                load_dataset(backend, relational, dataset)
                with tracer.activate():
                    runs[workers] = harness.run_checks(
                        backend, rules, workers=workers
                    )
            finally:
                backend.close()
            assert runs[workers][1] == workers
            (check,) = check_spans(tracer, "executor.check")
            assert check.attributes["workers"] == workers
            shards = [c for c in check.children if c.name == "executor.check_shard"]
            assert [s.attributes for s in shards] == (
                [{"shard": i, "rules": len(rules[i::2])} for i in range(2)]
                if workers == 2 else []
            )
        assert runs[1][0] == runs[2][0]
        order = [rule.name for rule in rules]
        fired = [violation.rule for violation in runs[2][0]]
        assert len(fired) > 2
        assert fired == sorted(fired, key=order.index)

    def test_check_span_records_the_workers_that_ran(self, cris):
        tracer = Tracer("validate")
        with tracer.activate():
            report = run_validation(
                cris, backend="memory", scale=100, inject=False,
                check_workers=3,
            )
        (check,) = check_spans(tracer, "executor.check")
        assert check.attributes["workers"] == report.check_workers == 1


@requires_duckdb
class TestDuckDBAtScale:
    def test_cris_1e5_rows_diagonal(self, cris):
        report = run_validation(
            cris, backend="duckdb", scale=100_000, seed=7
        )
        assert report.backend_used == "duckdb"
        assert report.rows_loaded >= 100_000
        assert report.ok, report.render()


class TestColumnarRoundTrip:
    """The columnar read-back path at 1e4 rows, on every backend.

    The round trip must be *exact* (empty diff at both the row and
    the population level), the report must record which bulk read
    path actually ran, and a backend that only serves row dicts must
    round-trip through the default ``fetch_columns`` rather than fail.
    """

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_cris_1e4_exact_round_trip(self, cris, backend):
        report = run_validation(
            cris, backend=backend, scale=10_000, seed=7, inject=False
        )
        assert report.rows_loaded >= 10_000
        assert report.violations_on_valid == ()
        assert report.round_trip_ok
        assert report.round_trip_diff == {}
        assert report.read_path == "native"

    @requires_duckdb
    def test_cris_1e4_exact_round_trip_duckdb(self, cris):
        report = run_validation(
            cris, backend="duckdb", scale=10_000, seed=7, inject=False
        )
        assert report.backend_used == "duckdb"
        assert report.round_trip_ok
        assert report.round_trip_diff == {}
        # Native column extraction, never the row-transposing fallback.
        assert report.read_path == "native"

    def test_report_records_round_trip_provenance(self, fig6):
        report = run_validation(
            fig6, backend="memory", scale=100, seed=7, inject=False
        )
        decoded = json.loads(report.to_json())
        assert decoded["round_trip"] == {
            "ok": True, "diff": {}, "read_path": "native",
        }
        assert "(native read)" in report.render()

    def test_rows_only_backend_uses_the_fallback_read(self, fig6):
        from repro.executor import Backend, MemoryBackend, ResolvedBackend

        class RowsOnly(MemoryBackend):
            fetch_columns = Backend.fetch_columns

        report = run_validation(
            fig6, backend="memory", scale=200, seed=7, inject=False,
            resolved=ResolvedBackend(RowsOnly(), "memory", "memory"),
        )
        assert report.ok, report.render()
        assert report.round_trip_diff == {}
        assert report.read_path == "fallback"
        assert "(fallback read)" in report.render()
