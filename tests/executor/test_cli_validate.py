"""The ``repro validate`` subcommand: exit codes and report formats.

Extends the CLI's exit-code taxonomy: 0 valid, 5 ran on a fallback
backend, 6 invalid, 2 usage errors — each distinguishable by a
script without parsing the report.
"""

import io
import json

import pytest

from repro.cli import EXIT_DEGRADED, EXIT_INVALID, EXIT_OK, EXIT_USAGE, main
from repro.cris import figure6_schema
from repro.dsl import to_dsl
from repro.executor import duckdb_available


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "figure6.ridl"
    path.write_text(to_dsl(figure6_schema()))
    return path


class TestExitCodes:
    def test_valid_schema_exits_0(self, schema_file):
        code, output = run(
            ["validate", str(schema_file), "--backend", "sqlite",
             "--scale", "150"]
        )
        assert code == EXIT_OK
        assert "result: OK" in output
        assert "detection matrix" in output

    def test_unavailable_backend_falls_back_and_exits_5(self, schema_file):
        if duckdb_available():
            pytest.skip("duckdb installed; fallback path not reachable")
        code, output = run(
            ["validate", str(schema_file), "--backend", "duckdb",
             "--scale", "100", "--no-inject"]
        )
        assert code == EXIT_DEGRADED
        assert "fell back" in output

    def test_auto_backend_never_degrades(self, schema_file):
        code, _ = run(
            ["validate", str(schema_file), "--scale", "100",
             "--no-inject"]
        )
        assert code == EXIT_OK

    def test_bad_backend_exits_2(self, schema_file):
        code, output = run(
            ["validate", str(schema_file), "--backend", "oracle-v5"]
        )
        assert code == EXIT_USAGE
        assert "invalid choice" in output

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_DEGRADED, EXIT_INVALID, EXIT_USAGE}) == 4


class TestReportOutput:
    def test_json_format_is_parseable(self, schema_file):
        code, output = run(
            ["validate", str(schema_file), "--backend", "memory",
             "--scale", "100", "--format", "json"]
        )
        assert code == EXIT_OK
        decoded = json.loads(output)
        assert decoded["ok"] is True
        assert decoded["backend"]["used"] == "memory"
        assert decoded["matrix"]["diagonal"] is True

    def test_no_inject_skips_the_matrix(self, schema_file):
        _, output = run(
            ["validate", str(schema_file), "--backend", "memory",
             "--scale", "100", "--no-inject", "--format", "json"]
        )
        assert json.loads(output)["matrix"] is None

    def test_seed_is_reproducible(self, schema_file):
        argv = ["validate", str(schema_file), "--backend", "memory",
                "--scale", "100", "--seed", "13", "--format", "json"]
        first = json.loads(run(argv)[1])
        second = json.loads(run(argv)[1])
        first.pop("timings"), second.pop("timings")
        assert first == second

    def test_report_is_byte_identical_across_check_workers(self, schema_file):
        """Sharding the check phase is an execution detail: once the
        wall-clock timings are stripped, the JSON report must be
        byte-for-byte the same for every ``--check-workers`` count."""
        reports = []
        for workers in ("1", "2", "4"):
            argv = ["validate", str(schema_file), "--backend", "sqlite",
                    "--scale", "120", "--seed", "13",
                    "--check-workers", workers, "--format", "json"]
            code, output = run(argv)
            assert code == EXIT_OK
            decoded = json.loads(output)
            decoded.pop("timings")
            reports.append(json.dumps(decoded, sort_keys=True).encode())
        assert reports[0] == reports[1] == reports[2]

    def test_check_workers_is_recorded_in_timings(self, schema_file):
        _, output = run(
            ["validate", str(schema_file), "--backend", "memory",
             "--scale", "100", "--no-inject", "--check-workers", "3",
             "--format", "json"]
        )
        decoded = json.loads(output)
        # The memory backend cannot snapshot, so the check runs serial
        # and the report records the *effective* worker count.
        assert decoded["timings"]["check_workers"] == 1

    def test_trace_records_executor_spans(self, schema_file, tmp_path):
        trace = tmp_path / "trace.json"
        code, _ = run(
            ["validate", str(schema_file), "--backend", "memory",
             "--scale", "100", "--no-inject", "--trace", str(trace)]
        )
        assert code == EXIT_OK
        assert "executor.validate" in trace.read_text()

    def test_trace_records_the_conceptual_phases(self, schema_file, tmp_path):
        trace = tmp_path / "trace.json"
        code, _ = run(
            ["validate", str(schema_file), "--backend", "memory",
             "--scale", "100", "--no-inject", "--trace", str(trace)]
        )
        assert code == EXIT_OK
        text = trace.read_text()
        for span in ("workloads.generate_bulk_population",
                     "mapper.canonicalize", "mapper.forward"):
            assert f'"{span}"' in text

    def test_trace_records_the_injection_phase(self, schema_file, tmp_path):
        spans, chrome = tmp_path / "spans.json", tmp_path / "chrome.json"
        for trace, trace_format in ((spans, "spans"), (chrome, "chrome")):
            code, _ = run(
                ["validate", str(schema_file), "--backend", "sqlite",
                 "--scale", "100", "--trace", str(trace),
                 "--trace-format", trace_format]
            )
            assert code == EXIT_OK
        assert '"robustness.plan_injections"' in spans.read_text()
        counters = json.loads(chrome.read_text())["otherData"]["metrics"][
            "counters"
        ]
        assert counters["robustness.candidates_verified"] > 0

    def test_mapping_options_are_honoured(self, schema_file):
        _, output = run(
            ["validate", str(schema_file), "--backend", "memory",
             "--scale", "100", "--sublinks", "TOGETHER",
             "--format", "json"]
        )
        decoded = json.loads(output)
        assert decoded["ok"] is True
        assert "check" in decoded["rules"]
