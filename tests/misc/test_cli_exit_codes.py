"""Distinct CLI exit codes per failure class, and the session modes.

0 success, 1 analysis found the schema unmappable, 2 parse/usage
errors, 3 analysis failures, 4 mapping failures, 5 degraded
best-effort success.
"""

import io

import pytest

from repro.cli import (
    EXIT_ANALYSIS,
    EXIT_DEGRADED,
    EXIT_MAPPING,
    EXIT_OK,
    EXIT_UNMAPPABLE,
    EXIT_USAGE,
    main,
)
from repro.cris import figure6_schema
from repro.dsl import to_dsl
from repro.robustness import Fault, inject


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "figure6.ridl"
    path.write_text(to_dsl(figure6_schema()))
    return path


@pytest.fixture
def broken_schema_file(tmp_path):
    path = tmp_path / "bad.ridl"
    path.write_text(
        "schema Bad\nnolot Ghost\nlot K : char(3)\n"
        "attribute Ghost has K\n"
    )
    return path


class TestExitCodes:
    def test_parse_error_exits_2(self, tmp_path):
        path = tmp_path / "syntax.ridl"
        path.write_text("widget Nope\n")
        for command in (["analyze"], ["map"], ["report", "--out", "x"]):
            argv = [command[0], str(path)] + command[1:]
            code, output = run(argv)
            assert code == EXIT_USAGE, argv
            assert "error:" in output

    def test_model_error_exits_2_with_one_line(self, tmp_path):
        path = tmp_path / "self_subtype.ridl"
        path.write_text(
            "schema S\nnolot Paper\nlot Title : char(20)\n"
            "identifier Paper by Title\nsubtype Paper of Paper\n"
        )
        code, output = run(["map", str(path)])
        assert code == EXIT_USAGE
        lines = output.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: line 5, column 1: ")

    def test_missing_file_exits_2(self):
        code, _ = run(["map", "no_such_file.ridl"])
        assert code == EXIT_USAGE

    def test_analysis_failure_exits_3(self, broken_schema_file):
        code, output = run(["map", str(broken_schema_file)])
        assert code == EXIT_ANALYSIS
        assert "NOT_REFERABLE" in output

    def test_mapping_failure_exits_4(self, schema_file):
        code, output = run(["map", str(schema_file), "--omit", "Nope"])
        assert code == EXIT_MAPPING
        assert "error:" in output

    def test_analyze_unmappable_exits_1(self, broken_schema_file):
        code, _ = run(["analyze", str(broken_schema_file)])
        assert code == EXIT_UNMAPPABLE

    def test_report_mapping_failure_exits_4(self, schema_file, tmp_path):
        code, _ = run(
            [
                "report",
                str(schema_file),
                "--omit",
                "Nope",
                "--out",
                str(tmp_path / "build"),
            ]
        )
        assert code == EXIT_MAPPING


class TestSessionModes:
    def test_strict_is_the_default_and_accepted(self, schema_file):
        code, output = run(["map", str(schema_file), "--strict"])
        assert code == EXIT_OK
        assert "CREATE TABLE" in output

    def test_best_effort_clean_run_exits_0(self, schema_file):
        code, output = run(["map", str(schema_file), "--best-effort"])
        assert code == EXIT_OK
        assert "CREATE TABLE" in output
        assert "DEGRADED" not in output

    def test_best_effort_degraded_exits_5_and_reports(self, schema_file):
        with inject(Fault("rule:canonicalize", kind="corrupt")):
            code, output = run(
                ["map", str(schema_file), "--best-effort"]
            )
        assert code == EXIT_DEGRADED
        assert "CREATE TABLE" in output  # DDL still produced
        assert "DEGRADED" in output
        assert "canonicalize" in output

    def test_strict_fails_where_best_effort_degrades(self, schema_file):
        with inject(Fault("rule:canonicalize", kind="corrupt")):
            code, output = run(["map", str(schema_file), "--strict"])
        assert code == EXIT_MAPPING
        assert "quarantined" in output

    def test_modes_are_mutually_exclusive(self, schema_file):
        code, output = run(
            ["map", str(schema_file), "--strict", "--best-effort"]
        )
        assert code == EXIT_USAGE
        assert output.startswith("error:")
        assert len(output.strip().splitlines()) == 1

    def test_report_writes_health_artifact(self, schema_file, tmp_path):
        out_dir = tmp_path / "build"
        code, output = run(
            ["report", str(schema_file), "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        assert (out_dir / "health.txt").exists()
        assert "OK" in (out_dir / "health.txt").read_text()
