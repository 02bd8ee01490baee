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


#: Each numeric flag, the smallest value it accepts, and the command
#: that takes it (``reverse`` runs its ``--scale`` leg under
#: ``--fixpoint``, where 0 means "skip").
NUMERIC_FLAGS = [
    (["advise"], "--workers", 1),
    (["advise"], "--top-k", 1),
    (["advise"], "--max-candidates", 1),
    (["advise"], "--per-sublink", 0),
    (["advise"], "--rows", 1),
    (["profile"], "--workers", 1),
    (["profile"], "--top-k", 1),
    (["validate"], "--scale", 1),
    (["validate"], "--check-workers", 1),
    (["reverse", "--fixpoint"], "--scale", 0),
]


class TestNumericFlags:
    @pytest.mark.parametrize(
        "command, flag, minimum",
        NUMERIC_FLAGS,
        ids=[f"{c[0]}{f}" for c, f, _ in NUMERIC_FLAGS],
    )
    @pytest.mark.parametrize("offset", [1, 11])
    def test_value_below_minimum_exits_2(
        self, capsys, schema_file, command, flag, minimum, offset
    ):
        value = str(minimum - offset)
        argv = [command[0], str(schema_file), *command[1:], flag, value]
        code, output = run(argv)
        assert code == EXIT_USAGE
        assert output.splitlines() == [
            f"error: repro {command[0]}: argument {flag}: expected an "
            f"integer >= {minimum}, got '{value}'"
        ]
        assert "Traceback" not in capsys.readouterr().err

    def test_non_integer_exits_2(self, schema_file):
        code, output = run(["advise", str(schema_file), "--rows", "many"])
        assert code == EXIT_USAGE
        assert "argument --rows" in output

    @pytest.mark.parametrize(
        "argv",
        [
            ["advise", "--workers", "1", "--top-k", "1", "--max-candidates",
             "1", "--per-sublink", "0", "--rows", "1"],
            ["profile", "--workers", "1", "--top-k", "1"],
            ["validate", "--scale", "1", "--check-workers", "1"],
            ["reverse", "--fixpoint", "--scale", "0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_boundary_values_run(self, schema_file, argv):
        code, _ = run([argv[0], str(schema_file), *argv[1:]])
        assert code == EXIT_OK


#: Every command that reads its input file, as argv after the path.
READERS = [
    ["analyze"],
    ["map"],
    ["lint"],
    ["validate", "--scale", "50"],
    ["advise"],
    ["reverse"],
    ["profile", "--pipeline", "lint"],
]


class TestUnreadableInput:
    """A bad input path or file is a usage error: exit 2 and one
    ``error:`` line naming the path, never a traceback."""

    @staticmethod
    def assert_one_error(capsys, output, *needles):
        errors = [line for line in output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, output
        for needle in needles:
            assert needle in errors[0]
        assert "Traceback" not in output + capsys.readouterr().err

    @pytest.mark.parametrize("command", READERS, ids=lambda argv: argv[0])
    def test_undecodable_file_exits_2_with_its_line(
        self, capsys, tmp_path, command
    ):
        path = tmp_path / "latin.ridl"
        path.write_bytes(b"schema X\n\xff\xfe lot A char(3)\n")
        code, output = run([command[0], str(path), *command[1:]])
        assert code == EXIT_USAGE
        self.assert_one_error(capsys, output, str(path), "line 2")

    @pytest.mark.parametrize("command", READERS, ids=lambda argv: argv[0])
    def test_directory_as_schema_exits_2(self, capsys, tmp_path, command):
        code, output = run([command[0], str(tmp_path), *command[1:]])
        assert code == EXIT_USAGE
        self.assert_one_error(capsys, output, str(tmp_path))

    def test_directory_as_trace_file_exits_2(self, capsys, schema_file, tmp_path):
        code, output = run(["map", str(schema_file), "--trace", str(tmp_path)])
        assert code == EXIT_USAGE
        self.assert_one_error(capsys, output, str(tmp_path))

    def test_existing_file_as_report_directory_exits_2(
        self, capsys, schema_file
    ):
        code, output = run(["report", str(schema_file), "--out", str(schema_file)])
        assert code == EXIT_USAGE
        self.assert_one_error(capsys, output, str(schema_file))
