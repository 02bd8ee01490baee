"""Command-line interface: ``python -m repro``.

The workbench as a tool: schemas written in the DSL are analyzed,
mapped and rendered from the shell, mirroring the engineer-facing
loop of the paper's figure 1::

    python -m repro analyze conference.ridl
    python -m repro map conference.ridl --sublinks TOGETHER --dialect sql2
    python -m repro map conference.ridl --strict        # abort on any failure
    python -m repro map conference.ridl --best-effort   # survive, report health
    python -m repro report conference.ridl --out build/
    python -m repro lint conference.ridl --format sarif > lint.sarif
    python -m repro show conference.ridl --format dot > schema.dot
    python -m repro map conference.ridl --trace trace.json
    python -m repro profile conference.ridl --pipeline advise --top-k 10
    python -m repro validate conference.ridl --backend sqlite --scale 10000
    python -m repro reverse legacy.sql --dialect oracle
    python -m repro reverse conference.ridl --fixpoint --scale 10000

``map`` prints DDL; ``report`` writes the full artifact set (DDL for
every dialect, forwards/backwards map report, transformation trace)
into a directory; ``show`` renders the conceptual schema.

``--strict`` (default) aborts the mapping session on the first failed
step; ``--best-effort`` lets the fault-tolerant session quarantine bad
rules and skip failed option phases, prints the health report, and
exits with code 5 when the result is degraded.  Exit codes are
distinct per failure class: 0 success, 1 analysis found the schema
unmappable (or ``lint`` found errors, or ``reverse`` could not lift
the DDL), 2 parse/usage errors or a missing, unreadable or
undecodable file, 3 analysis failures, 4 mapping
failures, 5 degraded best-effort success (or ``validate`` falling
back from an unavailable backend), 6 ``validate`` found the mapped
state invalid — a rule violated on a valid population, a non-empty
round-trip diff, or a non-diagonal detection matrix — or ``reverse
--fixpoint`` found a round-trip divergence.  Every argument error — argparse's own and our
option validation alike — prints a one-line message and exits 2.

``validate`` runs the empirical-losslessness harness
(:mod:`repro.executor`): it generates a seeded valid population
sized to ``--scale`` relational rows, forward-maps and bulk-loads it
on ``--backend`` (``auto`` picks DuckDB, then SQLite, then the
in-memory engine), executes every compiled lossless rule, round-trips
the state, and (unless ``--no-inject``) replays one surgical
violation per mutator kind to confirm the detection matrix is
diagonal.  ``--format json`` prints the machine-readable report.

``reverse`` walks the mapping backwards (:mod:`repro.mapper.reverse`):
it parses a relational DDL script, lifts it to a binary schema with
per-element provenance, and prints the lifted schema in the DSL; with
``--fixpoint`` it instead takes a DSL schema and asserts the
differential round-trip ``lift(emit(S))`` is a fixpoint (DDL
idempotence, structural digest, implication closure, and — with
``--scale`` — identical empirical validation).

``--trace FILE`` (on ``map``/``report``/``advise``/``lint``/
``profile``/``reverse``) records the run with the tracing layer of
:mod:`repro.observability` and writes the deterministic JSON span
tree — or, with ``--trace-format chrome``, a ``chrome://tracing``
file with real timings.  ``profile`` runs one pipeline under the
tracer and prints the top-k spans by self time plus the pipeline
counters (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

from repro.analyzer import analyze
from repro.dsl import parse
from repro.errors import AnalysisError, MappingError, RidlError
from repro.lint import lint_schema, render_json, render_sarif, render_text
from repro.mapper import (
    MappingOptions,
    NullPolicy,
    SublinkPolicy,
    advise,
    discover_space,
    map_schema,
)
from repro.notation import render_ascii, render_dot
from repro.observability import (
    Tracer,
    render_profile,
    to_chrome_trace,
    to_json,
)
from repro.sql import PROFILES
from repro.workloads.statistics import WorkloadProfile

#: Exit codes, one per failure class (see the module docstring).
EXIT_OK = 0
EXIT_UNMAPPABLE = 1
EXIT_USAGE = 2
EXIT_ANALYSIS = 3
EXIT_MAPPING = 4
EXIT_DEGRADED = 5
EXIT_INVALID = 6

_NULL_CHOICES = {policy.name: policy for policy in NullPolicy}
_SUBLINK_CHOICES = {policy.name: policy for policy in SublinkPolicy}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports usage errors uniformly.

    Stock argparse prints a multi-line usage block to stderr and
    exits the process; our own option validation raises
    :class:`RidlError` and prints one line.  Routing argparse's
    errors through the same exception unifies every argument error
    on a one-line message and exit code 2.
    """

    def error(self, message: str) -> None:  # type: ignore[override]
        raise RidlError(f"{self.prog}: {message}")


def _integer_at_least(minimum: int):
    """An argparse ``type=`` accepting integers no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}"
            )
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    parser = _Parser(
        prog="repro",
        description="RIDL* reproduction: analyze and map binary "
        "conceptual schemas written in the DSL.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze_cmd = commands.add_parser(
        "analyze", help="run the four RIDL-A functions"
    )
    analyze_cmd.add_argument("schema", type=Path, help="DSL schema file")

    map_cmd = commands.add_parser(
        "map", help="map to a relational schema and print DDL"
    )
    map_cmd.add_argument("schema", type=Path)
    _add_option_arguments(map_cmd)
    map_cmd.add_argument(
        "--dialect",
        default="sql2",
        choices=sorted(PROFILES) + ["pseudo"],
        help="DDL dialect (default: sql2)",
    )
    _add_trace_arguments(map_cmd)

    report_cmd = commands.add_parser(
        "report", help="write DDL, map report and trace to a directory"
    )
    report_cmd.add_argument("schema", type=Path)
    _add_option_arguments(report_cmd)
    report_cmd.add_argument(
        "--out", type=Path, required=True, help="output directory"
    )
    _add_trace_arguments(report_cmd)

    advise_cmd = commands.add_parser(
        "advise",
        help="explore the mapping-option lattice and rank the designs",
    )
    advise_cmd.add_argument("schema", type=Path)
    advise_cmd.add_argument(
        "--workers",
        type=_integer_at_least(1),
        default=None,
        metavar="N",
        help="process-pool size (default: one per CPU; 1 = serial)",
    )
    advise_cmd.add_argument(
        "--top-k",
        type=_integer_at_least(1),
        default=5,
        metavar="K",
        help="how many ranked candidates to print (default 5)",
    )
    advise_cmd.add_argument(
        "--max-candidates",
        type=_integer_at_least(1),
        default=64,
        metavar="M",
        help="hard cap on the enumerated lattice (default 64)",
    )
    advise_cmd.add_argument(
        "--nulls-axis",
        default=None,
        metavar="P1,P2,...",
        help="null policies to explore (default: DEFAULT,"
        "NOT_IN_KEYS,NOT_ALLOWED)",
    )
    advise_cmd.add_argument(
        "--sublinks-axis",
        default=None,
        metavar="P1,P2,...",
        help="global sublink policies to explore (default: all three)",
    )
    advise_cmd.add_argument(
        "--per-sublink",
        type=_integer_at_least(0),
        default=0,
        metavar="N",
        help="also vary the policy of up to N individual sublinks",
    )
    advise_cmd.add_argument(
        "--combine-axis",
        action="append",
        default=[],
        metavar="TARGET=SOURCE",
        help="toggle combining SOURCE into TARGET (repeatable)",
    )
    advise_cmd.add_argument(
        "--omit-axis",
        action="append",
        default=[],
        metavar="TABLE",
        help="toggle omitting TABLE (repeatable; disables probing)",
    )
    advise_cmd.add_argument(
        "--rows",
        type=_integer_at_least(1),
        default=10_000,
        metavar="N",
        help="assumed instances per object type (default 10000)",
    )
    advise_cmd.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="report format (default: text)",
    )
    _add_trace_arguments(advise_cmd)

    lint_cmd = commands.add_parser(
        "lint",
        help="run the static-diagnostics rules over a schema and "
        "its mapping artifacts",
    )
    lint_cmd.add_argument("schema", type=Path)
    lint_cmd.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated codes or prefixes to run exclusively "
        "(e.g. BRM009,TRC)",
    )
    lint_cmd.add_argument(
        "--ignore",
        default=None,
        metavar="CODES",
        help="comma-separated codes or prefixes to skip",
    )
    lint_cmd.add_argument(
        "--dialect",
        default="sql2",
        choices=sorted(PROFILES),
        help="dialect profile for the SQL2xx identifier rules "
        "(default: sql2)",
    )
    lint_cmd.add_argument(
        "--format",
        default="text",
        choices=["text", "json", "sarif"],
        help="report format (default: text)",
    )
    _add_trace_arguments(lint_cmd)

    show_cmd = commands.add_parser(
        "show", help="render the conceptual schema"
    )
    show_cmd.add_argument("schema", type=Path)
    show_cmd.add_argument(
        "--format", default="ascii", choices=["ascii", "dot"]
    )

    profile_cmd = commands.add_parser(
        "profile",
        help="run one pipeline under the tracer and print the "
        "hottest spans",
    )
    profile_cmd.add_argument("schema", type=Path)
    profile_cmd.add_argument(
        "--pipeline",
        default="map",
        choices=["map", "advise", "lint"],
        help="which pipeline to profile (default: map)",
    )
    _add_option_arguments(profile_cmd)
    profile_cmd.add_argument(
        "--dialect",
        default="sql2",
        choices=sorted(PROFILES),
        help="DDL dialect for the map/lint pipelines (default: sql2)",
    )
    profile_cmd.add_argument(
        "--workers",
        type=_integer_at_least(1),
        default=None,
        metavar="N",
        help="advise pipeline process-pool size (1 = serial)",
    )
    profile_cmd.add_argument(
        "--top-k",
        type=_integer_at_least(1),
        default=15,
        metavar="K",
        help="how many aggregated spans to print (default 15)",
    )
    _add_trace_arguments(profile_cmd)

    reverse_cmd = commands.add_parser(
        "reverse",
        help="lift relational DDL back to a binary schema, or check "
        "the lift/remap fixpoint on a DSL schema",
    )
    reverse_cmd.add_argument(
        "schema",
        type=Path,
        help="DDL script to lift (a DSL schema with --fixpoint)",
    )
    reverse_cmd.add_argument(
        "--dialect",
        default="sql2",
        choices=sorted(PROFILES),
        help="DDL dialect of the input, or the dialect to round-trip "
        "through under --fixpoint (default: sql2)",
    )
    reverse_cmd.add_argument(
        "--fixpoint",
        action="store_true",
        default=False,
        help="treat the input as a DSL schema: map it, lift the DDL, "
        "remap, and assert the differential fixpoint (exit 6 on "
        "divergence)",
    )
    _add_option_arguments(reverse_cmd)
    reverse_cmd.add_argument(
        "--scale",
        type=_integer_at_least(0),
        default=0,
        metavar="ROWS",
        help="with --fixpoint: also run the empirical leg, validating "
        "a population of ROWS relational rows on both the source and "
        "the lifted schema (default 0: skip)",
    )
    reverse_cmd.add_argument(
        "--seed",
        type=int,
        default=7,
        metavar="N",
        help="population seed for the empirical leg (default 7)",
    )
    reverse_cmd.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="report format (default: text)",
    )
    _add_trace_arguments(reverse_cmd)

    validate_cmd = commands.add_parser(
        "validate",
        help="run the empirical-losslessness harness on an execution "
        "backend",
    )
    validate_cmd.add_argument("schema", type=Path)
    _add_option_arguments(validate_cmd)
    validate_cmd.add_argument(
        "--backend",
        default="auto",
        choices=["auto", "duckdb", "sqlite", "memory"],
        help="execution backend (auto: duckdb, then sqlite, then the "
        "in-memory engine)",
    )
    validate_cmd.add_argument(
        "--scale",
        type=_integer_at_least(1),
        default=1000,
        metavar="ROWS",
        help="target relational row count for the generated "
        "population (default 1000)",
    )
    validate_cmd.add_argument(
        "--seed",
        type=int,
        default=7,
        metavar="N",
        help="population and injection seed (default 7)",
    )
    inject = validate_cmd.add_mutually_exclusive_group()
    inject.add_argument(
        "--inject",
        dest="inject",
        action="store_true",
        default=True,
        help="plan and replay surgical violations (default)",
    )
    inject.add_argument(
        "--no-inject",
        dest="inject",
        action="store_false",
        help="skip the injection/detection experiment",
    )
    validate_cmd.add_argument(
        "--check-workers",
        type=_integer_at_least(1),
        default=1,
        metavar="N",
        help="shard the compiled checker queries across N worker "
        "processes on backends that support it (default 1: serial; "
        "the report is identical across worker counts)",
    )
    validate_cmd.add_argument(
        "--prune-implied",
        action="store_true",
        default=False,
        help="skip checker queries for rules the implication engine "
        "proved implied by other enforced rules (the report records "
        "the pruned rule names with their proofs)",
    )
    validate_cmd.add_argument(
        "--format",
        default="text",
        choices=["text", "json"],
        help="report format (default: text)",
    )
    _add_trace_arguments(validate_cmd)
    return parser


def _add_trace_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="record the run and write the trace to FILE",
    )
    command.add_argument(
        "--trace-format",
        default="spans",
        choices=["spans", "chrome"],
        help="trace file format: deterministic JSON span tree or "
        "chrome://tracing events (default: spans)",
    )


def _add_option_arguments(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--nulls",
        default="DEFAULT",
        choices=sorted(_NULL_CHOICES),
        help="null-value option (section 4.2.1)",
    )
    command.add_argument(
        "--sublinks",
        default="SEPARATE",
        choices=sorted(_SUBLINK_CHOICES),
        help="sublink mapping option (section 4.2.2)",
    )
    command.add_argument(
        "--sublink-override",
        action="append",
        default=[],
        metavar="SUBLINK=POLICY",
        help="per-sublink exception, e.g. Invited_IS_Paper=INDICATOR",
    )
    command.add_argument(
        "--omit",
        action="append",
        default=[],
        metavar="TABLE",
        help="omit a generated table (mapping option 5)",
    )
    modes = command.add_mutually_exclusive_group()
    modes.add_argument(
        "--strict",
        dest="mode",
        action="store_const",
        const="strict",
        default="strict",
        help="abort the session on the first failed step (default)",
    )
    modes.add_argument(
        "--best-effort",
        dest="mode",
        action="store_const",
        const="best-effort",
        help="quarantine bad rules, skip failed option phases, "
        "report health (exit 5 when degraded)",
    )


def _options_from(namespace: argparse.Namespace) -> MappingOptions:
    overrides = []
    for item in namespace.sublink_override:
        name, _, policy = item.partition("=")
        if policy not in _SUBLINK_CHOICES:
            raise RidlError(
                f"unknown sublink policy {policy!r} in override {item!r}"
            )
        overrides.append((name, _SUBLINK_CHOICES[policy]))
    return MappingOptions(
        null_policy=_NULL_CHOICES[namespace.nulls],
        sublink_policy=_SUBLINK_CHOICES[namespace.sublinks],
        sublink_overrides=tuple(overrides),
        omit_tables=tuple(namespace.omit),
    )


def _read(path: Path) -> str:
    """An input file's text (UTF-8, universal newlines).

    Bytes that are not UTF-8 raise a :class:`RidlError` naming the file
    and the line of the first bad byte; an unreadable path raises its
    ``OSError``, which :func:`main` reports like a missing file.
    """
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise RidlError(
            f"{path}: line {line}: not valid UTF-8 ({exc.reason})"
        ) from None
    return io.StringIO(text, newline=None).read()


def _load(path: Path):
    return parse(_read(path))


def main(argv: list[str] | None = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
        trace_path = getattr(namespace, "trace", None)
        if trace_path is None and namespace.command != "profile":
            return _dispatch(namespace, out)
        tracer = Tracer(f"repro {namespace.command}")
        try:
            with tracer.activate():
                return _dispatch(namespace, out, tracer=tracer)
        finally:
            # Written even when a later handler turns the failure
            # into an exit code — a trace of a failed run is still a
            # trace.
            if trace_path is not None:
                _write_trace(tracer, trace_path, namespace.trace_format)
    except BrokenPipeError:  # pragma: no cover - e.g. `| head`
        return EXIT_OK
    except OSError as exc:
        # A missing, unreadable or mistyped path (a directory given
        # for a file, an existing file given for --out).
        print(f"error: {exc}", file=out)
        return EXIT_USAGE
    except AnalysisError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_ANALYSIS
    except MappingError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_MAPPING
    except RidlError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_USAGE
    return EXIT_USAGE  # pragma: no cover - argparse enforces the commands


def _dispatch(namespace: argparse.Namespace, out, tracer=None) -> int:
    """Run one parsed command; exceptions propagate to ``main``."""
    if namespace.command == "analyze":
        report = analyze(_load(namespace.schema))
        print(report.render(), file=out)
        return EXIT_OK if report.is_mappable else EXIT_UNMAPPABLE
    if namespace.command == "map":
        result = map_schema(
            _load(namespace.schema),
            _options_from(namespace),
            robustness=namespace.mode,
        )
        print(result.sql(namespace.dialect), file=out)
        return _finish_mapping(result, out)
    if namespace.command == "report":
        result = map_schema(
            _load(namespace.schema),
            _options_from(namespace),
            robustness=namespace.mode,
        )
        written = write_artifacts(result, namespace.out)
        for path in written:
            print(path, file=out)
        return _finish_mapping(result, out)
    if namespace.command == "advise":
        return _run_advise(namespace, out)
    if namespace.command == "lint":
        return _run_lint(namespace, out)
    if namespace.command == "show":
        schema = _load(namespace.schema)
        renderer = render_dot if namespace.format == "dot" else render_ascii
        print(renderer(schema), file=out)
        return EXIT_OK
    if namespace.command == "profile":
        return _run_profile(namespace, out, tracer)
    if namespace.command == "validate":
        return _run_validate(namespace, out)
    if namespace.command == "reverse":
        return _run_reverse(namespace, out)
    raise RidlError(f"unknown command {namespace.command!r}")


def _write_trace(tracer, path: Path, trace_format: str) -> None:
    if trace_format == "chrome":
        text = to_chrome_trace(tracer)
    else:
        text = to_json(tracer, deterministic=True)
    path.write_text(text)


def _run_profile(namespace: argparse.Namespace, out, tracer) -> int:
    """The ``profile`` subcommand: run a pipeline, print hot spans."""
    if namespace.pipeline == "map":
        result = map_schema(
            _load(namespace.schema),
            _options_from(namespace),
            robustness=namespace.mode,
        )
        result.sql(namespace.dialect)
    elif namespace.pipeline == "advise":
        schema = _load(namespace.schema)
        advise(
            schema, discover_space(schema), workers=namespace.workers
        )
    else:
        source = _read(namespace.schema)
        lint_schema(
            parse(source), source=source, dialect=namespace.dialect
        )
    print(render_profile(tracer, top_k=namespace.top_k), file=out)
    return EXIT_OK


def _run_validate(namespace: argparse.Namespace, out) -> int:
    """The ``validate`` subcommand: 0 ok, 5 fallback, 6 invalid."""
    from repro.executor import run_validation

    report = run_validation(
        _load(namespace.schema),
        _options_from(namespace),
        backend=namespace.backend,
        scale=namespace.scale,
        seed=namespace.seed,
        inject=namespace.inject,
        check_workers=namespace.check_workers,
        prune_implied=namespace.prune_implied,
    )
    if namespace.format == "json":
        out.write(report.to_json())
    else:
        print(report.render(), file=out)
    if not report.ok:
        return EXIT_INVALID
    if (
        report.backend_requested != "auto"
        and report.backend_used != report.backend_requested
    ):
        # The harness ran, but not where the user asked it to.
        return EXIT_DEGRADED
    return EXIT_OK


def _run_reverse(namespace: argparse.Namespace, out) -> int:
    """The ``reverse`` subcommand: lift DDL, or assert the fixpoint.

    Exit codes: 0 lifted (or fixpoint holds), 1 the DDL parsed but
    could not be lifted, 2 parse/usage errors, 6 fixpoint divergence.
    """
    import json as _json

    from repro.dsl import to_dsl
    from repro.mapper.reverse import LiftError, check_fixpoint, lift_ddl

    if namespace.fixpoint:
        report = check_fixpoint(
            _load(namespace.schema),
            _options_from(namespace),
            dialect=namespace.dialect,
            empirical_scale=namespace.scale,
            seed=namespace.seed,
        )
        if namespace.format == "json":
            out.write(_json.dumps(report.as_dict(), indent=2) + "\n")
        else:
            print(report.describe(), file=out)
        return EXIT_OK if report.ok else EXIT_INVALID
    text = _read(namespace.schema)
    try:
        lifted = lift_ddl(text, namespace.dialect)
    except LiftError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_UNMAPPABLE
    if namespace.format == "json":
        payload = lifted.report.as_dict()
        payload["dsl"] = to_dsl(lifted.schema)
        out.write(_json.dumps(payload, indent=2) + "\n")
    else:
        print(to_dsl(lifted.schema), file=out)
        print(lifted.report.describe(), file=out)
    return EXIT_OK


def _policy_axis(text, choices, default):
    if text is None:
        return default
    axis = []
    for name in text.split(","):
        name = name.strip()
        if name not in choices:
            raise RidlError(
                f"unknown policy {name!r}; choose from "
                f"{', '.join(sorted(choices))}"
            )
        axis.append(choices[name])
    return tuple(axis)


def _run_advise(namespace: argparse.Namespace, out) -> int:
    """The ``advise`` subcommand: rank the option lattice's designs."""
    from dataclasses import replace

    schema = _load(namespace.schema)
    space = discover_space(
        schema,
        null_policies=_policy_axis(
            namespace.nulls_axis,
            _NULL_CHOICES,
            (NullPolicy.DEFAULT, NullPolicy.NOT_IN_KEYS, NullPolicy.NOT_ALLOWED),
        ),
        sublink_policies=_policy_axis(
            namespace.sublinks_axis, _SUBLINK_CHOICES, tuple(SublinkPolicy)
        ),
        max_override_axes=namespace.per_sublink,
        # Explicit omit axes replace the probed defaults.
        max_omit_toggles=0 if namespace.omit_axis else 2,
        max_candidates=namespace.max_candidates,
    )
    combines = []
    for item in namespace.combine_axis:
        target, sep, source = item.partition("=")
        if not sep or not target or not source:
            raise RidlError(
                f"bad --combine-axis {item!r}; expected TARGET=SOURCE"
            )
        combines.append((target, source))
    if combines or namespace.omit_axis:
        space = replace(
            space,
            combine_toggles=space.combine_toggles + tuple(combines),
            omit_toggles=space.omit_toggles + tuple(namespace.omit_axis),
        )
    report = advise(
        schema,
        space,
        workers=namespace.workers,
        profile=WorkloadProfile(default_instances=namespace.rows),
    )
    if namespace.format == "json":
        out.write(report.to_json(namespace.top_k))
    else:
        print(report.render(namespace.top_k), file=out)
    return EXIT_OK if report.winner is not None else EXIT_MAPPING


def _split_codes(text: str | None) -> tuple[str, ...]:
    if text is None:
        return ()
    return tuple(
        token.strip().upper() for token in text.split(",") if token.strip()
    )


def _run_lint(namespace: argparse.Namespace, out) -> int:
    """The ``lint`` subcommand: 0 clean, 1 errors, 2 usage."""
    source = _read(namespace.schema)
    schema = parse(source)
    try:
        report = lint_schema(
            schema,
            source=source,
            dialect=namespace.dialect,
            select=_split_codes(namespace.select),
            ignore=_split_codes(namespace.ignore),
        )
    except ValueError as exc:
        # Unknown --select/--ignore/pragma codes are usage errors,
        # reported exactly like any other bad argument.
        raise RidlError(str(exc)) from None
    if namespace.format == "json":
        out.write(render_json(report))
    elif namespace.format == "sarif":
        out.write(
            render_sarif(report, artifact_uri=namespace.schema.as_posix())
        )
    else:
        print(render_text(report), file=out)
    return report.exit_code


def _finish_mapping(result, out) -> int:
    """Surface the session health; degraded best-effort runs exit 5."""
    if result.health.ok:
        return EXIT_OK
    print(result.health_report(), file=out)
    return EXIT_DEGRADED


def write_artifacts(result, directory: Path) -> list[Path]:
    """Write the full artifact set of a mapping session.

    One DDL file per dialect, the bidirectional map report, and the
    transformation trace — the documentation discipline the paper
    insists on ("undocumented decisions" being a root cause of schema
    misuse).
    """
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for dialect in sorted(PROFILES):
        path = directory / f"schema.{dialect}.sql"
        path.write_text(result.sql(dialect))
        written.append(path)
    map_path = directory / "map_report.txt"
    map_path.write_text(result.map_report())
    written.append(map_path)
    trace_path = directory / "trace.txt"
    trace_path.write_text(result.trace_report() + "\n")
    written.append(trace_path)
    health_path = directory / "health.txt"
    health_path.write_text(result.health_report() + "\n")
    written.append(health_path)
    return written


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
