#!/usr/bin/env python
"""Run the differential fixpoint harness over every bundled schema.

The CI ``reverse-roundtrip`` job runs this script after the fuzzer
leg.  For each target schema — every ``examples/*.ridl`` file, the
in-memory CRIS case study, and the industrial-scale generated schema
— it checks the reverse-engineering fixpoint across **all** dialect
profiles: the lifted schema remaps to byte-identical DDL, carries the
same structural signature, and saturates to the same implication
closure.  CRIS additionally runs the empirical leg (1e4-row executor
populations on source and lift must validate identically).

A second pass lints every lifted schema: reverse engineering must
produce schemas the linter considers deployable (zero error-severity
findings).  A third reparses the DSL of every lifted schema, for every
target under the default options, TOGETHER, INDICATOR and NULL NOT
ALLOWED in every dialect: ``parse(to_dsl(lifted)) == lifted``.

Locally::

    PYTHONPATH=src python scripts/reverse_roundtrip.py
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.cris import cris_schema  # noqa: E402
from repro.dsl import parse, to_dsl  # noqa: E402
from repro.errors import RidlError  # noqa: E402
from repro.lint import lint_schema  # noqa: E402
from repro.mapper import (  # noqa: E402
    MappingOptions,
    NullPolicy,
    SublinkPolicy,
    check_fixpoint,
    map_schema,
)
from repro.mapper.reverse import lift_ddl  # noqa: E402
from repro.sql.dialects import PROFILES  # noqa: E402
from repro.workloads import SchemaShape, generate_schema  # noqa: E402

# Mirrors benchmarks/bench_industrial_scale.py (785 entities, 134
# relations at seed 1989).
INDUSTRIAL_SHAPE = SchemaShape(
    entity_types=90,
    attributes_per_entity=(4, 9),
    optional_ratio=0.5,
    rich_constraints=True,
    exclusion_groups=5,
    subset_ratio=0.9,
    value_ratio=0.5,
    alternate_identifier_ratio=0.3,
    many_to_many_per_entity=0.6,
)


def targets():
    for path in sorted((REPO / "examples").glob("*.ridl")):
        yield path.relative_to(REPO).as_posix(), parse(path.read_text())
    yield "cris", cris_schema()
    yield "industrial(seed=1989)", generate_schema(INDUSTRIAL_SHAPE, seed=1989)


def fixpoint_pass() -> int:
    failures = 0
    for label, schema in targets():
        empirical = 10_000 if label == "cris" else 0
        for dialect in sorted(PROFILES):
            report = check_fixpoint(
                schema,
                MappingOptions(),
                dialect=dialect,
                empirical_scale=empirical,
                seed=7,
            )
            legs = " ".join(
                f"{leg.name}={'ok' if leg.ok else 'FAIL'}"
                for leg in report.legs
            )
            status = "PASS" if report.ok else "DIVERGED"
            print(f"{label} [{dialect}]: {status}  {legs}")
            if not report.ok:
                print(report.describe())
                failures += 1
            empirical = 0  # the executor leg is dialect-independent
    return failures


def lint_pass() -> int:
    """Lifted schemas must lint clean — zero error-severity findings."""
    print("--- lint of lifted schemas")
    errors = 0
    for label, schema in targets():
        ddl = map_schema(schema, MappingOptions()).sql("sql2")
        lifted = lift_ddl(ddl)
        report = lint_schema(lifted.schema)
        print(
            f"{label}: {len(report.errors)} error(s), "
            f"{len(report.warnings)} warning(s)"
        )
        for finding in report.errors:
            print(f"  {finding.code}: {finding.message}")
        errors += len(report.errors)
    return errors


#: The option sets the DSL pass lifts under.
OPTION_SETS = {
    "default": MappingOptions(),
    "TOGETHER": MappingOptions(sublink_policy=SublinkPolicy.TOGETHER),
    "INDICATOR": MappingOptions(sublink_policy=SublinkPolicy.INDICATOR),
    "NOT_ALLOWED": MappingOptions(null_policy=NullPolicy.NOT_ALLOWED),
}


def dsl_pass() -> int:
    """The DSL printed for every lifted schema must parse back to it."""
    print("--- DSL of lifted schemas")
    failures = 0
    for label, schema in targets():
        for name, options in OPTION_SETS.items():
            result = map_schema(schema, options)
            for dialect in sorted(PROFILES):
                lifted = lift_ddl(result.sql(dialect), dialect).schema
                try:
                    ok = parse(to_dsl(lifted)) == lifted
                    why = "reparsed to a different schema"
                except RidlError as exc:
                    ok, why = False, str(exc)
                print(f"{label} {name} [{dialect}]: {'PASS' if ok else 'FAIL'}")
                if not ok:
                    print(f"  {why}")
                    failures += 1
    return failures


def main() -> int:
    failures = fixpoint_pass()
    failures += lint_pass()
    failures += dsl_pass()
    if failures:
        print(f"FAILED: {failures} divergence(s)/error(s)")
        return 1
    print("OK: every bundled schema is a reverse-engineering fixpoint")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
