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
ALLOWED in every dialect: ``parse(to_dsl(lifted)) == lifted``.  A
fourth reads the DDL of the same designs back with ``parse_ddl``, plus
an inline design with a two-column foreign key: every CHECK whose
annotation names a lossless-rule form must be read by that form's
inverse, and every foreign key of the mapped schema must survive with
its relation, columns and referenced columns.

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
from repro.relational.predicates import (  # noqa: E402
    CONDITIONAL_EQUALITY,
    DEPENDENT_EXISTENCE,
    EQUAL_EXISTENCE,
    EXCLUSION,
    TOTAL_UNION,
    VALUE_RESTRICTION,
    conditional_equality_operands,
    dependent_existence_operands,
    equal_existence_operands,
    exclusion_operands,
    total_union_operands,
    value_restriction_operands,
)
from repro.sql.dialects import PROFILES  # noqa: E402
from repro.sql.parse import parse_ddl  # noqa: E402
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


#: A room keyed by two columns, so a booking references it through a
#: two-column foreign key, which no bundled design holds.  Only the
#: forms pass reads it: the lift cannot classify the two-column
#: anchor yet.
COMPOUND_REFERENCE = """schema Compound
lot Code : char(3)
lot Num : integer
lot Label : char(10)
nolot Room
nolot Booking
fact room_code ( Room has_code [unique, total], Code code_of )
fact room_num ( Room has_num [unique, total], Num num_of )
constraint RoomKey unique room_code.code_of, room_num.num_of reference
identifier Booking by Label
fact booked ( Booking booked_room [unique, total], Room room_booked )
"""

#: The annotation of each lossless-rule CHECK, and the inverse that
#: must read it.
CHECK_FORMS = {
    DEPENDENT_EXISTENCE: dependent_existence_operands,
    EQUAL_EXISTENCE: equal_existence_operands,
    EXCLUSION: exclusion_operands,
    TOTAL_UNION: total_union_operands,
    VALUE_RESTRICTION: value_restriction_operands,
    CONDITIONAL_EQUALITY: conditional_equality_operands,
}


def _foreign_keys(schema) -> list[tuple]:
    return sorted(
        (fk.relation, fk.columns, fk.referenced_relation, fk.referenced_columns)
        for fk in schema.foreign_keys()
    )


def forms_pass() -> int:
    """Annotated CHECKs read back as their form, and foreign keys
    survive, after ``parse_ddl`` in every dialect."""
    print("--- CHECK forms and foreign keys of parsed DDL")
    failures = 0
    compound = ("compound-reference", parse(COMPOUND_REFERENCE))
    for label, schema in [*targets(), compound]:
        for name, options in OPTION_SETS.items():
            result = map_schema(schema, options)
            expected = _foreign_keys(result.relational)
            for dialect in sorted(PROFILES):
                parsed = parse_ddl(result.sql(dialect), dialect).schema
                unread = [
                    check.name
                    for check in parsed.checks()
                    if check.comment in CHECK_FORMS
                    and CHECK_FORMS[check.comment](check.predicate) is None
                ]
                got = _foreign_keys(parsed)
                ok = not unread and got == expected
                print(f"{label} {name} [{dialect}]: {'PASS' if ok else 'FAIL'}")
                if unread:
                    print(f"  CHECKs their form does not read: {unread}")
                if got != expected:
                    lost = [fk for fk in expected if fk not in got]
                    print(f"  foreign keys lost or changed: {lost}")
                failures += not ok
    return failures


def main() -> int:
    failures = fixpoint_pass()
    failures += lint_pass()
    failures += dsl_pass()
    failures += forms_pass()
    if failures:
        print(f"FAILED: {failures} divergence(s)/error(s)")
        return 1
    print("OK: every bundled schema is a reverse-engineering fixpoint")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
