"""NULL-semantics audit: pseudo-SQL guards vs compiled checkers.

The engine's predicate evaluation is two-valued (a comparison against
NULL is false); plain SQL is three-valued.  Two properties keep the
backends' verdicts identical on schemas with optional roles:

1. Every ``IS NOT NULL`` guard the pseudo-SQL emitter prints for a
   view-constraint side appears verbatim in the compiled checker, and
   vice versa — the guards *are* the agreed two-valued fragment.
2. Comparison atoms are wrapped in ``COALESCE((...), FALSE)`` so a
   negated predicate over a NULL column flags the same rows in SQL as
   the engine's two-valued ``evaluate`` does.
"""

import re

import pytest

from repro.brm.datatypes import DataType, DataTypeKind
from repro.executor import MemoryBackend, SqliteBackend, compile_rules
from repro.executor.harness import load_dataset
from repro.mapper import MappingOptions, map_schema
from repro.relational.constraints import CheckConstraint
from repro.relational.predicates import Compare
from repro.relational.schema import (
    Attribute,
    Domain,
    Relation,
    RelationalSchema,
)

GUARD = re.compile(r"\w+ IS NOT NULL")


class TestGuardAgreement:
    """Pseudo-SQL and compiled checkers guard the same columns."""

    @pytest.fixture(scope="class")
    def mapped(self, fig6):
        # The DEFAULT null policy keeps optional roles as nullable
        # columns, so the fig. 6 mapping exercises every guard site.
        return map_schema(fig6, MappingOptions()).relational

    def test_view_constraint_guards_match(self, mapped):
        compiled = {
            rule.name: rule
            for rule in compile_rules(mapped)
        }
        for constraint in mapped.view_constraints():
            pseudo_guards = set(GUARD.findall(constraint.render()))
            checker_guards = set(
                GUARD.findall(compiled[constraint.name].sql)
            )
            assert pseudo_guards == checker_guards

    def test_nullable_columns_get_no_not_null_rule(self, mapped):
        rules = compile_rules(mapped)
        guarded = {
            (rule.relation, rule.constraint.column)
            for rule in rules
            if rule.kind == "not-null"
        }
        for relation in mapped.relations:
            for attribute in relation.attributes:
                expected = not attribute.nullable
                assert (
                    (relation.name, attribute.name) in guarded
                ) is expected

    def test_foreign_keys_skip_null_sources(self, mapped):
        for rule in compile_rules(mapped):
            if rule.kind != "foreign-key":
                continue
            for column in rule.constraint.columns:
                assert f"s.{column} IS NOT NULL AND" in rule.sql


class TestTwoValuedAgreement:
    """A negated check over a NULL column flags the same rows on the
    engine and on SQL — the COALESCE collapse in action."""

    @pytest.fixture()
    def flag_schema(self):
        schema = RelationalSchema("flags")
        schema.add_domain(
            Domain("D_Flag", DataType(DataTypeKind.CHAR, 1))
        )
        schema.add_domain(
            Domain("D_Id", DataType(DataTypeKind.NUMERIC, 4))
        )
        schema.add_relation(
            Relation(
                "Paper",
                (
                    Attribute("Id", "D_Id"),
                    Attribute("Flag", "D_Flag", nullable=True),
                ),
            )
        )
        schema.add_constraint(
            CheckConstraint(
                "C_CHK$_flag",
                relation="Paper",
                predicate=Compare("Flag", "=", "Y"),
            )
        )
        return schema

    def test_null_flag_verdicts_agree(self, flag_schema):
        # Row 1 satisfies Flag='Y'; row 2 violates it outright; row 3
        # is the three-valued trap: the checker negates the predicate,
        # and ``NOT (NULL = 'Y')`` is *unknown* in raw SQL (violation
        # silently missed) but false-collapsed by the COALESCE
        # wrapping, matching the engine's two-valued verdict that a
        # NULL flag fails the comparison.
        dataset = {
            "Paper": [
                {"Id": 1, "Flag": "Y"},
                {"Id": 2, "Flag": "N"},
                {"Id": 3, "Flag": None},
            ]
        }
        (rule,) = [
            r for r in compile_rules(flag_schema) if r.kind == "check"
        ]
        verdicts = {}
        for backend in (MemoryBackend(), SqliteBackend()):
            try:
                load_dataset(backend, flag_schema, dataset)
                violation = backend.run_rule(rule)
                verdicts[backend.name] = (
                    0 if violation is None else violation.count
                )
            finally:
                backend.close()
        assert verdicts["memory"] == verdicts["sqlite"] == 2

    def test_unwrapped_sql_would_disagree(self, flag_schema):
        # The regression this file pins: strip the COALESCE wrapping
        # and SQLite's three-valued NOT misses the NULL-flag row the
        # engine reports.
        (rule,) = [
            r for r in compile_rules(flag_schema) if r.kind == "check"
        ]
        naked_sql = (
            rule.sql
            .replace("COALESCE(( ", "( ")
            .replace(" ), FALSE)", " )")
        )
        assert naked_sql != rule.sql
        dataset = {"Paper": [{"Id": 2, "Flag": "N"}, {"Id": 3, "Flag": None}]}
        backend = SqliteBackend()
        try:
            load_dataset(backend, flag_schema, dataset)
            wrapped = backend._connection.execute(rule.sql).fetchall()
            naked = backend._connection.execute(naked_sql).fetchall()
        finally:
            backend.close()
        assert len(wrapped) == 2  # both rows: 'N' and NULL
        assert len(naked) == 1  # three-valued SQL misses the NULL row
