"""Shapes of the compiled checker queries.

Every lossless rule compiles to one SQL query that returns the
violating rows — empty result iff the rule holds.  These tests pin
the query shapes (guards, grouping, negation wrapping) the backends
and the parity property tests rely on.
"""

from repro.executor import compile_rules
from repro.mapper import MappingOptions, SublinkPolicy, map_schema
from repro.relational.predicates import (
    Compare,
    InValues,
    IsNull,
    Not,
    NotNull,
    Or,
)
from repro.robustness import MUTATOR_KINDS


def rules_by_kind(schema, options=None):
    result = map_schema(schema, options or MappingOptions())
    grouped = {}
    for rule in compile_rules(result.relational):
        grouped.setdefault(rule.kind, []).append(rule)
    return grouped


class TestRuleInventory:
    def test_fig6_covers_the_default_kinds(self, fig6):
        grouped = rules_by_kind(fig6)
        assert set(grouped) == {
            "not-null", "primary-key", "candidate-key", "foreign-key",
            "equality-view",
        }

    def test_together_alternative_adds_checks(self, fig6):
        grouped = rules_by_kind(
            fig6, MappingOptions(sublink_policy=SublinkPolicy.TOGETHER)
        )
        assert "check" in grouped

    def test_total_m2m_role_compiles_to_subset_view(self, authorship_schema):
        grouped = rules_by_kind(authorship_schema)
        (rule,) = grouped["subset-view"]
        assert rule.sql.count("EXCEPT") == 1
        assert rule.relation == "Paper"

    def test_every_kind_is_declared(self, cris):
        # A rule's kind is its constraint class's, and some mutator
        # targets it.
        targeted = {kind for kinds in MUTATOR_KINDS.values() for kind in kinds}
        for rules in rules_by_kind(cris).values():
            for rule in rules:
                assert rule.kind == type(rule.constraint).kind
                assert rule.kind in targeted


class TestQueryShapes:
    def test_not_null_selects_null_rows(self, fig6):
        for rule in rules_by_kind(fig6)["not-null"]:
            assert rule.sql == (
                f"SELECT * FROM {rule.relation} "
                f"WHERE {rule.constraint.column} IS NULL"
            )

    def test_keys_group_and_guard_nulls(self, cris):
        grouped = rules_by_kind(cris)
        for rule in grouped["primary-key"] + grouped["candidate-key"]:
            assert "GROUP BY" in rule.sql
            assert "HAVING COUNT(*) > 1" in rule.sql
            for column in rule.constraint.columns:
                assert f"{column} IS NOT NULL" in rule.sql

    def test_foreign_keys_probe_with_not_exists(self, cris):
        for rule in rules_by_kind(cris)["foreign-key"]:
            assert "NOT EXISTS" in rule.sql
            for column in rule.constraint.columns:
                assert f"s.{column} IS NOT NULL" in rule.sql
            assert rule.constraint.referenced_relation in rule.sql

    def test_equality_view_diffs_both_directions(self, fig6):
        (rule,) = rules_by_kind(fig6)["equality-view"]
        assert rule.sql.count("EXCEPT") == 2
        assert "'only-left'" in rule.sql
        assert "'only-right'" in rule.sql

    def test_checks_negate_the_predicate(self, fig6):
        grouped = rules_by_kind(
            fig6, MappingOptions(sublink_policy=SublinkPolicy.TOGETHER)
        )
        for rule in grouped["check"]:
            assert rule.sql.startswith(f"SELECT * FROM {rule.relation} ")
            assert " WHERE NOT " in rule.sql


class TestSqlPredicate:
    def test_comparisons_collapse_unknown_to_false(self):
        sql = Compare("flag", "=", "Y").sql()
        assert sql == "COALESCE(( flag = 'Y' ), FALSE)"

    def test_in_values_collapse_unknown_to_false(self):
        sql = InValues("grade", ("A", "B")).sql()
        assert sql == "COALESCE(( grade IN ('A', 'B') ), FALSE)"

    def test_null_tests_are_rendered_verbatim(self):
        assert IsNull("x").sql() == "( x IS NULL )"
        assert NotNull("x").sql() == "( x IS NOT NULL )"

    def test_connectives_nest(self):
        sql = Or((Not(IsNull("a")), Compare("b", ">", 1))).sql()
        assert sql == (
            "( ( NOT ( a IS NULL ) ) "
            "OR COALESCE(( b > 1 ), FALSE) )"
        )


class TestRuleDependencyRelations:
    """``CompiledRule.relations`` — the dependency set the incremental
    replay paths (injection matrix, COW verifier) key rule re-runs on.
    An under-approximation here would silently carry stale verdicts."""

    def test_single_relation_rules_depend_on_their_relation(self, cris):
        grouped = rules_by_kind(cris)
        for kind in ("not-null", "primary-key", "candidate-key"):
            for rule in grouped.get(kind, ()):
                assert rule.relations == frozenset({rule.relation})

    def test_foreign_keys_depend_on_both_sides(self, cris):
        grouped = rules_by_kind(cris)
        assert grouped["foreign-key"]
        for rule in grouped["foreign-key"]:
            assert rule.relation in rule.relations
            assert rule.constraint.referenced_relation in rule.relations
            assert len(rule.relations) <= 2

    def test_view_rules_depend_on_every_view_leg(self, fig6,
                                                 authorship_schema):
        for rule in rules_by_kind(fig6)["equality-view"]:
            assert rule.constraint.left.relation in rule.relations
            assert rule.constraint.right.relation in rule.relations
        for rule in rules_by_kind(authorship_schema)["subset-view"]:
            assert rule.constraint.subset.relation in rule.relations
            assert rule.constraint.superset.relation in rule.relations

    def test_every_dependency_is_a_real_relation(self, cris):
        result = map_schema(cris, MappingOptions())
        names = {r.name for r in result.relational.relations}
        for rule in compile_rules(result.relational):
            assert rule.relations <= names
