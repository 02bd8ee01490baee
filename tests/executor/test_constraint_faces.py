"""Every constraint's faces against the per-kind ladders they replaced.

On CRIS, the figure-6 schema under four option sets, the authorship
schema, ``examples/conference.ridl`` and one section-5 industrial
draw, each constraint's ``render()``, each compiled rule's name, kind,
relation and SQL (NOT NULL rules included, in order), and each
predicate's and view side's SQL equal the ``isinstance`` ladders of
``tests/oracles/constraints.py``, text for text.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.dsl import parse
from repro.executor import compile_rules
from repro.mapper import map_schema
from repro.relational import CheckConstraint
from repro.workloads import generate_schema
from tests.executor.test_memory_kernels import CASES, INDUSTRIAL_SHAPE
from tests.oracles import constraints as oracle
from tests.relational.test_predicate_properties import predicates

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "conference.ridl"


def relational_schema(case):
    if case == "industrial":
        return map_schema(generate_schema(INDUSTRIAL_SHAPE, seed=1989)).relational
    if case == "conference":
        return map_schema(parse(EXAMPLE.read_text())).relational
    factory, options = CASES[case]
    return map_schema(factory(), options).relational


@pytest.fixture(
    scope="module", params=sorted(CASES) + ["conference", "industrial"]
)
def schema(request):
    return relational_schema(request.param)


def test_render_equals_the_pseudo_ladder(schema):
    for constraint in schema.constraints:
        assert constraint.render() == oracle.render_constraint(constraint)


def test_rules_equal_the_compile_ladder(schema):
    rules = compile_rules(schema)
    expected = oracle.compile_rules(schema)
    assert [(r.name, r.kind, r.relation, r.sql) for r in rules] == [
        (r.name, r.kind, r.relation, r.sql) for r in expected
    ]
    for rule, old in zip(rules, expected):
        if old.column is None:
            assert rule.constraint is old.constraint
        else:
            assert rule.constraint.column == old.column


def test_predicate_and_side_sql_equal_the_ladder(schema):
    for constraint in schema.constraints:
        if isinstance(constraint, CheckConstraint):
            predicate = constraint.predicate
            assert predicate.sql() == oracle.sql_predicate(predicate)
        for side in getattr(constraint, "sides", ()):
            aliases = oracle.view_aliases(len(side.columns))
            assert side.sql(aliases) == oracle.sql_select(side, aliases)
            assert side.render() == oracle.render_select(side)
            if side.where is not None:
                assert side.where.sql() == oracle.sql_predicate(side.where)


@settings(max_examples=200, deadline=None)
@given(predicate=predicates())
def test_random_predicate_sql_equals_the_ladder(predicate):
    assert predicate.sql() == oracle.sql_predicate(predicate)
