"""The lossless-rule CHECK forms: each builder and its exact inverse.

``repro/relational/predicates.py`` defines every predicate form the
mapper writes (paper section 4.1) as a builder next to an inverse that
returns the builder's operands only when rebuilding from them
reproduces the predicate.  These tests hold the pairs to that rule,
check that no form's inverse reads another form's output, compare the
inverses with the lifter's former hand-written recognisers
(``tests/oracles/relational.py``) on everything the mapper emits, and
pin the one place they disagree: a partial pairwise exclusion.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.brm.constraints import ExclusionConstraint
from repro.cris import cris_schema, figure6_schema
from repro.dsl import parse
from repro.mapper import map_schema
from repro.mapper.reverse import lift_ddl
from repro.relational.predicates import (
    CONDITIONAL_EQUALITY,
    DEPENDENT_EXISTENCE,
    EQUAL_EXISTENCE,
    EXCLUSION,
    TOTAL_UNION,
    VALUE_RESTRICTION,
    NotNull,
    conditional_equality,
    conditional_equality_operands,
    dependent_existence,
    dependent_existence_operands,
    equal_existence,
    equal_existence_operands,
    exclusion,
    exclusion_operands,
    indicator,
    indicator_flag,
    presence,
    presence_columns,
    total_union,
    total_union_operands,
    value_restriction,
    value_restriction_operands,
)
from repro.sql import PROFILES
from repro.sql.parse import parse_ddl, parse_predicate
from repro.workloads import SchemaShape, generate_schema
from tests.oracles.relational import (
    dependent_existence_columns,
    equal_existence_columns,
    exclusion_terms,
    notnull_columns,
    total_union_terms,
    value_shape,
)
from tests.strategies import OPTION_SETS

COLUMNS = st.sampled_from(("a", "b", "c", "d"))
FLAGS = st.sampled_from(("f", "g"))

#: The presence of one constraint item: one NOT NULL column, a
#: multi-column NOT NULL conjunction, or an indicator test.
PRESENCES = st.one_of(
    COLUMNS.map(lambda column: presence((column,))),
    st.lists(COLUMNS, min_size=2, max_size=3, unique=True).map(
        lambda columns: presence(tuple(columns))
    ),
    FLAGS.map(indicator),
)
SEVERAL = st.lists(PRESENCES, min_size=2, max_size=3, unique=True).map(tuple)
VALUES = st.lists(
    st.one_of(st.integers(-9, 9), st.text("xy'", max_size=2)),
    min_size=1,
    max_size=3,
).map(tuple)

#: form -> (operand strategy, builder over the operands, inverse).
FORMS = {
    "presence": (
        st.lists(COLUMNS, min_size=1, max_size=3, unique=True).map(tuple),
        presence,
        presence_columns,
    ),
    "indicator": (FLAGS, indicator, indicator_flag),
    "dependent-existence": (
        st.tuples(PRESENCES, PRESENCES),
        lambda operands: dependent_existence(*operands),
        dependent_existence_operands,
    ),
    "equal-existence": (SEVERAL, equal_existence, equal_existence_operands),
    "exclusion": (SEVERAL, exclusion, exclusion_operands),
    "total-union": (SEVERAL, total_union, total_union_operands),
    "value-restriction": (
        st.tuples(COLUMNS, VALUES, st.booleans()),
        lambda operands: value_restriction(*operands),
        value_restriction_operands,
    ),
    "conditional-equality": (
        st.tuples(FLAGS, COLUMNS),
        lambda operands: conditional_equality(*operands),
        conditional_equality_operands,
    ),
}

#: A total union of one item is that item's presence (a total union
#: may name a single sublink), so its inverse reads a bare presence as
#: a one-item union.
OVERLAPS = {("total-union", "presence"), ("total-union", "indicator")}


@pytest.mark.parametrize("form", sorted(FORMS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inverse_returns_exactly_the_builders_operands(form, data):
    operands_of, build, inverse = FORMS[form]
    operands = data.draw(operands_of)
    predicate = build(operands)
    assert inverse(predicate) == operands
    # The DDL text of the form reads back as the same form.
    assert inverse(parse_predicate(predicate.render())) == operands
    for other, (_, _, other_inverse) in FORMS.items():
        if other != form and (other, form) not in OVERLAPS:
            assert other_inverse(predicate) is None, other


def test_existence_forms_spell_single_columns_with_is_null():
    single = dependent_existence(NotNull("a"), NotNull("b"))
    assert single.render() == (
        "( ( ( a IS NOT NULL ) AND ( b IS NOT NULL ) ) OR ( a IS NULL ) )"
    )
    general = dependent_existence(NotNull("a"), indicator("f"))
    assert general.render() == (
        "( ( ( a IS NOT NULL ) AND ( f = 'Y' ) ) OR ( NOT ( a IS NOT NULL ) ) )"
    )
    assert equal_existence((NotNull("a"), NotNull("b"))).render() == (
        "( ( ( a IS NULL ) AND ( b IS NULL ) ) "
        "OR ( ( a IS NOT NULL ) AND ( b IS NOT NULL ) ) )"
    )


def test_presence_of_no_columns_is_every_row():
    assert presence(()) is None
    assert presence_columns(None) == ()


# ----------------------------------------------------------------------
# The inverses against the former recognisers, on the mapper's output
# ----------------------------------------------------------------------

#: Every CHECK form, including the NOT spellings that an indicator or
#: a multi-column presence brings: a total union, two exclusions and a
#: dependent existence over a subtype's presence, and equal existences.
FORMS_SCHEMA = """schema Forms
lot Code : char(3)
lot A : char(2)
lot B : char(2)
lot C : char(2)
lot D : char(2)
lot E : char(2)
lot F : char(2)
lot G : char(2)
lot Rank : integer
lot Pid : char(4)
lot P1 : char(2)
lot P2 : integer
nolot Thing
nolot Special
nolot Premium
nolot Gold
identifier Thing by Code
attribute Thing has A
attribute Thing has B
attribute Thing has C
attribute Thing has D
attribute Thing has E
attribute Thing has F
attribute Thing has G
subtype Special of Thing
attribute Special has Rank [total]
subtype Premium of Thing
identifier Premium by Pid
subtype Gold of Thing
fact gold_p1 ( Gold has_p1 [unique, total], P1 p1_of )
fact gold_p2 ( Gold has_p2 [unique, total], P2 p2_of )
constraint GoldKey unique gold_p1.p1_of, gold_p2.p2_of reference
constraint equality : Thing_has_F.with, sublink Special_IS_Thing
constraint exclusion : sublink Gold_IS_Thing, Thing_has_G.with
constraint subset sublink Premium_IS_Thing in Thing_has_G.with
constraint total-union Thing : Thing_has_A.with, Thing_has_B.with, sublink Special_IS_Thing
constraint exclusion : Thing_has_C.with, Thing_has_D.with, sublink Special_IS_Thing
constraint subset sublink Special_IS_Thing in Thing_has_E.with
constraint equality : Thing_has_A.with, Thing_has_B.with
"""

#: Two industrial draws at a third of the section-5 size.
INDUSTRIAL = SchemaShape(
    entity_types=30,
    attributes_per_entity=(4, 9),
    optional_ratio=0.5,
    rich_constraints=True,
    exclusion_groups=5,
    subset_ratio=0.9,
    value_ratio=0.5,
    alternate_identifier_ratio=0.3,
    many_to_many_per_entity=0.6,
    subtype_own_identifier_ratio=0.5,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _schemas():
    yield "conference", parse((EXAMPLES / "conference.ridl").read_text())
    yield "cris", cris_schema()
    yield "figure6", figure6_schema()
    yield "forms", parse(FORMS_SCHEMA)
    for seed in (1, 7):
        yield f"industrial-{seed}", generate_schema(INDUSTRIAL, seed=seed)


def _parsed_designs():
    for label, schema in _schemas():
        for options in OPTION_SETS[:4]:
            result = map_schema(schema, options)
            for dialect in sorted(PROFILES):
                parsed = parse_ddl(result.sql(dialect), dialect).schema
                yield f"{label}/{options.describe()}/{dialect}", parsed


@pytest.fixture(scope="module")
def designs():
    return list(_parsed_designs())


def _single_columns(presences) -> list[str] | None:
    """The columns of one-column NOT NULL presences, or None."""
    if any(not isinstance(p, NotNull) for p in presences):
        return None
    return [p.column for p in presences]


def _agree(comment: str, predicate) -> bool:
    if comment == VALUE_RESTRICTION:
        operands = value_restriction_operands(predicate)
        return operands is not None and value_shape(predicate) == operands[:2]
    if comment == DEPENDENT_EXISTENCE:
        operands = dependent_existence_operands(predicate)
        if operands is None:
            return False
        columns = _single_columns(operands)
        old = dependent_existence_columns(predicate)
        return old == (None if columns is None else tuple(columns))
    if comment == EQUAL_EXISTENCE:
        operands = equal_existence_operands(predicate)
        if operands is None:
            return False
        return equal_existence_columns(predicate) == _single_columns(operands)
    if comment == EXCLUSION:
        operands = exclusion_operands(predicate)
        return operands is not None and exclusion_terms(predicate) == list(
            operands
        )
    if comment == TOTAL_UNION:
        return total_union_operands(predicate) == total_union_terms(predicate)
    # The lifter never read a Conditional Equality CHECK.
    return conditional_equality_operands(predicate) is not None


def test_inverses_agree_with_the_former_recognisers(designs):
    seen = set()
    for label, parsed in designs:
        for check in parsed.checks():
            seen.add(check.comment)
            assert _agree(check.comment, check.predicate), (label, check.name)
        for view in parsed.view_constraints():
            for side in view.sides:
                columns = presence_columns(side.where)
                expected = None if columns is None else set(columns)
                assert notnull_columns(side.where) == expected, (label, view)
                if columns is None:
                    assert indicator_flag(side.where) is not None
    assert seen == {
        VALUE_RESTRICTION,
        DEPENDENT_EXISTENCE,
        EQUAL_EXISTENCE,
        EXCLUSION,
        TOTAL_UNION,
        CONDITIONAL_EQUALITY,
    }


# ----------------------------------------------------------------------
# A partial pairwise exclusion is not an exclusion
# ----------------------------------------------------------------------

PARTIAL_SCHEMA = """schema Partial
lot Code : char(3)
lot A : char(2)
lot B : char(2)
lot C : char(2)
nolot T
identifier T by Code
attribute T has A
attribute T has B
attribute T has C
constraint exclusion : T_has_A.with, T_has_B.with, T_has_C.with
"""


def test_partial_exclusion_is_dropped_with_a_note():
    ddl = map_schema(parse(PARTIAL_SCHEMA)).sql("sql2")
    full = exclusion(tuple(presence((c,)) for c in ("A_of", "B_of", "C_of")))
    partial = dataclasses.replace(full, operands=full.operands[:2])
    assert full.render() in ddl
    # The former recogniser read the two pairs as the three-way
    # exclusion, a stronger constraint than the DDL states.
    assert len(exclusion_terms(partial)) == 3
    assert exclusion_operands(partial) is None

    lifted = lift_ddl(ddl.replace(full.render(), partial.render()))
    assert not [
        c for c in lifted.schema.constraints
        if isinstance(c, ExclusionConstraint)
    ]
    notes = [(n.kind, n.detail) for n in lifted.report.notes]
    assert ("dropped", "Exclusion CHECK with an unresolvable shape") in notes
    # The untouched DDL still lifts the exclusion.
    assert [
        c for c in lift_ddl(ddl).schema.constraints
        if isinstance(c, ExclusionConstraint)
    ]
