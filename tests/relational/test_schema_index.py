"""The per-relation constraint index of :class:`RelationalSchema`.

Every lookup (``primary_key``, ``candidate_keys``, ``keys_of``,
``foreign_keys``, ``checks``, ``view_constraints`` and
``fresh_constraint_name``) is replayed against the linear-scan oracle
of ``tests/oracles/relational.py`` after randomized add / remove /
copy sequences over all six constraint kinds.  Results must agree
element for element (the same objects) and in order.
"""

import random

import pytest

from repro.brm import char
from repro.errors import DuplicateNameError, SchemaError
from repro.relational import (
    Attribute,
    CandidateKey,
    CheckConstraint,
    Domain,
    EqualityViewConstraint,
    ForeignKey,
    NotNull,
    PrimaryKey,
    Relation,
    RelationalSchema,
    SelectSpec,
    SubsetViewConstraint,
)
from tests.oracles.relational import RelationalScanOracle

RELATIONS = ("A", "B", "C", "D")
COLUMNS = ("k", "x", "y")
STEMS = ("C_KEY$", "C_FKEY$", "C_CHK$", "C_EQ$", "C_SUB$")


def base_schema() -> RelationalSchema:
    schema = RelationalSchema("indexed")
    schema.add_domain(Domain("D_Id", char(6)))
    for name in RELATIONS:
        schema.add_relation(
            Relation(
                name,
                (
                    Attribute("k", "D_Id"),
                    Attribute("x", "D_Id"),
                    Attribute("y", "D_Id", nullable=True),
                ),
            )
        )
    return schema


def assert_same(indexed, scanned) -> None:
    assert len(indexed) == len(scanned)
    assert all(a is b for a, b in zip(indexed, scanned))


def assert_lookups_match(schema: RelationalSchema) -> None:
    oracle = RelationalScanOracle(schema)
    for relation in RELATIONS + ("Ghost",):
        assert schema.primary_key(relation) is oracle.primary_key(relation)
        assert_same(
            schema.candidate_keys(relation), oracle.candidate_keys(relation)
        )
        assert schema.keys_of(relation) == oracle.keys_of(relation)
        assert_same(schema.foreign_keys(relation), oracle.foreign_keys(relation))
        assert_same(schema.checks(relation), oracle.checks(relation))
    assert_same(schema.foreign_keys(), oracle.foreign_keys())
    assert_same(schema.checks(), oracle.checks())
    assert_same(schema.view_constraints(), oracle.view_constraints())
    for stem in STEMS:
        assert schema.fresh_constraint_name(stem) == (
            oracle.fresh_constraint_name(stem)
        )


def _columns(rng: random.Random) -> tuple[str, ...]:
    return tuple(rng.sample(COLUMNS, rng.randint(1, 2)))


def _random_constraint(rng: random.Random, schema: RelationalSchema, kind: int):
    relation, other = rng.choice(RELATIONS), rng.choice(RELATIONS)
    columns = _columns(rng)
    if kind == 0:
        return PrimaryKey(
            schema.fresh_constraint_name("C_KEY$"),
            relation=relation,
            columns=columns,
        )
    if kind == 1:
        return CandidateKey(
            schema.fresh_constraint_name("C_KEY$"),
            relation=relation,
            columns=columns,
        )
    if kind == 2:
        return ForeignKey(
            schema.fresh_constraint_name("C_FKEY$"),
            relation=relation,
            columns=columns,
            referenced_relation=other,
            referenced_columns=tuple(rng.sample(COLUMNS, len(columns))),
        )
    if kind == 3:
        return CheckConstraint(
            schema.fresh_constraint_name("C_CHK$"),
            relation=relation,
            predicate=NotNull(rng.choice(COLUMNS)),
        )
    left = SelectSpec(relation, columns)
    right = SelectSpec(other, tuple(rng.sample(COLUMNS, len(columns))))
    if kind == 4:
        return EqualityViewConstraint(
            schema.fresh_constraint_name("C_EQ$"), left=left, right=right
        )
    return SubsetViewConstraint(
        schema.fresh_constraint_name("C_SUB$"), subset=left, superset=right
    )


@pytest.mark.parametrize("seed", range(8))
def test_lookups_match_the_scan_oracle_under_random_edits(seed):
    rng = random.Random(seed)
    schema = base_schema()
    snapshots = []
    assert_lookups_match(schema)
    for _ in range(120):
        action = rng.random()
        if action < 0.7:
            constraint = _random_constraint(rng, schema, rng.randrange(6))
            try:
                schema.add_constraint(constraint)
            except SchemaError:
                # A second primary key on the relation: rejected, and
                # the index is unchanged.
                assert isinstance(constraint, PrimaryKey)
                assert schema.primary_key(constraint.relation) is not None
        elif action < 0.9 and schema.constraints:
            schema.remove_constraint(rng.choice(schema.constraints).name)
        else:
            snapshots.append(schema)
            schema = schema.copy()
        assert_lookups_match(schema)
    # Copies are independent: the earlier schemas still answer from
    # their own constraints.
    for snapshot in snapshots:
        assert_lookups_match(snapshot)


def test_second_primary_key_is_rejected_and_not_indexed():
    schema = base_schema()
    first = schema.add_constraint(
        PrimaryKey("C_KEY$_1", relation="A", columns=("k",))
    )
    with pytest.raises(SchemaError, match="already has primary key"):
        schema.add_constraint(
            PrimaryKey("C_KEY$_2", relation="A", columns=("x",))
        )
    assert schema.primary_key("A") is first
    assert schema.keys_of("A") == [("k",)]
    assert not schema.has_constraint("C_KEY$_2")
    with pytest.raises(DuplicateNameError):
        schema.add_constraint(
            CandidateKey("C_KEY$_1", relation="B", columns=("k",))
        )
    assert schema.candidate_keys("B") == []
    assert_lookups_match(schema)


def test_removing_a_middle_key_reopens_its_name():
    schema = base_schema()
    for relation in RELATIONS:
        schema.add_constraint(
            CandidateKey(
                schema.fresh_constraint_name("C_KEY$"),
                relation=relation,
                columns=("x",),
            )
        )
    assert schema.fresh_constraint_name("C_KEY$") == "C_KEY$_5"
    schema.remove_constraint("C_KEY$_2")
    assert schema.fresh_constraint_name("C_KEY$") == "C_KEY$_2"
    assert [c.name for c in schema.candidate_keys("B")] == []
    assert_lookups_match(schema)
    schema.add_constraint(
        CandidateKey("C_KEY$_2", relation="C", columns=("y",))
    )
    assert schema.fresh_constraint_name("C_KEY$") == "C_KEY$_5"
    # The re-added key joins the end of the insertion order.
    assert [c.name for c in schema.candidate_keys("C")] == [
        "C_KEY$_3",
        "C_KEY$_2",
    ]
    assert_lookups_match(schema)


def test_fresh_name_sees_names_added_directly():
    schema = base_schema()
    assert schema.fresh_constraint_name("C_CHK$") == "C_CHK$_1"
    for number in (1, 2, 4):
        schema.add_constraint(
            CheckConstraint(
                f"C_CHK$_{number}", relation="A", predicate=NotNull("x")
            )
        )
    assert schema.fresh_constraint_name("C_CHK$") == "C_CHK$_3"
    # An unused fresh name is offered again, not skipped.
    assert schema.fresh_constraint_name("C_CHK$") == "C_CHK$_3"
    assert_lookups_match(schema)


def test_copy_starts_from_the_constraints_not_the_index():
    schema = base_schema()
    schema.add_constraint(PrimaryKey("C_KEY$_1", relation="A", columns=("k",)))
    schema.foreign_keys()  # build the original's index
    copy = schema.copy()
    copy.add_constraint(
        ForeignKey(
            "C_FKEY$_1",
            relation="B",
            columns=("k",),
            referenced_relation="A",
            referenced_columns=("k",),
        )
    )
    assert schema.foreign_keys() == []
    assert [fk.name for fk in copy.foreign_keys("B")] == ["C_FKEY$_1"]
    assert copy.primary_key("A") is schema.primary_key("A")
    assert schema.fresh_constraint_name("C_FKEY$") == "C_FKEY$_1"
    assert copy.fresh_constraint_name("C_FKEY$") == "C_FKEY$_2"
    assert_lookups_match(schema)
    assert_lookups_match(copy)


def test_returned_lists_do_not_alias_the_index():
    schema = base_schema()
    schema.add_constraint(
        CheckConstraint("C_CHK$_1", relation="A", predicate=NotNull("x"))
    )
    schema.checks("A").clear()
    schema.checks().clear()
    schema.view_constraints().append(None)
    assert [c.name for c in schema.checks("A")] == ["C_CHK$_1"]
    assert [c.name for c in schema.checks()] == ["C_CHK$_1"]
    assert schema.view_constraints() == []
