"""One conformance suite per constraint kind: every face against the others.

Each of the seven kinds gets the smallest schema that holds it, one
minimal admitting population and one minimal violating population
(after Proper's significant examples for schema validation), and the
same three checks:

- the class's in-memory ``violating`` verdict equals its checker
  query's on the memory and SQLite backends, and on DuckDB when it is
  installed, and ``Database.check()`` reports the constraint exactly
  when the verdict is non-empty;
- the emitted DDL parses back to an equal constraint in every dialect
  (NOT NULL: the attribute's ``nullable`` flag; views: without their
  ``comment``, which the DDL never carries and the parser infers);
- on the admitting population the injection planner accepts the
  kind's own mutator, and the injection it plans trips its own rule
  and no other on every SQL backend;
- the class's delta face (``delta_index``) agrees with the checker
  query on both populations, finds the planned injection violating,
  and judges deleting each row of the violating population as the
  checker judges the remaining rows.  Two more fixtures, whose one
  edit moves keys on both sides of the rule at once (a foreign key
  into its own relation, a view whose two SELECTs read the same
  relation), run the face and the planner's delta verifier against
  the whole-relation oracle.
"""

from dataclasses import dataclass, replace

import pytest

from repro.brm.datatypes import DataType, DataTypeKind
from repro.engine.database import Database
from repro.executor import (
    DuckDBBackend,
    MemoryBackend,
    SqliteBackend,
    compile_rules,
    detection_matrix,
    duckdb_available,
    load_dataset,
)
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
    dependent_existence,
)
from repro.robustness import MUTATOR_KINDS, plan_injections
from repro.robustness.violations import default_verifier
from repro.sql import PROFILES, generate_sql, parse_ddl
from tests.oracles.robustness import whole_relation_verifier
from tests.robustness.test_delta_verdicts import candidates

SQL_BACKENDS = [SqliteBackend] + ([DuckDBBackend] if duckdb_available() else [])


@dataclass(frozen=True)
class Fixture:
    """A schema holding one constraint under test, named ``rule``."""

    relations: tuple[str, ...]
    constraints: tuple
    rule: str
    admitting: dict
    violating: dict

    def schema(self) -> RelationalSchema:
        schema = RelationalSchema("conformance")
        schema.add_domain(Domain("D_Id", DataType(DataTypeKind.NUMERIC, 4)))
        for spec in self.relations:
            # "R(a, b?)": columns in D_Id, "?" marks a nullable one.
            name, _, body = spec.partition("(")
            schema.add_relation(
                Relation(
                    name,
                    tuple(
                        Attribute(column.rstrip("?"), "D_Id",
                                  nullable=column.endswith("?"))
                        for column in body.rstrip(")").split(", ")
                    ),
                )
            )
        for constraint in self.constraints:
            schema.add_constraint(constraint)
        return schema


FIXTURES = {
    "not-null": Fixture(
        ("R(a, b?)",),
        (),
        "NN$_R_a",
        {"R": [{"a": 1, "b": None}]},
        {"R": [{"a": None, "b": 1}]},
    ),
    "primary-key": Fixture(
        ("R(a, b?)",),
        (PrimaryKey("C_KEY$_1", "R", ("a",)),),
        "C_KEY$_1",
        {"R": [{"a": 1, "b": 1}, {"a": 2, "b": 1}]},
        {"R": [{"a": 1, "b": 1}, {"a": 1, "b": 2}]},
    ),
    "candidate-key": Fixture(
        ("R(a, b?)",),
        (CandidateKey("C_KEY$_1", "R", ("b",)),),
        "C_KEY$_1",
        {"R": [{"a": 1, "b": 1}, {"a": 2, "b": None}, {"a": 3, "b": None}]},
        {"R": [{"a": 1, "b": 1}, {"a": 2, "b": 1}]},
    ),
    "foreign-key": Fixture(
        ("S(s)", "R(a, s?)"),
        (
            PrimaryKey("C_KEY$_1", "S", ("s",)),
            ForeignKey("C_FKEY$_1", "R", ("s",), "S", ("s",)),
        ),
        "C_FKEY$_1",
        {"S": [{"s": 1}], "R": [{"a": 1, "s": 1}, {"a": 2, "s": None}]},
        {"S": [{"s": 1}], "R": [{"a": 1, "s": 2}]},
    ),
    "check": Fixture(
        ("R(a, b?, c?)",),
        (
            CheckConstraint(
                "C_DE$_1", "R", dependent_existence(NotNull("b"), NotNull("c")),
                "Dependent Existence",
            ),
        ),
        "C_DE$_1",
        {"R": [{"a": 1, "b": None, "c": None}, {"a": 2, "b": 1, "c": 1}]},
        {"R": [{"a": 1, "b": 1, "c": None}]},
    ),
    "equality-view": Fixture(
        ("Member(k)", "Host(h, k?)"),
        (
            EqualityViewConstraint(
                "C_EQ$_1",
                left=SelectSpec("Member", ("k",)),
                right=SelectSpec("Host", ("k",), NotNull("k")),
            ),
        ),
        "C_EQ$_1",
        {
            "Member": [{"k": 1}],
            "Host": [{"h": 1, "k": 1}, {"h": 2, "k": None}],
        },
        {"Member": [{"k": 1}, {"k": 2}], "Host": [{"h": 1, "k": 1}]},
    ),
    "subset-view": Fixture(
        ("Paper(p)", "Author(p, who)"),
        (
            SubsetViewConstraint(
                "C_SUB$_1",
                subset=SelectSpec("Paper", ("p",)),
                superset=SelectSpec("Author", ("p",)),
            ),
        ),
        "C_SUB$_1",
        {"Paper": [{"p": 1}], "Author": [{"p": 1, "who": 1}]},
        {"Paper": [{"p": 1}, {"p": 2}], "Author": [{"p": 1, "who": 1}]},
    ),
}

KINDS = sorted(FIXTURES)

#: Two-column keys, which every dialect writes as table-level clauses,
#: or, for a foreign key without declarative support, as a comment in
#: the table's trailer.
TABLE_LEVEL_FIXTURES = {
    "two-column-primary-key": Fixture(
        ("R(a, b, c?)",),
        (PrimaryKey("C_KEY$_1", "R", ("a", "b")),),
        "C_KEY$_1",
        {"R": [{"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 2, "c": 1}]},
        {"R": [{"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 1, "c": 2}]},
    ),
    "two-column-candidate-key": Fixture(
        ("R(a, b?, c?)",),
        (CandidateKey("C_KEY$_1", "R", ("b", "c")),),
        "C_KEY$_1",
        {"R": [{"a": 1, "b": 1, "c": 1}, {"a": 2, "b": 1, "c": 2}]},
        {"R": [{"a": 1, "b": 1, "c": 1}, {"a": 2, "b": 1, "c": 1}]},
    ),
    "two-column-foreign-key": Fixture(
        ("S(s, t)", "R(a, s?, t?)"),
        (
            PrimaryKey("C_KEY$_1", "S", ("s", "t")),
            ForeignKey("C_FKEY$_1", "R", ("s", "t"), "S", ("s", "t")),
        ),
        "C_FKEY$_1",
        {"S": [{"s": 1, "t": 1}], "R": [{"a": 1, "s": 1, "t": 1}]},
        {"S": [{"s": 1, "t": 1}], "R": [{"a": 1, "s": 1, "t": 2}]},
    ),
}

#: Fixtures whose one edit moves keys on both sides of the rule at
#: once, for the delta face's shared arithmetic.
SHARED_SIDE_FIXTURES = {
    "self-foreign-key": Fixture(
        ("R(a, parent?)",),
        (
            PrimaryKey("C_KEY$_1", "R", ("a",)),
            ForeignKey("C_FKEY$_1", "R", ("parent",), "R", ("a",)),
        ),
        "C_FKEY$_1",
        {"R": [{"a": 1, "parent": None}, {"a": 2, "parent": 1},
               {"a": 3, "parent": 1}]},
        {"R": [{"a": 1, "parent": None}, {"a": 2, "parent": 4}]},
    ),
    "same-relation-view": Fixture(
        ("R(a, b?)",),
        (
            EqualityViewConstraint(
                "C_EQ$_1",
                left=SelectSpec("R", ("a",), NotNull("b")),
                right=SelectSpec("R", ("b",), NotNull("b")),
            ),
        ),
        "C_EQ$_1",
        {"R": [{"a": 1, "b": 1}, {"a": 2, "b": None}]},
        {"R": [{"a": 1, "b": 1}, {"a": 2, "b": 3}]},
    ),
}


def rule_of(schema, fixture):
    (rule,) = [r for r in compile_rules(schema) if r.name == fixture.rule]
    return rule


def checker_count(backend_class, schema, rule, dataset) -> int:
    backend = backend_class()
    try:
        load_dataset(backend, schema, dataset)
        violation = backend.run_rule(rule)
    finally:
        backend.close()
    return 0 if violation is None else violation.count


def test_every_rule_kind_has_a_fixture():
    targeted = {kind for kinds in MUTATOR_KINDS.values() for kind in kinds}
    assert set(FIXTURES) == targeted
    for kind, fixture in FIXTURES.items():
        assert rule_of(fixture.schema(), fixture).kind == kind


@pytest.mark.parametrize("state", ["admitting", "violating"])
@pytest.mark.parametrize("kind", KINDS)
def test_verdict_equals_the_checker_query(kind, state):
    fixture = FIXTURES[kind]
    schema = fixture.schema()
    rule = rule_of(schema, fixture)
    dataset = getattr(fixture, state)
    database = Database(schema)
    for relation, rows in dataset.items():
        database.insert_many(relation, rows)
    verdict = len(rule.constraint.violating(database))
    assert (verdict > 0) == (state == "violating")
    for backend_class in [MemoryBackend] + SQL_BACKENDS:
        assert checker_count(backend_class, schema, rule, dataset) == verdict, (
            backend_class.name
        )
    reported = {v.constraint_name for v in database.check()}
    expected = "NOT NULL R.a" if kind == "not-null" else rule.name
    assert reported == ({expected} if verdict else set())


@pytest.mark.parametrize("dialect", sorted(PROFILES))
@pytest.mark.parametrize("kind", KINDS + sorted(TABLE_LEVEL_FIXTURES))
def test_ddl_parses_back_to_the_constraint(kind, dialect):
    fixture = {**FIXTURES, **TABLE_LEVEL_FIXTURES}[kind]
    schema = fixture.schema()
    parsed = parse_ddl(generate_sql(schema, dialect), dialect).schema
    if kind == "not-null":
        for relation in schema.relations:
            assert parsed.relation(relation.name) == relation
        return
    constraint = schema.constraint(fixture.rule)
    recovered = parsed.constraint(fixture.rule)
    if kind.endswith("-view"):
        recovered = replace(recovered, comment="")
    assert recovered == constraint


@pytest.mark.parametrize("kind", KINDS)
def test_own_mutator_trips_its_own_rule_only(kind):
    fixture = FIXTURES[kind]
    schema = fixture.schema()
    rules = compile_rules(schema)
    (mutator,) = [m for m, kinds in MUTATOR_KINDS.items() if kind in kinds]
    injections = plan_injections(schema, rules, fixture.admitting, seed=7)
    (injection,) = [i for i in injections if i.kind == mutator]
    assert injection.rule == fixture.rule
    for backend_class in SQL_BACKENDS:
        backend = backend_class()
        try:
            matrix = detection_matrix(
                backend, schema, rules, [injection],
                baseline=fixture.admitting,
            )
        finally:
            backend.close()
        assert [row.detected for row in matrix.rows] == [(fixture.rule,)]


def database_of(schema, dataset) -> Database:
    database = Database(schema)
    for relation, rows in dataset.items():
        database.load_rows(relation, rows)
    return database


@pytest.mark.parametrize("name", KINDS + sorted(SHARED_SIDE_FIXTURES))
def test_delta_face_judges_edits_like_the_checker(name):
    fixture = {**FIXTURES, **SHARED_SIDE_FIXTURES}[name]
    schema = fixture.schema()
    rules = compile_rules(schema)
    rule = rule_of(schema, fixture)
    for state in ("admitting", "violating"):
        dataset = getattr(fixture, state)
        index = rule.constraint.delta_index(database_of(schema, dataset))
        count = checker_count(SqliteBackend, schema, rule, dataset)
        assert index.violated == (count > 0) == (state == "violating")

    clean = fixture.admitting
    index = rule.constraint.delta_index(database_of(schema, clean))
    (injection,) = [
        i for i in plan_injections(schema, rules, clean, seed=7)
        if i.rule == fixture.rule
    ]
    delta = injection.delta
    (removed,) = delta.removed(clean) or (None,)
    assert index.violated_after(delta.relation, removed, delta.row)

    index = rule.constraint.delta_index(database_of(schema, fixture.violating))
    offending = 0
    for relation, rows in fixture.violating.items():
        for position, row in enumerate(rows):
            rest = {
                **fixture.violating,
                relation: rows[:position] + rows[position + 1:],
            }
            still = checker_count(SqliteBackend, schema, rule, rest) > 0
            assert index.violated_after(relation, row, None) == still, row
            offending += not still
    assert offending

    for baseline in (fixture.admitting, fixture.violating):
        verify = default_verifier(schema, rules, baseline)
        oracle = whole_relation_verifier(schema, rules, baseline)
        for delta in candidates(schema, rules, baseline):
            assert verify(delta) == oracle(delta), delta
