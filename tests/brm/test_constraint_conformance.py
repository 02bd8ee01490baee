"""One conformance suite per BRM constraint kind and sub-form.

After Proper's significant examples for schema validation, each form
gets the smallest schema that holds it, as one constraint named ``C``,
with one minimal population it admits and one it rejects.  Each pair
runs through every face of the constraint class:

- ``check()`` returns the same violations, in the same order, as the
  per-kind ladder it replaced (``tests/oracles/brm_constraints.py``):
  none on the admitting population, some on the violating one;
- ``Population.check()`` equals the old whole-population check, and
  is empty on the admitting population;
- ``describe()`` and ``to_dsl()`` equal their ladders, and the
  schema's DSL parses back to an equal schema;
- ``signature()`` equals the mapper's old key, and a restated twin of
  ``C`` is a duplicate under ``signature()`` exactly when the mapper's
  old key said so (and the analyzer's, but for a uniqueness whose
  reference flag differs).

The bundled schemas and the section-5 industrial draws hold no
frequency constraint, no external uniqueness and no total union over
several items, so this suite is the only per-kind coverage those
forms get.  A uniqueness over both roles of one fact type has no
violating population (fact populations are sets); its rejected
example is the one that breaks each single-role bar instead.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass

import pytest

from repro.brm import Population, SchemaBuilder, char
from repro.brm.constraints import duplicate_constraints
from repro.dsl import parse, to_dsl
from tests.oracles import brm_constraints as oracle

#: A population edit: ``("fact", name, first, second)`` or
#: ``("instance", type, value)``.
Edit = tuple


@dataclass(frozen=True)
class Example:
    """A schema holding the constraint ``C`` under test."""

    constrain: Callable[[SchemaBuilder], object]
    admitting: tuple[Edit, ...]
    violating: tuple[Edit, ...]

    def schema(self):
        # Two facts from A to B, a lexical K, and two subtypes of A:
        # every example's constraint ranges over some of them.
        b = SchemaBuilder("conformance")
        b.nolot("A").nolot("B").nolot("S1").nolot("S2").nolot("L")
        b.lot("K", char(1))
        b.subtype("S1", "A").subtype("S2", "A")
        b.fact("r", ("A", "a"), ("B", "b"))
        b.fact("s", ("A", "a2"), ("B", "b2"))
        b.fact("t", ("A", "a3"), ("K", "k"))
        b.fact("u", ("A", "a4"), ("L", "l"))
        self.constrain(b)
        return b.build()

    def population(self, schema, edits) -> Population:
        population = Population(schema)
        for edit in edits:
            if edit[0] == "fact":
                population.add_fact(*edit[1:])
            else:
                population.add_instance(*edit[1:])
        return population


EXAMPLES = {
    "uniqueness-simple": Example(
        lambda b: b.unique("r.a", name="C"),
        (("fact", "r", "a1", "b1"), ("fact", "r", "a2", "b1")),
        (("fact", "r", "a1", "b1"), ("fact", "r", "a1", "b2")),
    ),
    "uniqueness-pair": Example(
        lambda b: b.unique("r.a", "r.b", name="C"),
        (("fact", "r", "a1", "b1"), ("fact", "r", "a1", "b2")),
        (
            ("fact", "r", "a1", "b1"),
            ("fact", "r", "a1", "b2"),
            ("fact", "r", "a2", "b1"),
        ),
    ),
    "uniqueness-external": Example(
        # The K and L fillers together identify an A.
        lambda b: b.unique("t.k", "u.l", name="C"),
        (
            ("fact", "t", "a1", "X"),
            ("fact", "u", "a1", "l1"),
            ("fact", "t", "a2", "X"),
            ("fact", "u", "a2", "l2"),
        ),
        (
            ("fact", "t", "a1", "X"),
            ("fact", "u", "a1", "l1"),
            ("fact", "t", "a2", "X"),
            ("fact", "u", "a2", "l1"),
        ),
    ),
    "total-role": Example(
        lambda b: b.total("r.a", name="C"),
        (("fact", "r", "a1", "b1"),),
        (("fact", "r", "a1", "b1"), ("instance", "A", "a2")),
    ),
    "total-union-roles": Example(
        lambda b: b.total_union("A", "r.a", "s.a2", name="C"),
        (("fact", "r", "a1", "b1"), ("fact", "s", "a2", "b1")),
        (("fact", "r", "a1", "b1"), ("instance", "A", "a3")),
    ),
    "total-union-sublinks": Example(
        lambda b: b.total_union(
            "A", "sublink:S1_IS_A", "sublink:S2_IS_A", name="C"
        ),
        (("instance", "S1", "x1"), ("instance", "S2", "x2")),
        (("instance", "S1", "x1"), ("instance", "A", "x3")),
    ),
    "exclusion": Example(
        lambda b: b.exclusion("r.a", "sublink:S1_IS_A", name="C"),
        (("fact", "r", "a1", "b1"), ("instance", "S1", "a2")),
        (("fact", "r", "a1", "b1"), ("instance", "S1", "a1")),
    ),
    "subset": Example(
        lambda b: b.subset("r.a", "s.a2", name="C"),
        (("fact", "r", "a1", "b1"), ("fact", "s", "a1", "b2")),
        (("fact", "r", "a1", "b1"), ("fact", "s", "a2", "b1")),
    ),
    "equality": Example(
        lambda b: b.equality("r.a", "s.a2", name="C"),
        (("fact", "r", "a1", "b1"), ("fact", "s", "a1", "b2")),
        (("fact", "r", "a1", "b1"), ("fact", "s", "a2", "b1")),
    ),
    "frequency-bounded": Example(
        lambda b: b.frequency("r.a", 2, 3, name="C"),
        (("fact", "r", "a1", "b1"), ("fact", "r", "a1", "b2")),
        (("fact", "r", "a1", "b1"),),
    ),
    "frequency-unbounded": Example(
        lambda b: b.frequency("r.a", 2, name="C"),
        (
            ("fact", "r", "a1", "b1"),
            ("fact", "r", "a1", "b2"),
            ("fact", "r", "a1", "b3"),
        ),
        (("fact", "r", "a1", "b1"),),
    ),
    "frequency-never": Example(
        lambda b: b.frequency("r.a", 0, 0, name="C"),
        (("fact", "s", "a1", "b1"),),
        (("fact", "r", "a1", "b1"),),
    ),
    "value": Example(
        lambda b: b.values("K", ("A", "R"), name="C"),
        (("fact", "t", "a1", "A"),),
        (("fact", "t", "a1", "Z"),),
    ),
}


@pytest.fixture(params=sorted(EXAMPLES))
def example(request):
    return request.param, EXAMPLES[request.param]


def test_admitting_population_is_a_model(example):
    _, form = example
    schema = form.schema()
    population = form.population(schema, form.admitting)
    constraint = schema.constraint("C")
    assert constraint.check(population) == []
    assert oracle.check_constraint(population, constraint) == []
    assert population.check() == []


def test_violating_population_is_rejected_as_the_ladder_rejects_it(example):
    label, form = example
    schema = form.schema()
    population = form.population(schema, form.violating)
    constraint = schema.constraint("C")
    violations = constraint.check(population)
    assert violations == oracle.check_constraint(population, constraint)
    assert all(v.rule == "C" for v in violations)
    if label == "uniqueness-pair":
        assert violations == []
    else:
        assert violations
    assert population.check() == oracle.check(population)
    assert [v for v in population.check() if v.rule == "C"] == violations


def test_text_faces_equal_their_ladders(example):
    _, form = example
    schema = form.schema()
    constraint = schema.constraint("C")
    assert constraint.describe(schema) == oracle.describe_constraint(
        schema, constraint
    )
    assert constraint.to_dsl() == oracle.dsl_constraint(constraint)
    assert constraint.items == oracle.items_of(constraint)
    assert parse(to_dsl(schema)) == schema


def test_signature_equals_the_mappers_key(example):
    _, form = example
    constraint = form.schema().constraint("C")
    assert constraint.signature() == oracle.mapper_signature(constraint)


def test_a_restated_twin_is_a_duplicate_as_before(example):
    _, form = example
    constraint = form.schema().constraint("C")
    pair = [constraint, dataclasses.replace(constraint, name="D")]
    found = duplicate_constraints(pair)
    never = constraint.kind in ("frequency", "value")
    assert found == ([] if never else [("D", "C")])
    assert found == oracle.duplicate_pairs(pair, oracle.mapper_signature)
    assert found == oracle.duplicate_pairs(pair, oracle.analyzer_signature)


@pytest.mark.parametrize(
    "label", ["uniqueness-simple", "uniqueness-pair", "uniqueness-external"]
)
def test_a_reference_twin_is_no_duplicate(label):
    # The analyzer's old key ignored the reference flag; the mapper's
    # did not, and signature() is the mapper's.
    constraint = EXAMPLES[label].schema().constraint("C")
    twin = dataclasses.replace(constraint, name="D", is_reference=True)
    pair = [constraint, twin]
    assert duplicate_constraints(pair) == []
    assert oracle.duplicate_pairs(pair, oracle.mapper_signature) == []
    assert oracle.duplicate_pairs(pair, oracle.analyzer_signature) == [
        ("D", "C")
    ]
