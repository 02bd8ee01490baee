"""Every BRM constraint's faces against the per-kind ladders they replaced.

On ``examples/conference.ridl``, CRIS and figure 6, on their canonical
schemas under four option sets, on two section-5 industrial draws and
on randomized ``shaped_schemas()`` draws, each constraint's ``items``,
``signature()``, ``describe()``, ``to_dsl()`` and ``check()`` equal the
``isinstance`` ladders of ``tests/oracles/brm_constraints.py``:

- ``to_dsl()`` text for text, but for the value literals the old
  printer wrote as DSL that did not parse (booleans, and strings
  holding a quote);
- ``check()`` violation for violation, on a generated population and
  on seeded corruptions of it, and ``Population.check()`` as a whole;
- ``signature()`` equal to the mapper's old key, and finding the same
  duplicates as the analyzer's old key once that key tells a
  reference uniqueness from a plain one.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro.brm import UniquenessConstraint, ValueConstraint
from repro.brm.constraints import duplicate_constraints
from repro.cris import cris_schema, figure6_schema
from repro.dsl import parse
from repro.mapper import map_schema
from repro.workloads import generate_population, generate_schema
from tests.executor.test_memory_kernels import INDUSTRIAL_SHAPE
from tests.oracles import brm_constraints as oracle
from tests.strategies import OPTION_SETS, shaped_schemas

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "conference.ridl"

BUNDLED = {
    "conference": lambda: parse(EXAMPLE.read_text()),
    "cris": cris_schema,
    "fig6": figure6_schema,
}


def schemas():
    """Every schema the faces are compared on, by label."""
    for label, factory in BUNDLED.items():
        yield label, factory()
        for number, options in enumerate(OPTION_SETS[:4]):
            yield f"{label}/canonical{number}", map_schema(
                factory(), options
            ).canonical
    for seed in (1, 2):
        yield f"industrial{seed}", generate_schema(INDUSTRIAL_SHAPE, seed=seed)


CASES = dict(schemas())


def printed_before(constraint) -> bool:
    """Whether the old printer wrote the constraint as DSL that parsed."""
    return not isinstance(constraint, ValueConstraint) or not any(
        isinstance(v, bool) or (isinstance(v, str) and "'" in v)
        for v in constraint.values
    )


def assert_static_faces(schema) -> None:
    constraints = schema.constraints
    for constraint in constraints:
        assert constraint.items == oracle.items_of(constraint)
        assert constraint.signature() == oracle.mapper_signature(constraint)
        assert constraint.describe(schema) == oracle.describe_constraint(
            schema, constraint
        )
        if printed_before(constraint):
            assert constraint.to_dsl() == oracle.dsl_constraint(constraint)
    found = duplicate_constraints(constraints)
    assert found == oracle.duplicate_pairs(constraints, oracle.mapper_signature)
    assert found == oracle.duplicate_pairs(constraints, analyzer_key_with_flag)


def analyzer_key_with_flag(constraint) -> tuple:
    """The analyzer's old duplicate key, told apart by the reference
    flag as the mapper's was."""
    key = oracle.analyzer_signature(constraint)
    if isinstance(constraint, UniquenessConstraint):
        return (*key, constraint.is_reference)
    return key


def assert_verdicts(schema, seed: int) -> None:
    population = generate_population(schema, instances_per_type=4, seed=seed)
    rng = random.Random(seed)
    facts = [fact.name for fact in schema.fact_types]
    for step in range(12):
        for constraint in schema.constraints:
            assert constraint.check(population) == oracle.check_constraint(
                population, constraint
            )
        assert population.check() == oracle.check(population)
        # Corrupt: drop a fact instance or add one between existing
        # (or fresh) fillers, so every kind gets a chance to fail.
        fact = schema.fact_type(rng.choice(facts))
        pairs = sorted(population.fact_instances(fact.name), key=repr)
        if pairs and rng.random() < 0.5:
            population.remove_fact(fact.name, *rng.choice(pairs))
        else:
            firsts = population.sorted_instances(fact.first.player)
            seconds = population.sorted_instances(fact.second.player)
            population.add_fact(
                fact.name,
                rng.choice(firsts or [f"x{step}"]),
                rng.choice(seconds or [f"y{step}"]),
            )


@pytest.mark.parametrize("label", sorted(CASES))
def test_faces_equal_their_ladders(label):
    assert_static_faces(CASES[label])


@pytest.mark.parametrize("label", sorted(BUNDLED) + ["industrial1"])
def test_verdicts_equal_the_ladder(label):
    assert_verdicts(CASES[label], seed=3)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
@given(schema=shaped_schemas())
def test_faces_on_randomized_shapes(schema):
    assert_static_faces(schema)
    assert_verdicts(schema, seed=5)
