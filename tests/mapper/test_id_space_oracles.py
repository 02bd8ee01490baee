"""The id-space generator and canonicalizer vs. their value-level oracles.

``repro.workloads.populations`` generates and
``canonicalize_population`` renames populations on interned id
columns; ``tests.oracles.workloads.value_generate`` and
``tests.oracles.mapper.value_canonicalize`` are the value-level
implementations they replaced.  Both pairs must build *identical*
populations: the same intern table in the same order, the same
instance id sets and the same fact pair sets — and the canonicalizer
must reject an incomplete reference with the same error text.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.brm import SchemaBuilder, char, numeric
from repro.cris import cris_schema, figure6_schema
from repro.errors import MappingError
from repro.mapper import (
    MappingOptions,
    NullPolicy,
    canonicalize_population,
    map_schema,
)
from repro.workloads import generate_bulk_population, generate_population
from repro.workloads.populations import estimated_rows_per_instance

from tests.executor.conftest import build_authorship_schema
from tests.mapper.test_gate_tolerance import disjunctive_schema
from tests.oracles.mapper import value_canonicalize
from tests.oracles.workloads import value_generate
from tests.strategies import OPTION_SETS, shaped_schemas

#: Default, TOGETHER, INDICATOR and null NOT_ALLOWED.
FOUR_OPTION_SETS = OPTION_SETS[:4]


def assert_identical(population, oracle):
    assert population._values == oracle._values
    assert population._intern == oracle._intern
    assert population._objects == oracle._objects
    assert population._pairs == oracle._pairs


def assert_generators_agree(schema, seed):
    assert_identical(
        generate_population(schema, seed=seed),
        value_generate(schema, 5, 0.6, seed),
    )
    target_rows = 3000
    instances = max(2, target_rows // estimated_rows_per_instance(schema))
    assert_identical(
        generate_bulk_population(schema, target_rows=target_rows, seed=seed),
        value_generate(schema, instances, 0.6, seed),
    )


def assert_canonicalizers_agree(schema, options, population):
    result = map_schema(schema, options)
    source = result.state.to_canonical(population)
    assert_identical(
        canonicalize_population(result.plan, source),
        value_canonicalize(result.plan, source),
    )


def canonical_error(canonicalize, plan, population):
    with pytest.raises(MappingError) as excinfo:
        canonicalize(plan, population)
    return str(excinfo.value)


class TestGenerator:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_paper_schemas(self, seed):
        for schema in (cris_schema(), figure6_schema()):
            assert_generators_agree(schema, seed)

    def test_authorship_schema(self):
        assert_generators_agree(build_authorship_schema(), 7)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(schema=shaped_schemas(), seed=st.integers(0, 1000))
    def test_shaped_schemas(self, schema, seed):
        assert_generators_agree(schema, seed)


class TestCanonicalize:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_cris(self, seed):
        schema = cris_schema()
        population = generate_bulk_population(
            schema, target_rows=3000, seed=seed
        )
        for options in FOUR_OPTION_SETS:
            assert_canonicalizers_agree(schema, options, population)

    @pytest.mark.parametrize("options", FOUR_OPTION_SETS)
    def test_figure6(self, options):
        schema = figure6_schema()
        population = generate_population(
            schema, instances_per_type=40, seed=11
        )
        assert_canonicalizers_agree(schema, options, population)

    def test_authorship_schema(self):
        schema = build_authorship_schema()
        population = generate_population(schema, seed=3)
        assert_canonicalizers_agree(schema, MappingOptions(), population)

    def test_fillers_missing_from_their_player(self):
        # A discarded instance keeps its facts: both canonicalizers
        # name the dangling fillers and re-add them through the facts.
        schema = figure6_schema()
        population = generate_population(schema, seed=4)
        for name in ("Paper", "Paper_Id"):
            population.discard_instance(
                name, sorted(population.instances(name), key=repr)[0]
            )
        assert population.check()
        assert_canonicalizers_agree(schema, MappingOptions(), population)

    def test_disjunctive_root_names_keep_none_components(self):
        schema = disjunctive_schema()
        options = MappingOptions(null_policy=NullPolicy.ALLOWED)
        population = generate_population(
            schema, instances_per_type=8, seed=5
        )
        first, second = sorted(population.fact_instances("drawn"), key=repr)[0]
        population.remove_fact("drawn", first, second)
        assert_canonicalizers_agree(schema, options, population)
        result = map_schema(schema, options)
        names = canonicalize_population(result.plan, population).instances(
            "Part"
        )
        assert any(None in name for name in names)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schema=shaped_schemas(),
        seed=st.integers(0, 1000),
        options=st.sampled_from(FOUR_OPTION_SETS),
    )
    def test_shaped_schemas(self, schema, seed, options):
        population = generate_population(schema, seed=seed)
        assert_canonicalizers_agree(schema, options, population)


def subtype_first_schema():
    """Student is declared before its root Person, and inherits
    Person's reference."""
    b = SchemaBuilder("enrolment")
    b.nolot("Student").nolot("Person").lot("Person_Name", char(30))
    b.subtype("Student", "Person")
    b.identifier("Person", "Person_Name")
    return b.build()


def composite_reference_schema():
    """Room is named by the pair (Building, Nr): a two-leaf reference."""
    b = SchemaBuilder("rooms")
    b.nolot("Room").lot("Building", char(10)).lot("Nr", numeric(3))
    b.fact("in_building", ("Room", "in"), ("Building", "houses"),
           unique="first", total="first")
    b.fact("numbered", ("Room", "has"), ("Nr", "of"),
           unique="first", total="first")
    b.reference_unique(("in_building", "houses"), ("numbered", "of"))
    return b.build()


class TestIncompleteReference:
    """Reference facts removed: both canonicalizers name the same
    instance of the same type — the first offending id of the first
    type, in schema order, that holds one."""

    def assert_same_errors(self, schema, options, population):
        result = map_schema(schema, options)
        source = result.state.to_canonical(population)
        plan = result.plan
        checked = 0
        for root in plan.schema.object_types:
            if not root.is_nolot or plan.schema.supertypes_of(root.name):
                continue
            for leaf in plan.resolver.leaves(root.name):
                fact = leaf.path[0].fact
                pairs = sorted(source.fact_instances(fact), key=repr)
                broken = source.copy()
                broken.remove_fact(fact, *pairs[0])
                assert canonical_error(
                    canonicalize_population, plan, broken
                ) == canonical_error(value_canonicalize, plan, broken)
                checked += 1
        assert checked

    @pytest.mark.parametrize("options", FOUR_OPTION_SETS[:2])
    def test_paper_schemas(self, options):
        for schema in (cris_schema(), figure6_schema()):
            population = generate_population(
                schema, instances_per_type=6, seed=3
            )
            self.assert_same_errors(schema, options, population)

    def test_subtype_declared_before_its_root(self):
        schema = subtype_first_schema()
        assert [t.name for t in schema.object_types][:2] == [
            "Student", "Person",
        ]
        population = generate_population(
            schema, instances_per_type=12, seed=2
        )
        plan = map_schema(schema, MappingOptions()).plan
        students = population.instances("Student")
        messages = set()
        for person, name in population.fact_instances("Person_has_Person_Name"):
            broken = population.copy()
            broken.remove_fact("Person_has_Person_Name", person, name)
            message = canonical_error(canonicalize_population, plan, broken)
            assert message == canonical_error(value_canonicalize, plan, broken)
            expected = "Student" if person in students else "Person"
            assert f"{person!r} of {expected!r}" in message
            messages.add(expected)
        assert messages == {"Student", "Person"}

    def test_first_broken_instance_across_reference_leaves(self):
        schema = composite_reference_schema()
        population = generate_population(
            schema, instances_per_type=6, seed=1
        )
        plan = map_schema(schema, MappingOptions()).plan
        assert_canonicalizers_agree(schema, MappingOptions(), population)
        for building in sorted(population.fact_instances("in_building")):
            for number in sorted(population.fact_instances("numbered")):
                if building[0] == number[0]:
                    continue
                broken = population.copy()
                broken.remove_fact("in_building", *building)
                broken.remove_fact("numbered", *number)
                assert canonical_error(
                    canonicalize_population, plan, broken
                ) == canonical_error(value_canonicalize, plan, broken)
