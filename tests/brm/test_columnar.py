"""The interned population vs. the row-oriented oracle.

``Population`` is the interned, per-fact-type columnar layout the
batch state-map kernels run on; ``tests.oracles.brm.RowPopulation``
is the value-oriented reference.  Mirroring the ``LinearScanOracle``
pattern from ``test_indexes.py``, every observable query — validity
(exact violation messages), ``facts_of``, role/item populations,
equality — is replayed through both representations after
hypothesis-driven construction and randomized mutation sequences, and
the lossless conversions ``to_row``/``from_row`` must round-trip.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.brm import Population, RoleId
from repro.cris import figure6_population, figure6_schema
from repro.mapper import MappingOptions, NullPolicy, SublinkPolicy, map_schema
from repro.workloads import generate_population, generate_schema

from tests.oracles.brm import RowPopulation, from_row, to_row
from tests.oracles.mapper import row_backward
from tests.strategies import (
    DEFAULT_SHAPE,
    FULL_SHAPE,
    PLAIN_SHAPE,
    RICH_SHAPE,
)


def assert_columnar_equals_oracle(
    population: RowPopulation, columnar: Population
) -> None:
    """Every observable query agrees between both representations."""
    schema = population.schema
    # Validity: same verdict AND the same violation messages.
    assert sorted(str(v) for v in columnar.check()) == sorted(
        str(v) for v in population.check()
    )
    assert columnar.is_valid() == population.is_valid()
    for object_type in schema.object_types:
        name = object_type.name
        assert columnar.instances(name) == population.instances(name)
    for fact in schema.fact_types:
        assert columnar.fact_instances(fact.name) == population.fact_instances(
            fact.name
        )
        for role in (fact.first, fact.second):
            role_id = RoleId(fact.name, role.name)
            assert columnar.role_population(role_id) == population.role_population(
                role_id
            )
            assert columnar.role_occurrences(
                role_id
            ) == population.role_occurrences(role_id)
            for instance in population.role_population(role_id):
                assert columnar.facts_of(
                    fact.name, role.name, instance
                ) == population.facts_of(fact.name, role.name, instance)
    assert columnar.is_empty() == population.is_empty()
    assert columnar.as_dict() == population.as_dict()
    # Lossless conversion both ways.
    assert to_row(columnar) == population
    assert from_row(population) == columnar


def _sync_pair(schema, seed: int) -> tuple[RowPopulation, Population]:
    columnar = generate_population(schema, instances_per_type=4, seed=seed)
    return to_row(columnar), columnar


def _random_mutation(
    population: RowPopulation,
    columnar: Population,
    rng: random.Random,
    step: int,
) -> None:
    """Apply one mutation through BOTH public mutator APIs.

    Mutations deliberately include constraint-violating ones (stray
    facts, retracted references, dangling subtype members): the
    equivalence contract covers invalid states and their exact
    violation messages, not just models.
    """
    schema = population.schema
    facts = [f for f in schema.fact_types]
    choice = rng.randrange(4)
    if choice == 0 and facts:
        fact = rng.choice(facts)
        first = f"mut_{step}_a"
        second = f"mut_{step}_b"
        population.add_fact(fact.name, first, second)
        columnar.add_fact(fact.name, first, second)
    elif choice == 1:
        populated = [
            f for f in facts if population.fact_instances(f.name)
        ]
        if populated:
            fact = rng.choice(populated)
            pair = min(population.fact_instances(fact.name), key=repr)
            population.remove_fact(fact.name, *pair)
            columnar.remove_fact(fact.name, *pair)
    elif choice == 2:
        types = [
            t.name
            for t in schema.object_types
            if population.instances(t.name)
        ]
        if types:
            name = rng.choice(types)
            instance = min(population.instances(name), key=repr)
            population.discard_instance(name, instance)
            columnar.discard_instance(name, instance)
    else:
        name = rng.choice([t.name for t in schema.object_types])
        population.add_instance(name, f"mut_{step}_solo")
        columnar.add_instance(name, f"mut_{step}_solo")


class TestOracleEquivalence:
    def test_figure6_population(self):
        schema = figure6_schema()
        columnar = figure6_population(schema)
        assert_columnar_equals_oracle(to_row(columnar), columnar)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schema_seed=st.integers(min_value=0, max_value=40),
        population_seed=st.integers(min_value=0, max_value=40),
    )
    def test_generated_populations(self, schema_seed, population_seed):
        schema = generate_schema(FULL_SHAPE, seed=schema_seed)
        population, columnar = _sync_pair(schema, population_seed)
        assert_columnar_equals_oracle(population, columnar)

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=30))
    def test_equivalence_after_randomized_mutations(self, seed):
        rng = random.Random(seed)
        schema = generate_schema(RICH_SHAPE, seed=seed)
        population, columnar = _sync_pair(schema, seed)
        for step in range(15):
            _random_mutation(population, columnar, rng, step)
            assert_columnar_equals_oracle(population, columnar)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=40))
    def test_round_trip_is_lossless(self, seed):
        schema = generate_schema(PLAIN_SHAPE, seed=seed)
        population, columnar = _sync_pair(schema, seed)
        rebuilt = from_row(population)
        assert rebuilt == columnar
        assert rebuilt.as_dict() == population.as_dict()
        # And back again.
        assert to_row(rebuilt) == population

    def test_copy_is_independent(self):
        schema = figure6_schema()
        columnar = figure6_population(schema)
        twin = columnar.copy()
        assert twin == columnar
        twin.add_instance("Paper", "ghost_paper")
        assert twin != columnar


class TestStateMapEquivalence:
    """The batch kernels do not depend on the intern order, and the
    reconstruction agrees with the row-at-a-time oracle."""

    POLICIES = st.tuples(
        st.sampled_from(
            [NullPolicy.DEFAULT, NullPolicy.NOT_ALLOWED, NullPolicy.NOT_IN_KEYS]
        ),
        st.sampled_from(
            [
                SublinkPolicy.SEPARATE,
                SublinkPolicy.TOGETHER,
                SublinkPolicy.INDICATOR,
            ]
        ),
    )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=30),
        policies=POLICIES,
    )
    def test_forward_map_agrees_across_representations(self, seed, policies):
        null_policy, sublink_policy = policies
        schema = generate_schema(DEFAULT_SHAPE, seed=seed)
        population = generate_population(
            schema, instances_per_type=4, seed=seed
        )
        result = map_schema(
            schema,
            MappingOptions(
                null_policy=null_policy, sublink_policy=sublink_policy
            ),
        )
        canonical = result.canonicalize(result.state.to_canonical(population))
        # The same state re-interned in another value order.
        reinterned = from_row(to_row(canonical))
        database = result.state_map.forward(canonical)
        assert result.state_map.forward(reinterned) == database
        # State equivalence holds for the reconstruction against both
        # the canonical original and the row oracle's reconstruction.
        reconstructed = result.state_map.backward(database)
        assert reconstructed == canonical
        assert (
            reconstructed.as_dict()
            == row_backward(result.state_map, database).as_dict()
        )


class TestIdLevelPrimitives:
    """The bulk id-level construction API the backward map runs on."""

    def _columnar(self):
        return Population(figure6_schema())

    def test_intern_all_is_per_value_intern(self):
        columnar = self._columnar()
        column = ["a", "b", "a", "c", "b"]
        ids = columnar.intern_all(column)
        assert ids == [columnar.intern(v) for v in column]
        assert ids[0] == ids[2] and ids[1] == ids[4]

    def test_add_instance_ids_propagates_to_ancestors(self):
        columnar = self._columnar()
        ids = columnar.intern_all(["inv_1", "inv_2"])
        columnar.add_instance_ids("Invited_Paper", set(ids))
        assert columnar.instances("Invited_Paper") == {"inv_1", "inv_2"}
        # Invited_Paper IS-A Paper: extensional subtyping by construction.
        assert columnar.instances("Paper") >= {"inv_1", "inv_2"}

    def test_add_pair_ids_matches_add_facts(self):
        schema = figure6_schema()
        by_values = Population(schema)
        by_ids = Population(schema)
        pairs = [("p_1", "alice"), ("p_2", "bob"), ("p_3", "alice")]
        by_values.add_facts("presents", pairs)
        by_ids.add_pair_ids(
            "presents",
            [
                (by_ids.intern(first), by_ids.intern(second))
                for first, second in pairs
            ],
        )
        assert by_ids == by_values
        assert by_ids.state_diff(by_values) == {}

    def test_add_fact_id_columns_matches_add_facts(self):
        schema = figure6_schema()
        by_values = Population(schema)
        by_columns = Population(schema)
        pairs = [("p_1", "alice"), ("p_2", "bob")]
        by_values.add_facts("presents", pairs)
        by_columns.add_fact_id_columns(
            "presents",
            by_columns.intern_all([first for first, _ in pairs]),
            by_columns.intern_all([second for _, second in pairs]),
        )
        assert by_columns == by_values
        # Empty columns are a no-op, not a version bump.
        before = by_columns._version
        by_columns.add_fact_id_columns("presents", [], [])
        assert by_columns._version == before


class TestStateDiff:
    """Columnar set-algebra comparison across intern spaces."""

    def test_empty_iff_equal(self):
        schema = figure6_schema()
        columnar = figure6_population(schema)
        population = to_row(columnar)
        # Different intern orders, same state.
        twin = Population(schema)
        for fact in reversed(schema.fact_types):
            twin.add_facts(
                fact.name, sorted(population.fact_instances(fact.name))
            )
        for object_type in schema.object_types:
            twin.add_instances(
                object_type.name, population.instances(object_type.name)
            )
        assert twin.state_diff(columnar) == {}
        assert columnar.state_diff(twin) == {}
        assert twin.state_diff(from_row(population)) == {}

    def test_counts_symmetric_differences(self):
        schema = figure6_schema()
        left = Population(schema)
        right = Population(schema)
        left.add_instances("Person", ["alice", "bob"])
        right.add_instances("Person", ["alice", "carol"])
        right.add_fact("presents", "p_9", "carol")
        diff = left.state_diff(right)
        assert diff["Person"] == 2  # bob only-left, carol only-right
        assert diff["presents"] == 1
        assert diff["Program_Paper"] == 1  # p_9 auto-added on the right

    def test_never_interned_values_always_differ(self):
        # The negative-sentinel path: a value the other side has never
        # seen must count as a difference even when id numbers collide.
        schema = figure6_schema()
        left = Population(schema)
        right = Population(schema)
        left.add_instance("Person", "only_left")
        right.add_instance("Person", "only_right")
        assert left.state_diff(right) == {"Person": 2}
