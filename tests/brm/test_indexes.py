"""Indexed schema queries vs. the linear-scan oracle, and the
version-stamp semantics the index/memo layers are built on.

The equivalence tests replay every navigation query through both the
indexed :class:`BinarySchema` methods and the retained
:class:`LinearScanOracle` (``tests/oracles/brm.py``) after randomized
mutation sequences; the version tests pin down the invalidation
contract (every mutator bumps, copies share stamps, constraint-only
mutations invalidate the memoized ``analyze()``/``InclusionGraph``).
"""

import random

import pytest

from repro.analyzer.api import analyze
from repro.analyzer.consistency import inclusion_graph_for
from repro.analyzer.correctness import check_correctness
from repro.brm import (
    BinarySchema,
    ExclusionConstraint,
    FactType,
    FrequencyConstraint,
    Role,
    RoleId,
    SubsetConstraint,
    SublinkRef,
    SublinkType,
    TotalUnionConstraint,
    UniquenessConstraint,
    char,
    lot,
    nolot,
)
from repro.brm.indexes import indexes_for
from repro.errors import DuplicateNameError, SchemaError
from repro.workloads import SchemaShape, generate_schema
from tests.oracles.brm import LinearScanOracle


def assert_indexed_equals_oracle(schema: BinarySchema) -> None:
    """Every query method agrees with the linear-scan reference."""
    oracle = LinearScanOracle(schema)
    for object_type in schema.object_types:
        name = object_type.name
        assert schema.roles_played_by(name) == oracle.roles_played_by(name)
        assert schema.facts_involving(name) == oracle.facts_involving(name)
        assert schema.sublinks_from(name) == oracle.sublinks_from(name)
        assert schema.sublinks_to(name) == oracle.sublinks_to(name)
        assert schema.supertypes_of(name) == oracle.supertypes_of(name)
        assert schema.subtypes_of(name) == oracle.subtypes_of(name)
        assert schema.ancestors_of(name) == oracle.ancestors_of(name)
        assert schema.descendants_of(name) == oracle.descendants_of(name)
        assert schema.root_supertypes_of(name) == oracle.root_supertypes_of(
            name
        )
        assert schema.total_constraints_on(name) == oracle.total_constraints_on(
            name
        )
        assert schema.value_constraint_on(name) == oracle.value_constraint_on(
            name
        )
        assert schema.functional_roles_of(name) == oracle.functional_roles_of(
            name
        )
        for role_id in oracle.roles_played_by(name):
            assert schema.is_unique(role_id) == oracle.is_unique(role_id)
            assert schema.is_total(role_id) == oracle.is_total(role_id)
            assert schema.constraints_over(role_id) == oracle.constraints_over(
                role_id
            )
    for sublink in schema.sublinks:
        ref = SublinkRef(sublink.name)
        assert schema.constraints_over(ref) == oracle.constraints_over(ref)
    assert schema.uniqueness_constraints() == oracle.uniqueness_constraints()
    assert schema.exclusions() == oracle.exclusions()
    assert schema.equalities() == oracle.equalities()
    assert schema.subsets() == oracle.subsets()
    assert schema.totals() == oracle.totals()


# ----------------------------------------------------------------------
# Randomized mutation sequences
# ----------------------------------------------------------------------


def _random_mutation(schema: BinarySchema, rng: random.Random, step: int):
    """Apply one random mutation through the public mutator API.

    Invalid choices (duplicates, cycles, still-referenced elements)
    are skipped — the point is a long arbitrary sequence of
    *successful* mutations, each of which must leave the indexes
    consistent with the oracle.
    """
    nolots = [t.name for t in schema.object_types if t.is_nolot]
    facts = list(schema.fact_types)
    constraints = list(schema.constraints)
    choice = rng.randrange(7)
    try:
        if choice == 0:
            leg = schema.add_object_type(lot(f"mut_lot_{step}", char(8)))
            owner = rng.choice(nolots)
            fact = schema.add_fact_type(
                FactType(
                    f"mut_fact_{step}",
                    Role("of", owner),
                    Role("is", leg.name),
                )
            )
            schema.add_constraint(
                UniquenessConstraint(
                    f"mut_uc_{step}", roles=(RoleId(fact.name, "of"),)
                )
            )
        elif choice == 1 and constraints:
            schema.remove_constraint(rng.choice(constraints).name)
        elif choice == 2 and facts:
            fact = rng.choice(facts)
            schema.add_constraint(
                FrequencyConstraint(
                    f"mut_freq_{step}",
                    role=RoleId(fact.name, fact.second.name),
                    minimum=2,
                    maximum=5,
                )
            )
        elif choice == 3 and len(nolots) >= 2:
            subtype, supertype = rng.sample(nolots, 2)
            schema.add_sublink(
                SublinkType(f"mut_sub_{step}", subtype, supertype)
            )
        elif choice == 4 and facts:
            fact = rng.choice(facts)
            if not schema.constraints_over(
                RoleId(fact.name, fact.first.name)
            ) and not schema.constraints_over(
                RoleId(fact.name, fact.second.name)
            ):
                schema.remove_fact_type(fact.name)
        elif choice == 5 and len(facts) >= 2:
            first, second = rng.sample(facts, 2)
            schema.add_constraint(
                ExclusionConstraint(
                    f"mut_excl_{step}",
                    items=(
                        RoleId(first.name, first.first.name),
                        RoleId(second.name, second.first.name),
                    ),
                )
            )
        elif choice == 6 and len(facts) >= 2:
            first, second = rng.sample(facts, 2)
            schema.add_constraint(
                SubsetConstraint(
                    f"mut_subs_{step}",
                    subset=RoleId(first.name, first.first.name),
                    superset=RoleId(second.name, second.first.name),
                )
            )
    except (SchemaError, DuplicateNameError):
        pass  # invalid random choice; the schema is unchanged


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equivalence_after_randomized_mutations(seed):
    rng = random.Random(seed)
    schema = generate_schema(
        SchemaShape(entity_types=4, rich_constraints=True), seed=seed
    )
    assert_indexed_equals_oracle(schema)
    for step in range(30):
        before = schema.version
        _random_mutation(schema, rng, step)
        if schema.version != before:
            assert_indexed_equals_oracle(schema)
    assert_indexed_equals_oracle(schema)


def test_equivalence_on_generated_industrial_slice():
    schema = generate_schema(
        SchemaShape(entity_types=8, rich_constraints=True), seed=1989
    )
    assert_indexed_equals_oracle(schema)


# ----------------------------------------------------------------------
# Version-stamp semantics
# ----------------------------------------------------------------------


@pytest.fixture
def small_schema():
    s = BinarySchema("versioned")
    s.add_object_type(nolot("Paper"))
    s.add_object_type(nolot("Accepted_Paper"))
    s.add_object_type(lot("Paper_Id", char(6)))
    s.add_fact_type(
        FactType("has_id", Role("with", "Paper"), Role("of", "Paper_Id"))
    )
    s.add_constraint(
        UniquenessConstraint(
            "UC_has_id", roles=(RoleId("has_id", "with"),), is_reference=True
        )
    )
    s.add_sublink(SublinkType("AP_IS_Paper", "Accepted_Paper", "Paper"))
    return s


def test_every_mutator_bumps_the_version(small_schema):
    s = small_schema
    mutations = [
        lambda: s.add_object_type(nolot("Reviewer")),
        lambda: s.add_fact_type(
            FactType(
                "reviewed_by", Role("by", "Paper"), Role("did", "Reviewer")
            )
        ),
        lambda: s.add_sublink(
            SublinkType("R_IS_P", "Reviewer", "Paper")
        ),
        lambda: s.add_constraint(
            TotalUnionConstraint(
                "T_with", object_type="Paper", items=(RoleId("has_id", "with"),)
            )
        ),
        lambda: s.remove_constraint("T_with"),
        lambda: s.remove_sublink("R_IS_P"),
        lambda: s.remove_fact_type("reviewed_by"),
        lambda: s.remove_object_type("Reviewer"),
    ]
    for mutate in mutations:
        before = s.version
        mutate()
        assert s.version > before


def test_failed_mutation_does_not_bump(small_schema):
    before = small_schema.version
    with pytest.raises(DuplicateNameError):
        small_schema.add_object_type(nolot("Paper"))
    assert small_schema.version == before


def test_copy_shares_version_and_indexes(small_schema):
    copy = small_schema.copy()
    assert copy.version == small_schema.version
    assert indexes_for(copy) is indexes_for(small_schema)
    assert small_schema.same_elements(copy)
    # Mutating the copy diverges it without touching the original.
    copy.add_object_type(nolot("Only_In_Copy"))
    assert copy.version != small_schema.version
    assert not small_schema.same_elements(copy)
    assert small_schema.roles_played_by("Paper") == [RoleId("has_id", "with")]
    assert_indexed_equals_oracle(copy)
    assert_indexed_equals_oracle(small_schema)


def test_element_counts(small_schema):
    assert small_schema.element_counts() == (3, 1, 1, 1)


# ----------------------------------------------------------------------
# Memo invalidation
# ----------------------------------------------------------------------


def test_constraint_only_mutation_invalidates_analyze(small_schema):
    first = analyze(small_schema)
    assert analyze(small_schema) is first  # memo hit on same version
    # A constraint-only mutation leaves facts/types/sublinks alone but
    # must still bump the version and invalidate the memo.
    before = small_schema.version
    small_schema.add_constraint(
        TotalUnionConstraint(
            "T_inv", object_type="Paper", items=(RoleId("has_id", "with"),)
        )
    )
    assert small_schema.version > before
    second = analyze(small_schema)
    assert second is not first
    small_schema.remove_constraint("T_inv")
    # Same elements as the start, but a fresh version: no stale reuse.
    third = analyze(small_schema)
    assert third is not first and third is not second


def test_constraint_only_mutation_invalidates_inclusion_graph(small_schema):
    first = inclusion_graph_for(small_schema)
    assert inclusion_graph_for(small_schema) is first
    small_schema.add_constraint(
        SubsetConstraint(
            "S_inv",
            subset=RoleId("has_id", "with"),
            superset=RoleId("has_id", "of"),
        )
    )
    second = inclusion_graph_for(small_schema)
    assert second is not first
    assert second.find_path(
        ("role", "has_id", "with"), ("role", "has_id", "of")
    ) is not None
    assert first.find_path(
        ("role", "has_id", "with"), ("role", "has_id", "of")
    ) is None


def test_copy_hits_the_same_memo_entry(small_schema):
    report = analyze(small_schema)
    assert analyze(small_schema.copy()) is report


def test_uncached_correctness_bypasses_memo(small_schema):
    cached = check_correctness(small_schema)
    assert check_correctness(small_schema) is cached
    fresh = check_correctness.uncached(small_schema)
    assert fresh is not cached
    assert fresh == cached


def test_inclusion_graph_paths_and_lower_bounds(small_schema):
    """Spot-check inclusion paths and lower bounds on known chains."""
    graph = inclusion_graph_for(small_schema)
    # role -> player: pop(has_id.with) <= pop(Paper)
    assert graph.find_path(
        ("role", "has_id", "with"), ("type", "Paper")
    ) is not None
    # subtype chain: pop(Accepted_Paper) <= pop(Paper)
    assert graph.find_path(
        ("type", "Accepted_Paper"), ("type", "Paper")
    ) is not None
    assert graph.find_path(
        ("type", "Paper"), ("type", "Accepted_Paper")
    ) is None
    # lower bounds of Paper include its subtype and its roles
    bounds = graph.lower_bound_paths(("type", "Paper"))
    assert ("type", "Accepted_Paper") in bounds
    assert ("role", "has_id", "with") in bounds
    # unknown nodes only bound themselves
    assert graph.lower_bound_paths(("type", "Ghost")) == {("type", "Ghost"): ()}
    assert graph.find_path(("type", "Ghost"), ("type", "Paper")) is None
    assert graph.find_path(("type", "Ghost"), ("type", "Ghost")) == ()
