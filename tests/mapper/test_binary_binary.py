"""Tests for the binary-to-binary basic transformations."""

import pytest

from repro.brm import (
    Population,
    RoleId,
    SchemaBuilder,
    SubsetConstraint,
    char,
    numeric,
)
from repro.errors import MappingError
from repro.mapper import MappingOptions, MappingState, SublinkPolicy
from repro.mapper.transformations import (
    add_indicator_fact,
    apply_sublink_policies,
    canonicalize_constraints,
    eliminate_sublink,
    restrict_scope,
)


def make_state(schema, options=None):
    return MappingState(
        schema=schema.copy(), options=options or MappingOptions(), original=schema
    )


def subtype_schema(*, total_roles=2, optional=("presents",)):
    b = SchemaBuilder("s")
    b.nolot("Paper").nolot("PP")
    b.lot("Paper_Id", char(6)).lot("PP_Id", char(2))
    b.lot_nolot("Session", numeric(3)).lot_nolot("Person", char(30))
    b.identifier("Paper", "Paper_Id")
    b.subtype("PP", "Paper")
    b.identifier("PP", "PP_Id")  # total role 1
    if total_roles >= 2:
        b.attribute("PP", "Session", fact="scheduled", total=True)
    for fact in optional:
        b.attribute("PP", "Person", fact=fact)  # optional
    return b.build()


class TestRestrictScope:
    def test_no_scope_is_identity(self):
        schema = subtype_schema()
        state = make_state(schema)
        restrict_scope(state)
        assert state.schema == schema
        assert state.steps == []

    def test_scope_drops_out_of_scope_elements(self):
        schema = subtype_schema()
        state = make_state(
            schema,
            MappingOptions(scope=("Paper", "Paper_Id")),
        )
        restrict_scope(state)
        assert state.schema.has_object_type("Paper")
        assert not state.schema.has_object_type("PP")
        assert not state.schema.has_sublink("PP_IS_Paper")
        assert state.schema.has_fact_type("Paper_has_Paper_Id")
        assert not state.schema.has_fact_type("scheduled")

    def test_scope_population_maps(self):
        schema = subtype_schema()
        state = make_state(schema, MappingOptions(scope=("Paper", "Paper_Id")))
        restrict_scope(state)
        population = Population(schema)
        population.add_fact("Paper_has_Paper_Id", "p1", "P1")
        population.add_instance("PP", "p1")
        projected = state.to_canonical(population)
        assert projected.instances("Paper") == {"p1"}
        restored = state.from_canonical(projected)
        assert restored.instances("Paper") == {"p1"}

    def test_unknown_scope_type_rejected(self):
        state = make_state(subtype_schema(), MappingOptions(scope=("Nope",)))
        with pytest.raises(MappingError):
            restrict_scope(state)


class TestCanonicalize:
    def test_duplicates_removed(self):
        b = SchemaBuilder("s")
        b.nolot("A").lot("K", char(3))
        b.fact("f", ("A", "x"), ("K", "y"))
        b.unique("f.x").unique("f.x")
        state = make_state(b.build())
        canonicalize_constraints(state)
        assert len(state.schema.uniqueness_constraints()) == 1
        assert any(s.transformation == "canonicalize-constraints"
                   for s in state.steps)

    def test_clean_schema_untouched(self):
        schema = subtype_schema()
        state = make_state(schema)
        canonicalize_constraints(state)
        assert state.schema == schema


class TestEliminateSublink:
    def test_roles_re_played_by_supertype(self):
        state = make_state(subtype_schema())
        eliminate_sublink(state, "PP_IS_Paper")
        schema = state.schema
        assert not schema.has_object_type("PP")
        assert not schema.has_sublink("PP_IS_Paper")
        assert schema.fact_type("scheduled").first.player == "Paper"
        assert schema.fact_type("presents").first.player == "Paper"

    def test_anchor_prefers_reference_fact(self):
        state = make_state(subtype_schema())
        eliminate_sublink(state, "PP_IS_Paper")
        record = state.hints.eliminations["PP_IS_Paper"]
        assert record.anchor == RoleId("PP_has_PP_Id", "with")
        assert record.indicator_fact is None

    def test_lossless_equality_among_total_roles(self):
        state = make_state(subtype_schema())
        eliminate_sublink(state, "PP_IS_Paper")
        equalities = state.schema.equalities()
        assert len(equalities) == 1
        assert set(equalities[0].items) == {
            RoleId("PP_has_PP_Id", "with"),
            RoleId("scheduled", "with"),
        }

    def test_lossless_subset_for_optional_roles(self):
        state = make_state(subtype_schema())
        eliminate_sublink(state, "PP_IS_Paper")
        subsets = state.schema.subsets()
        assert len(subsets) == 1
        assert subsets[0].subset == RoleId("presents", "with")
        assert subsets[0].superset == RoleId("PP_has_PP_Id", "with")

    def test_existing_subset_to_anchor_is_kept_alone(self):
        schema = subtype_schema()
        schema.add_constraint(
            SubsetConstraint(
                "S1",
                subset=RoleId("presents", "with"),
                superset=RoleId("PP_has_PP_Id", "with"),
            )
        )
        state = make_state(schema)
        eliminate_sublink(state, "PP_IS_Paper")
        subsets = state.schema.subsets()
        assert [s.name for s in subsets] == ["S1"]
        assert (subsets[0].subset, subsets[0].superset) == (
            RoleId("presents", "with"),
            RoleId("PP_has_PP_Id", "with"),
        )
        assert state.steps[-1].lossless_rules == ("LL_EE_PP_IS_Paper",)

    def test_one_subset_rule_per_optional_role_in_role_order(self):
        state = make_state(subtype_schema(optional=("presents", "reviews")))
        eliminate_sublink(state, "PP_IS_Paper")
        anchor = RoleId("PP_has_PP_Id", "with")
        assert [
            (s.name, s.subset, s.superset) for s in state.schema.subsets()
        ] == [
            ("LL_DE_PP_IS_Paper", RoleId("presents", "with"), anchor),
            ("LL_DE_PP_IS_Paper_2", RoleId("reviews", "with"), anchor),
        ]
        assert state.steps[-1].lossless_rules == (
            "LL_EE_PP_IS_Paper",
            "LL_DE_PP_IS_Paper",
            "LL_DE_PP_IS_Paper_2",
        )

    def test_totality_on_subtype_dropped(self):
        state = make_state(subtype_schema())
        eliminate_sublink(state, "PP_IS_Paper")
        for total in state.schema.totals():
            assert total.object_type != "PP"
            # The re-played roles must not be total on Paper either.
            for item in total.items:
                assert item.fact not in ("scheduled", "presents", "PP_has_PP_Id")

    def test_factless_subtype_gets_indicator(self):
        b = SchemaBuilder("s")
        b.nolot("Paper").nolot("Invited").lot("Paper_Id", char(6))
        b.identifier("Paper", "Paper_Id")
        b.subtype("Invited", "Paper")
        state = make_state(b.build())
        eliminate_sublink(state, "Invited_IS_Paper")
        record = state.hints.eliminations["Invited_IS_Paper"]
        assert record.anchor is None
        assert record.indicator_fact is not None
        fact = state.schema.fact_type(record.indicator_fact)
        assert fact.first.player == "Paper"
        assert state.schema.has_object_type("Is_Invited")

    def test_population_round_trip(self):
        schema = subtype_schema()
        state = make_state(schema)
        eliminate_sublink(state, "PP_IS_Paper")
        population = Population(schema)
        population.add_fact("Paper_has_Paper_Id", "p1", "P1")
        population.add_instance("PP", "p1")
        population.add_fact("PP_has_PP_Id", "p1", "A1")
        population.add_fact("scheduled", "p1", 101)
        population.add_fact("Paper_has_Paper_Id", "p2", "P2")
        forward = state.to_canonical(population)
        assert "p1" in forward.instances("Paper")
        assert not forward.schema.has_object_type("PP")
        back = state.from_canonical(forward)
        assert back == population

    def test_indicator_population_round_trip(self):
        b = SchemaBuilder("s")
        b.nolot("Paper").nolot("Invited").lot("Paper_Id", char(6))
        b.identifier("Paper", "Paper_Id")
        b.subtype("Invited", "Paper")
        schema = b.build()
        state = make_state(schema)
        eliminate_sublink(state, "Invited_IS_Paper")
        population = Population(schema)
        population.add_fact("Paper_has_Paper_Id", "p1", "P1")
        population.add_fact("Paper_has_Paper_Id", "p2", "P2")
        population.add_instance("Invited", "p1")
        forward = state.to_canonical(population)
        fact = state.hints.eliminations["Invited_IS_Paper"].indicator_fact
        assert forward.fact_instances(fact) == {("p1", "Y"), ("p2", "N")}
        assert state.from_canonical(forward) == population

    def test_multiple_supertypes_rejected(self):
        b = SchemaBuilder("s")
        b.nolot("A").nolot("B").nolot("X")
        b.lot("AK", char(3)).lot("BK", char(3))
        b.identifier("A", "AK")
        b.identifier("B", "BK")
        b.subtype("X", "A", name="X_IS_A").subtype("X", "B", name="X_IS_B")
        state = make_state(b.build())
        with pytest.raises(MappingError):
            eliminate_sublink(state, "X_IS_A")

    def test_subtype_chain_repoints(self):
        b = SchemaBuilder("s")
        b.nolot("A").nolot("B").nolot("C")
        b.lot("AK", char(3)).lot_nolot("V", char(3))
        b.identifier("A", "AK")
        b.subtype("B", "A").subtype("C", "B")
        b.attribute("B", "V", fact="bf", total=True)
        state = make_state(b.build())
        eliminate_sublink(state, "B_IS_A")
        sublink = state.schema.sublink("C_IS_B")
        assert sublink.subtype == "C"
        assert sublink.supertype == "A"


class TestIndicatorPolicy:
    def test_indicator_keeps_sublink(self):
        schema = subtype_schema()
        state = make_state(schema)
        fact = add_indicator_fact(state, "PP_IS_Paper", keep_sublink=True)
        assert state.schema.has_sublink("PP_IS_Paper")
        assert state.schema.has_fact_type(fact)
        assert state.hints.indicator_sublinks["PP_IS_Paper"] == fact

    def test_indicator_population_maps(self):
        schema = subtype_schema()
        state = make_state(schema)
        fact = add_indicator_fact(state, "PP_IS_Paper", keep_sublink=True)
        population = Population(schema)
        population.add_fact("Paper_has_Paper_Id", "p1", "P1")
        population.add_instance("PP", "p1")
        population.add_fact("PP_has_PP_Id", "p1", "A1")
        population.add_fact("scheduled", "p1", 101)
        forward = state.to_canonical(population)
        assert ("p1", "Y") in forward.fact_instances(fact)
        assert state.from_canonical(forward) == population


class TestApplySublinkPolicies:
    def test_global_policy_with_override(self):
        b = SchemaBuilder("s")
        b.nolot("Paper").nolot("A").nolot("B").lot("Paper_Id", char(6))
        b.lot_nolot("V", char(5))
        b.identifier("Paper", "Paper_Id")
        b.subtype("A", "Paper").subtype("B", "Paper")
        b.attribute("A", "V", fact="af", total=True)
        b.attribute("B", "V", fact="bf", total=True)
        schema = b.build()
        state = make_state(
            schema,
            MappingOptions(
                sublink_policy=SublinkPolicy.TOGETHER,
                sublink_overrides=(("B_IS_Paper", SublinkPolicy.SEPARATE),),
            ),
        )
        apply_sublink_policies(state)
        assert not state.schema.has_sublink("A_IS_Paper")  # eliminated
        assert state.schema.has_sublink("B_IS_Paper")  # kept

    def test_deepest_first_elimination(self):
        b = SchemaBuilder("s")
        b.nolot("A").nolot("B").nolot("C")
        b.lot("AK", char(3)).lot_nolot("V", char(3))
        b.identifier("A", "AK")
        b.subtype("B", "A").subtype("C", "B")
        b.attribute("B", "V", fact="bf", total=True)
        b.attribute("C", "V", fact="cf", total=True)
        state = make_state(
            b.build(), MappingOptions(sublink_policy=SublinkPolicy.TOGETHER)
        )
        apply_sublink_policies(state)
        assert not state.schema.sublinks
        assert state.schema.fact_type("cf").first.player == "A"
