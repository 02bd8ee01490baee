"""Tests for populations as models of a binary schema."""

import pytest

from repro.brm import Population, RoleId, SchemaBuilder, SublinkRef, char, numeric
from repro.errors import PopulationError


@pytest.fixture
def schema():
    b = SchemaBuilder("conf")
    b.nolot("Paper").nolot("Program_Paper")
    b.lot("Paper_Id", char(6)).lot_nolot("Session", numeric(3))
    b.identifier("Paper", "Paper_Id", fact="has_id")
    b.subtype("Program_Paper", "Paper")
    b.fact(
        "scheduled",
        ("Program_Paper", "presented_during"),
        ("Session", "comprising"),
        unique="first",
        total="first",
    )
    return b.build()


class TestConstruction:
    def test_add_instance_propagates_to_supertypes(self, schema):
        pop = Population(schema)
        pop.add_instance("Program_Paper", "p1")
        assert "p1" in pop.instances("Paper")

    def test_add_fact_adds_players(self, schema):
        pop = Population(schema)
        pop.add_fact("scheduled", "p1", 12)
        assert "p1" in pop.instances("Program_Paper")
        assert "p1" in pop.instances("Paper")
        assert 12 in pop.instances("Session")

    def test_unknown_type_rejected(self, schema):
        pop = Population(schema)
        with pytest.raises(PopulationError):
            pop.add_instance("Nope", "x")

    def test_unknown_fact_rejected(self, schema):
        pop = Population(schema)
        with pytest.raises(PopulationError):
            pop.add_fact("nope", "a", "b")

    def test_remove_fact(self, schema):
        pop = Population(schema)
        pop.add_fact("scheduled", "p1", 12)
        pop.remove_fact("scheduled", "p1", 12)
        assert not pop.fact_instances("scheduled")
        with pytest.raises(PopulationError):
            pop.remove_fact("scheduled", "p1", 12)


class TestAccess:
    def test_role_population(self, schema):
        pop = Population(schema)
        pop.add_fact("scheduled", "p1", 12)
        pop.add_fact("scheduled", "p2", 12)
        assert pop.role_population(RoleId("scheduled", "presented_during")) == {
            "p1",
            "p2",
        }
        assert pop.role_population(RoleId("scheduled", "comprising")) == {12}

    def test_role_occurrences(self, schema):
        pop = Population(schema)
        pop.add_fact("scheduled", "p1", 12)
        pop.add_fact("scheduled", "p2", 12)
        occurrences = pop.role_occurrences(RoleId("scheduled", "comprising"))
        assert occurrences == {12: 2}

    def test_item_population_for_sublink(self, schema):
        pop = Population(schema)
        pop.add_instance("Program_Paper", "p1")
        pop.add_instance("Paper", "p2")
        assert pop.item_population(SublinkRef("Program_Paper_IS_Paper")) == {"p1"}

    def test_facts_of(self, schema):
        pop = Population(schema)
        pop.add_fact("scheduled", "p1", 12)
        assert pop.facts_of("scheduled", "presented_during", "p1") == {12}
        assert pop.facts_of("scheduled", "comprising", 12) == {"p1"}

    def test_is_empty(self, schema):
        pop = Population(schema)
        assert pop.is_empty()
        pop.add_instance("Paper", "p")
        assert not pop.is_empty()

    def test_values_of_passes_none_through(self, schema):
        pop = Population(schema)
        ids = pop.intern_all(["p1", "p2"])
        assert pop.values_of(ids[::-1]) == ["p2", "p1"]
        assert pop.values_of((ids[0], None)) == ["p1", None]

    def test_ordered_ids_stay_cached_until_the_type_grows(self, schema):
        pop = Population(schema)
        pop.add_facts("scheduled", [("p2", 12), ("p1", 13)])
        papers = pop.ordered_ids("Paper")
        assert pop.values_of(papers) == ["p1", "p2"]
        # Re-adding members of Paper (through its subtype) leaves its
        # id set, and so its sorted ids, as they were.
        pop.add_facts("scheduled", [("p1", 12)])
        pop.add_instance("Program_Paper", "p2")
        assert pop.ordered_ids("Paper") is papers
        pop.add_facts("scheduled", [("p0", 12)])
        grown = pop.ordered_ids("Paper")
        assert grown is not papers
        assert pop.values_of(grown) == ["p0", "p1", "p2"]


class TestConstraintChecking:
    def _valid_pop(self, schema):
        pop = Population(schema)
        pop.add_fact("has_id", "p1", "ID1")
        pop.add_fact("has_id", "p2", "ID2")
        pop.add_instance("Program_Paper", "p1")
        pop.add_fact("scheduled", "p1", 12)
        return pop

    def test_valid_population(self, schema):
        assert self._valid_pop(schema).is_valid()

    def test_uniqueness_violation(self, schema):
        pop = self._valid_pop(schema)
        pop.add_fact("has_id", "p1", "ID9")  # p1 now has two ids
        rules = {v.rule for v in pop.check()}
        assert any(rule.startswith("U") for rule in rules)

    def test_lot_side_uniqueness_violation(self, schema):
        pop = self._valid_pop(schema)
        pop.add_fact("has_id", "p3", "ID1")  # ID1 names two papers
        # p3 is not a Program_Paper, so totality on scheduled is fine,
        # but the id must still be violated.
        assert not pop.is_valid()

    def test_total_role_violation(self, schema):
        pop = self._valid_pop(schema)
        pop.add_instance("Program_Paper", "p2")  # p2 never scheduled
        messages = [str(v) for v in pop.check()]
        assert any("plays none of the required roles" in m for m in messages)

    def test_validate_raises_with_summary(self, schema):
        pop = Population(schema)
        pop.add_instance("Paper", "p1")  # no id -> total role violated
        with pytest.raises(PopulationError):
            pop.validate()


class TestSetAlgebraicChecking:
    @pytest.fixture
    def schema(self):
        b = SchemaBuilder("s")
        b.nolot("Paper").nolot("Invited").nolot("Rejected")
        b.subtype("Invited", "Paper").subtype("Rejected", "Paper")
        b.exclusion(SublinkRef("Invited_IS_Paper"), SublinkRef("Rejected_IS_Paper"))
        return b.build()

    def test_exclusion_between_subtypes(self, schema):
        pop = Population(schema)
        pop.add_instance("Invited", "p1")
        pop.add_instance("Rejected", "p1")
        assert any("mutually exclusive" in str(v) for v in pop.check())

    def test_disjoint_subtypes_are_fine(self, schema):
        pop = Population(schema)
        pop.add_instance("Invited", "p1")
        pop.add_instance("Rejected", "p2")
        assert pop.is_valid()

    def test_subset_constraint(self):
        b = SchemaBuilder("s")
        b.nolot("Person").lot("Name", char(20)).lot("Nick", char(20))
        b.attribute("Person", "Name", fact="named")
        b.attribute("Person", "Nick", fact="nicked")
        b.subset(("nicked", "with"), ("named", "with"))
        schema = b.build()
        pop = Population(schema)
        pop.add_fact("nicked", "x", "shorty")
        assert any("populates" in str(v) for v in pop.check())
        pop.add_fact("named", "x", "Alexander")
        assert pop.is_valid()

    def test_equality_constraint(self):
        b = SchemaBuilder("s")
        b.nolot("PP").lot_nolot("Session", numeric(3)).lot_nolot("Person", char(30))
        b.attribute("PP", "Session", fact="during")
        b.attribute("PP", "Person", fact="by")
        b.equality(("during", "with"), ("by", "with"))
        schema = b.build()
        pop = Population(schema)
        pop.add_fact("during", "p1", 1)
        assert not pop.is_valid()
        pop.add_fact("by", "p1", "Alice")
        assert pop.is_valid()

    def test_conformance_detects_stray_subtype_member(self):
        b = SchemaBuilder("s")
        b.nolot("A").nolot("B")
        b.subtype("B", "A")
        schema = b.build()
        pop = Population(schema)
        # Bypass propagation deliberately.
        pop._objects["B"].add(pop.intern("x"))
        assert any(v.rule == "conformance" for v in pop.check())


class TestFrequencyAndExternalUniqueness:
    def test_frequency(self):
        b = SchemaBuilder("s")
        b.nolot("Committee").lot_nolot("Person", char(30))
        b.fact("member", ("Committee", "having"), ("Person", "serving_on"))
        b.frequency(("member", "having"), 2, 3)
        schema = b.build()
        pop = Population(schema)
        pop.add_fact("member", "c1", "alice")
        assert not pop.is_valid()  # only 1 member, needs 2..3
        pop.add_fact("member", "c1", "bob")
        assert pop.is_valid()
        for name in ("carol", "dave"):
            pop.add_fact("member", "c1", name)
        assert not pop.is_valid()  # 4 members

    def test_external_uniqueness(self):
        b = SchemaBuilder("s")
        b.nolot("Building").lot("Street", char(20)).lot("Nr", numeric(4))
        b.attribute("Building", "Street", fact="on", total=True)
        b.attribute("Building", "Nr", fact="at", total=True)
        b.unique(("on", "of"), ("at", "of"))
        schema = b.build()
        pop = Population(schema)
        pop.add_fact("on", "b1", "Main")
        pop.add_fact("at", "b1", 5)
        pop.add_fact("on", "b2", "Main")
        pop.add_fact("at", "b2", 7)
        assert pop.is_valid()
        pop.add_fact("on", "b3", "Main")
        pop.add_fact("at", "b3", 5)  # same (Main, 5) as b1
        assert any("identifies both" in str(v) for v in pop.check())


class TestWholePopulation:
    def test_copy_is_independent(self, schema):
        pop = Population(schema)
        pop.add_fact("has_id", "p1", "ID1")
        duplicate = pop.copy()
        duplicate.add_fact("has_id", "p2", "ID2")
        assert len(pop.fact_instances("has_id")) == 1
        assert len(duplicate.fact_instances("has_id")) == 2

    def test_equality(self, schema):
        pop1 = Population(schema)
        pop2 = Population(schema)
        pop1.add_fact("has_id", "p1", "ID1")
        pop2.add_fact("has_id", "p1", "ID1")
        assert pop1 == pop2
        pop2.add_instance("Paper", "p9")
        assert pop1 != pop2


def _eliminated_schema():
    """The ``schema`` fixture after Program_Paper is folded into Paper:
    the subtype is gone and its fact is re-played by the supertype."""
    b = SchemaBuilder("conf")
    b.nolot("Paper")
    b.lot("Paper_Id", char(6)).lot_nolot("Session", numeric(3))
    b.identifier("Paper", "Paper_Id", fact="has_id")
    b.fact(
        "scheduled",
        ("Paper", "presented_during"),
        ("Session", "comprising"),
        unique="first",
    )
    b.lot("Flag", char(1))
    return b.build()


def _by_value(population, schema):
    """The projection, value by value through the public mutators."""
    target = Population(schema)
    for object_type in schema.object_types:
        if population.schema.has_object_type(object_type.name):
            target.add_instances(
                object_type.name, population.instances(object_type.name)
            )
    for fact in schema.fact_types:
        if population.schema.has_fact_type(fact.name):
            target.add_facts(fact.name, population.fact_instances(fact.name))
    return target


class TestProject:
    def test_shared_names_keep_their_state_and_ids(self, schema):
        pop = Population(schema)
        pop.add_fact("has_id", "p1", "ID1")
        pop.add_fact("scheduled", "p2", 12)
        projected = pop.project(_eliminated_schema())
        assert projected.instances("Paper") == {"p1", "p2"}
        assert projected.fact_instances("has_id") == {("p1", "ID1")}
        assert projected.fact_instances("scheduled") == {("p2", 12)}
        for value in ("p1", "p2", "ID1", 12):
            assert projected.id_of(value) == pop.id_of(value)

    def test_names_only_one_schema_declares(self, schema):
        pop = Population(schema)
        pop.add_instance("Program_Paper", "p5")
        projected = pop.project(_eliminated_schema())
        # Source-only names are dropped, target-only ones start empty.
        assert "Program_Paper" not in projected.as_dict()["objects"]
        assert projected.instances("Paper") == {"p5"}
        assert projected.instances("Flag") == frozenset()
        back = projected.project(schema)
        assert back.instances("Program_Paper") == frozenset()
        assert back.instances("Paper") == {"p5"}

    def test_fillers_and_supertypes_propagate_under_the_target(self, schema):
        eliminated = Population(_eliminated_schema())
        eliminated.add_fact("scheduled", "p2", 12)
        eliminated.add_instance("Paper", "p3")
        restored = eliminated.project(schema)
        # ``scheduled`` is played by Program_Paper in the target: the
        # filler lands there and propagates to its supertype Paper.
        assert restored.instances("Program_Paper") == {"p2"}
        assert restored.instances("Paper") == {"p2", "p3"}
        assert restored == _by_value(eliminated, schema)
        pop = Population(schema)
        pop.add_fact("scheduled", "p1", 7)
        pop.add_fact("has_id", "p4", "ID4")
        assert pop.project(_eliminated_schema()) == _by_value(
            pop, _eliminated_schema()
        )

    def test_mutating_a_projection_leaves_the_source(self, schema):
        pop = Population(schema)
        pop.add_fact("scheduled", "p1", 7)
        before = pop.as_dict()
        projected = pop.project(schema)
        assert projected == pop
        projected.add_fact("scheduled", "p9", 8)
        projected.remove_fact("scheduled", "p1", 7)
        projected.discard_instance("Paper", "p1")
        assert pop.as_dict() == before
        assert pop.id_of("p9") is None
