"""Tests for populations as models of a binary schema."""

import pickle

import pytest

from repro.brm import Population, RoleId, SchemaBuilder, SublinkRef, char, numeric
from repro.brm.population import _EMPTY
from repro.errors import PopulationError
from repro.workloads import SchemaShape, generate_population, generate_schema


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
        # Bypass propagation deliberately (a fresh set: the empty one
        # is shared and frozen).
        pop._objects["B"] = {pop.intern("x")}
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

    def test_skipping_empty_sets_matches_the_unskipped_loop(self, schema):
        pop = Population(schema)
        pop.add_fact("has_id", "p1", "ID1")  # Session, scheduled stay empty
        cases = [(pop, _eliminated_schema()), (pop, schema)]
        shape = SchemaShape(entity_types=6, subtype_ratio=0.4)
        for seed in range(4):
            generated = generate_schema(shape, seed)
            full = generate_population(generated, instances_per_type=3, seed=seed)
            partial = Population(generated)
            for index, fact in enumerate(generated.fact_types):
                if index % 2:  # every other fact, and its players, stays empty
                    partial.add_facts(fact.name, full.fact_instances(fact.name))
            cases += [(full, generated), (partial, generated)]
        for source, target in cases:
            assert any(not ids for ids in source._objects.values())
            projected = source.project(target)
            unskipped = Population(target)
            unskipped.seed_intern_from(source)
            for name, members in source._objects.items():
                if name in unskipped._objects:
                    unskipped.add_instance_ids(name, members)
            for name, id_pairs in source._pairs.items():
                if name in unskipped._pairs:
                    unskipped.add_pair_ids(name, id_pairs)
            assert projected == unskipped
            assert projected.as_dict() == unskipped.as_dict()
            assert projected._values == unskipped._values
            assert projected._version == unskipped._version
            assert projected._type_versions == unskipped._type_versions

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


def _stored_sets(*populations):
    """Every set the populations store, object types and fact types."""
    return [
        members
        for population in populations
        for table in (population._objects, population._pairs)
        for members in table.values()
    ]


class TestSharedEmptySet:
    """Unpopulated names share one frozen empty set; writers store sets
    of their own."""

    def test_a_new_population_holds_no_mutable_set(self, schema):
        generated = generate_schema(SchemaShape(entity_types=6), seed=3)
        for pop in (Population(schema), Population(generated)):
            stored = _stored_sets(pop)
            assert len(stored) == len(pop.schema.object_types) + len(
                pop.schema.fact_types
            )
            assert all(members is _EMPTY for members in stored)
            assert pop.is_empty()
            assert pop.copy()._objects == pop._objects
            assert all(m is _EMPTY for m in _stored_sets(pop.copy()))
        assert Population(schema).instance_ids("Paper") is _EMPTY
        assert Population(schema).pair_ids("scheduled") is _EMPTY

    def test_writers_never_mutate_or_share_a_set(self, schema):
        first, second = Population(schema), Population(schema)
        for pop in (first, second):
            pop.add_fact("scheduled", "p1", 7)
            pop.add_instance("Paper", "p2")
            pop.add_instance_ids("Session", {pop.intern(8)})
            pop.add_pair_ids("has_id", [(pop.intern("p2"), pop.intern("ID2"))])
        first.remove_fact("has_id", "p2", "ID2")
        first.discard_instance("Paper", "p1")  # and from Program_Paper
        second.discard_instance("Paper", "p2")  # Program_Paper lacks it
        lone = Population(schema)
        lone.add_instance("Paper", "p5")
        lone.discard_instance("Paper", "p5")  # Program_Paper unpopulated
        assert lone.instance_ids("Program_Paper") is _EMPTY
        with pytest.raises(PopulationError):  # an unpopulated fact type
            Population(schema).remove_fact("has_id", "p1", "ID1")
        copies = [first.copy(), second.copy()]
        projections = [first.project(schema), second.project(_eliminated_schema())]
        copies[0].add_instance("Session", 9)
        projections[0].add_fact("has_id", "p3", "ID3")
        everything = [first, second, lone, *copies, *projections]
        assert _EMPTY == frozenset() and not _EMPTY
        stored = _stored_sets(*everything)
        mutable = [members for members in stored if type(members) is set]
        assert len({id(members) for members in mutable}) == len(mutable)
        # A frozenset in the tables is only ever the empty one.
        assert all(
            members is _EMPTY for members in stored if type(members) is not set
        )
        assert first.instances("Paper") == {"p2"}
        assert first.instances("Program_Paper") == frozenset()
        assert first.fact_instances("has_id") == frozenset()
        assert second.instances("Paper") == {"p1"}
        assert copies[0].instances("Session") == {7, 8, 9}
        assert first.instances("Session") == {7, 8}
        assert projections[0].fact_instances("has_id") == {("p3", "ID3")}

    def test_an_added_set_is_copied_not_adopted(self, schema):
        pop = Population(schema)
        ids = {pop.intern("p1"), pop.intern("p2")}
        pop.add_instance_ids("Program_Paper", ids)
        for name in ("Program_Paper", "Paper"):
            assert pop.instance_ids(name) is not ids
            assert pop.instance_ids(name) == ids
        assert pop.instance_ids("Program_Paper") is not pop.instance_ids("Paper")
        ids.add(pop.intern("p3"))
        assert pop.instances("Program_Paper") == {"p1", "p2"}
        assert pop.instances("Paper") == {"p1", "p2"}

    def test_an_add_that_changes_nothing_keeps_the_sorted_ids(self, schema):
        pop = Population(schema)
        pop.add_instance_ids("Session", set())
        assert pop.instance_ids("Session") is _EMPTY
        assert "Session" not in pop._type_versions
        pop.add_fact("scheduled", "p1", 7)
        sessions, papers = pop.ordered_ids("Session"), pop.ordered_ids("Paper")
        versions = dict(pop._type_versions)
        pop.add_instance_ids("Session", {pop.id_of(7)})
        pop.add_instance("Program_Paper", "p1")
        assert pop._type_versions == versions
        assert pop.ordered_ids("Session") is sessions
        assert pop.ordered_ids("Paper") is papers

    def test_pickling_round_trips(self, schema):
        pop = Population(schema)
        pop.add_fact("scheduled", "p1", 7)
        restored = pickle.loads(pickle.dumps(pop))
        assert restored == pop
        assert restored.as_dict() == pop.as_dict()
        # An unpickled population's empty sets are copies of _EMPTY; its
        # writers still store sets of their own.
        restored.add_fact("has_id", "p1", "ID1")
        restored.add_instance("Program_Paper", "p2")
        restored.remove_fact("scheduled", "p1", 7)
        assert restored.fact_instances("has_id") == {("p1", "ID1")}
        assert restored.instances("Paper") == {"p1", "p2"}
        assert pop.fact_instances("has_id") == frozenset()
        assert pop.fact_instances("scheduled") == {("p1", 7)}
        assert pickle.loads(pickle.dumps(restored)) == restored


FLAGS_SCHEMA = """schema Flags
lot Code : char(1)
lot Flag : boolean
lot Count : integer
nolot Thing
identifier Thing by Code
attribute Thing has Flag [total]
attribute Thing has Count [total]
constraint values Flag : true, false
"""


class TestInterningByType:
    """``True == 1 == 1.0`` in Python, but they are different instances."""

    def test_equal_values_of_different_types_get_different_ids(self, schema):
        pop = Population(schema)
        values = [True, 1, 1.0, False, 0, (1, "a"), (True, "a"), "1"]
        ids = [pop.intern(value) for value in values]
        assert len(set(ids)) == len(values)
        for value, interned in zip(values, ids):
            assert type(pop.value(interned)) is type(value)
            assert pop.id_of(value) == interned
        assert pop.intern_all(values) == ids
        fresh = Population(schema)
        assert fresh.intern_all(values) == list(range(len(values)))
        assert fresh._intern == pop._intern

    def test_state_diff_tells_a_boolean_from_an_integer(self, schema):
        flags, counts = Population(schema), Population(schema)
        flags.add_instance("Session", True)
        counts.add_instance("Session", 1)
        assert flags.state_diff(counts) == {"Session": 2}
        assert flags != counts
        counts.discard_instance("Session", 1)
        counts.add_instance("Session", True)
        assert flags == counts

    def test_forward_keeps_a_boolean_and_an_integer_apart(self):
        from repro.dsl import parse
        from repro.mapper import map_schema

        flags = parse(FLAGS_SCHEMA)
        pop = Population(flags)
        pop.add_fact("Thing_has_Code", "A", "A")
        pop.add_fact("Thing_has_Flag", "A", True)
        pop.add_fact("Thing_has_Count", "A", 1)
        assert pop.facts_of("Thing_has_Count", "with", "A") == {1}
        state_map = map_schema(flags).state_map
        database = state_map.forward(pop)
        (row,) = database.iter_rows("Thing")
        assert type(row["Flag_of"]) is bool and type(row["Count_of"]) is int
        assert row == {"Code": "A", "Flag_of": True, "Count_of": 1}
        assert state_map.backward(database) == pop

    def test_value_constraint_does_not_admit_an_integer_boolean(self):
        from repro.dsl import parse

        pop = Population(parse(FLAGS_SCHEMA))
        pop.add_fact("Thing_has_Code", "B", "B")
        pop.add_fact("Thing_has_Flag", "B", 1)
        pop.add_fact("Thing_has_Count", "B", 1)
        assert [v.message for v in pop.check()] == [
            "instance 1 of 'Flag' is not among the allowed values"
        ]
