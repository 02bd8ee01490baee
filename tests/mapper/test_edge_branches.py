"""Edge-branch tests: degraded constraints, infeasible candidates,
multi-item view constraints, collision handling."""

from repro.brm import Population, SchemaBuilder, char, numeric
from repro.cris import figure6_schema
from repro.mapper import (
    MappingOptions,
    NullPolicy,
    OptionSpace,
    SublinkPolicy,
    advise,
    map_schema,
)
from repro.mapper.advisor import ScoreWeights
from repro.relational import EqualityViewConstraint
from repro.workloads.statistics import QueryPattern, WorkloadProfile


class TestDegradedConstraints:
    def test_three_way_equality_across_relations(self):
        b = SchemaBuilder("s")
        b.nolot("P").lot("K", char(3))
        b.identifier("P", "K")
        b.lot_nolot("A", char(3)).lot_nolot("B", char(3)).lot_nolot("C", char(3))
        b.attribute("P", "A", fact="fa")
        b.attribute("P", "B", fact="fb")
        b.attribute("P", "C", fact="fc")
        b.equality(("fa", "with"), ("fb", "with"), ("fc", "with"))
        result = map_schema(
            b.build(), MappingOptions(null_policy=NullPolicy.NOT_ALLOWED)
        )
        views = [
            c
            for c in result.relational.view_constraints()
            if isinstance(c, EqualityViewConstraint)
        ]
        # Three equal populations in three satellites need two pairwise
        # equality views.
        assert len(views) == 2

    def test_three_way_equality_round_trip(self):
        b = SchemaBuilder("s")
        b.nolot("P").lot("K", char(3))
        b.identifier("P", "K")
        b.lot_nolot("A", char(3)).lot_nolot("B", char(3))
        b.attribute("P", "A", fact="fa")
        b.attribute("P", "B", fact="fb")
        b.equality(("fa", "with"), ("fb", "with"))
        schema = b.build()
        population = Population(schema)
        population.add_fact("P_has_K", "p1", "K1")
        population.add_fact("fa", "p1", "a")
        population.add_fact("fb", "p1", "b")
        population.add_fact("P_has_K", "p2", "K2")
        result = map_schema(
            schema, MappingOptions(null_policy=NullPolicy.NOT_ALLOWED)
        )
        canonical = result.canonicalize(result.state.to_canonical(population))
        database = result.state_map.forward(canonical)
        assert database.is_valid()
        assert result.state_map.backward(database) == canonical

    def test_external_uniqueness_across_relations_is_pseudo(self):
        b = SchemaBuilder("s")
        b.nolot("P").lot("K", char(3))
        b.identifier("P", "K")
        b.lot_nolot("A", char(3)).lot_nolot("B", char(3))
        b.attribute("P", "A", fact="fa")
        b.attribute("P", "B", fact="fb")
        b.unique(("fa", "of"), ("fb", "of"), name="EXT")
        result = map_schema(
            b.build(), MappingOptions(null_policy=NullPolicy.NOT_ALLOWED)
        )
        assert any(
            "external uniqueness" in p.text for p in result.pseudo_constraints
        )

    def test_external_uniqueness_same_relation_becomes_candidate_key(self):
        b = SchemaBuilder("s")
        b.nolot("P").lot("K", char(3))
        b.identifier("P", "K")
        b.lot_nolot("A", char(3)).lot_nolot("B", char(3))
        b.attribute("P", "A", fact="fa", total=True)
        b.attribute("P", "B", fact="fb", total=True)
        b.unique(("fa", "of"), ("fb", "of"), name="EXT")
        result = map_schema(b.build())
        candidates = result.relational.candidate_keys("P")
        assert ("A_of", "B_of") in [c.columns for c in candidates]


class TestColumnCollisions:
    def test_two_facts_to_same_target_disambiguated(self):
        b = SchemaBuilder("s")
        b.nolot("P").lot("K", char(3)).lot_nolot("Person", char(30))
        b.identifier("P", "K")
        b.attribute("P", "Person", fact="author")
        b.attribute("P", "Person", fact="editor")
        result = map_schema(b.build())
        names = result.relational.relation("P").attribute_names
        # Both columns land; the second gets a numeric suffix.
        person_columns = [n for n in names if n.startswith("Person_of")]
        assert len(person_columns) == 2
        assert len(set(person_columns)) == 2

    def test_collision_round_trip(self):
        b = SchemaBuilder("s")
        b.nolot("P").lot("K", char(3)).lot_nolot("Person", char(30))
        b.identifier("P", "K")
        b.attribute("P", "Person", fact="author")
        b.attribute("P", "Person", fact="editor")
        schema = b.build()
        population = Population(schema)
        population.add_fact("P_has_K", "p1", "K1")
        population.add_fact("author", "p1", "Ann")
        population.add_fact("editor", "p1", "Bob")
        result = map_schema(schema)
        canonical = result.canonicalize(result.state.to_canonical(population))
        database = result.state_map.forward(canonical)
        back = result.state_map.backward(database)
        assert back == canonical


class TestExpertEdgeCases:
    def test_infeasible_candidate_reported_not_raised(self):
        profile = WorkloadProfile(
            queries=(QueryPattern("Paper", ("no_such_fact",)),)
        )
        report = advise(
            figure6_schema(),
            OptionSpace(null_policies=(), sublink_policies=()),
            workers=1,
            profile=profile,
        )
        (outcome,) = report.ranked
        assert outcome.failed
        assert outcome.options == MappingOptions().canonical()
        assert "no_such_fact" in (outcome.error or "")

    def test_all_infeasible_has_no_winner(self):
        profile = WorkloadProfile(
            queries=(QueryPattern("Paper", ("no_such_fact",)),)
        )
        report = advise(figure6_schema(), workers=1, profile=profile)
        assert report.winner is None
        assert report.ranked
        assert report.failures == report.ranked
        assert report.render().endswith("winner: none (all candidates failed)")

    def test_render_marks_infeasible(self):
        """A pattern on the ``Program_Paper`` subtype needs its own
        relation: every TOGETHER candidate eliminates it and fails.
        Priced on fetch pages alone over flat row counts, the default
        design wins among the rest."""
        profile = WorkloadProfile(
            default_instances=100_000,
            optional_fill=1.0,
            fact_fanout=1.0,
            queries=(QueryPattern("Program_Paper", ("scheduled",)),),
        )
        report = advise(
            figure6_schema(),
            workers=1,
            profile=profile,
            weights=ScoreWeights(tables=0.0, storage=0.0, null_exposure=0.0),
        )
        failed = [
            o
            for o in report.ranked
            if o.options.sublink_policy is SublinkPolicy.TOGETHER
        ]
        assert len(failed) == 3
        assert report.failures == tuple(failed)
        assert all("no anchor relation" in o.error for o in failed)
        assert report.ranked[-len(failed):] == tuple(failed)
        rows = report.render().splitlines()[2:-1]
        assert len(rows) == len(report.ranked)
        assert [row.split()[1] == "FAILED" for row in rows] == [
            o.failed for o in report.ranked
        ]
        for row, outcome in zip(rows, report.ranked):
            if outcome.failed:
                assert "no anchor relation" in row
        assert report.winner.label == "DEFAULT SEPARATE"
