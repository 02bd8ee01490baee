"""Tests for the conceptual query compiler and for pricing query
workloads in the option advisor (the concluding remarks' expert
rules)."""

import pytest

from repro.cris import cris_schema, figure6_population, figure6_schema
from repro.engine.cost import TableStatistics
from repro.errors import MappingError
from repro.mapper import (
    MappingOptions,
    NullPolicy,
    SublinkPolicy,
    advise,
    discover_space,
    enumerate_options,
    map_schema,
)
from repro.mapper.advisor import ScoreWeights, score_plan
from repro.ridl import (
    ConceptualQuery,
    FactSelection,
    QueryCompiler,
    SubtypeFilter,
    ValueFilter,
)
from repro.workloads.statistics import QueryPattern, WorkloadProfile
from tests.oracles.mapper import materialized_workload_cost

ALL_OPTIONS = [
    ("alt1", MappingOptions()),
    ("alt2", MappingOptions(null_policy=NullPolicy.NOT_ALLOWED)),
    ("indicator", MappingOptions(sublink_policy=SublinkPolicy.INDICATOR)),
    ("alt4", MappingOptions(sublink_policy=SublinkPolicy.TOGETHER)),
]


@pytest.fixture(scope="module")
def schema():
    return figure6_schema()


@pytest.fixture(scope="module")
def population(schema):
    return figure6_population(schema)


class TestCompilation:
    def test_anchor_only_query(self, schema, population):
        result = map_schema(schema)
        compiler = QueryCompiler(result)
        compiled = compiler.compile(
            ConceptualQuery(
                "Paper",
                selections=(FactSelection("Paper_has_Title", optional=False),),
            )
        )
        assert compiled.relations_touched == ["Paper"]
        assert "SELECT Paper_Id, Title_of" in compiled.sql_text()

    def test_subtype_fact_joins_through_sublink_attribute(self, schema):
        result = map_schema(schema)
        compiler = QueryCompiler(result)
        compiled = compiler.compile(
            ConceptualQuery("Paper", selections=(FactSelection("scheduled"),))
        )
        assert compiled.relations_touched == ["Paper", "Program_Paper"]
        # The join goes through the `_Is` sublink attribute, exactly
        # as the map report prescribes.
        assert compiled.steps[0].join_on == (
            ("Paper_ProgramId_Is", "Paper_ProgramId"),
        )

    def test_unknown_fact_rejected(self, schema):
        compiler = QueryCompiler(map_schema(schema))
        with pytest.raises(MappingError):
            compiler.compile(
                ConceptualQuery("Paper", selections=(FactSelection("nope"),))
            )

    def test_unrelated_fact_rejected(self, schema):
        compiler = QueryCompiler(map_schema(schema))
        with pytest.raises(MappingError):
            compiler.compile(
                ConceptualQuery(
                    "Session", selections=(FactSelection("Paper_has_Title"),)
                )
            )

    def test_unanchored_type_rejected(self, schema):
        compiler = QueryCompiler(map_schema(schema))
        with pytest.raises(MappingError):
            compiler.compile(ConceptualQuery("Person"))

    def test_omitted_fact_rejected(self, schema):
        result = map_schema(
            schema, MappingOptions(omit_tables=("Invited_Paper",))
        )
        compiler = QueryCompiler(result)
        # Invited_Paper had no facts; but querying for a fact whose
        # table was omitted must fail loudly, so omit a satellite.
        result2 = map_schema(
            schema,
            MappingOptions(
                null_policy=NullPolicy.NOT_ALLOWED,
                omit_tables=("Paper_submission",),
            ),
        )
        compiler2 = QueryCompiler(result2)
        with pytest.raises(MappingError):
            compiler2.compile(
                ConceptualQuery(
                    "Paper", selections=(FactSelection("submission"),)
                )
            )


class TestExecution:
    @pytest.mark.parametrize("label,options", ALL_OPTIONS)
    def test_same_answers_under_every_physical_design(
        self, schema, population, label, options
    ):
        """One conceptual query; four physical designs; one answer."""
        result = map_schema(schema, options)
        database = result.forward(population)
        compiler = QueryCompiler(result)
        compiled = compiler.compile(
            ConceptualQuery(
                "Paper",
                selections=(
                    FactSelection("Paper_has_Title", optional=False),
                    FactSelection("submission"),
                    FactSelection("scheduled"),
                ),
            )
        )
        answers = {
            (row["Paper"], row["Paper_has_Title"], row["submission"],
             row["scheduled"])
            for row in compiler.execute(compiled, database)
        }
        assert answers == {
            ("P1", "On Conference Databases", "1988-10-01", 101),
            ("P2", "Binary Models Revisited", None, 102),
            ("P3", "A Late Submission", "1988-12-24", None),
        }

    @pytest.mark.parametrize("label,options", ALL_OPTIONS)
    def test_subtype_filter_under_every_design(
        self, schema, population, label, options
    ):
        result = map_schema(schema, options)
        database = result.forward(population)
        compiler = QueryCompiler(result)
        compiled = compiler.compile(
            ConceptualQuery(
                "Paper",
                selections=(FactSelection("Paper_has_Title", optional=False),),
                filters=(SubtypeFilter("Invited_Paper"),),
            )
        )
        answers = compiler.execute(compiled, database)
        assert [row["Paper"] for row in answers] == ["P1"]

    def test_value_filter(self, schema, population):
        result = map_schema(schema)
        database = result.forward(population)
        compiler = QueryCompiler(result)
        compiled = compiler.compile(
            ConceptualQuery(
                "Paper",
                selections=(FactSelection("Paper_has_Title", optional=False),),
                filters=(ValueFilter("Paper_has_Title",
                                     "Binary Models Revisited"),),
            )
        )
        answers = compiler.execute(compiled, database)
        assert [row["Paper"] for row in answers] == ["P2"]

    def test_mandatory_selection_drops_lacking_instances(
        self, schema, population
    ):
        result = map_schema(schema)
        database = result.forward(population)
        compiler = QueryCompiler(result)
        compiled = compiler.compile(
            ConceptualQuery(
                "Paper",
                selections=(FactSelection("scheduled", optional=False),),
            )
        )
        answers = compiler.execute(compiled, database)
        assert {row["Paper"] for row in answers} == {"P1", "P2"}


def flat_profile(queries):
    """100,000 rows in every relation: the cost model's flat
    ``TableStatistics(default_rows=100_000)``, estimated from plans."""
    return WorkloadProfile(
        default_instances=100_000,
        optional_fill=1.0,
        fact_fanout=1.0,
        queries=queries,
    )


#: Weights under which a candidate's total is its fetch pages alone.
FETCH_ONLY = ScoreWeights(tables=0.0, storage=0.0, null_exposure=0.0)

HOT = (
    QueryPattern(
        "Paper",
        ("Paper_has_Title", "submission", "presents", "scheduled"),
        frequency=100.0,
    ),
)
COLD = (QueryPattern("Paper", ("Paper_has_Title",), frequency=1.0),)

#: Query workloads over figure 6: co-access heavy, the ablation
#: benchmark's, title only, the example's tracker, and one that only
#: a design keeping ``Program_Paper`` as its own relation can answer.
FIG6_WORKLOADS = {
    "hot": HOT,
    "bench": HOT
    + (QueryPattern("Paper", ("Paper_has_Title",), frequency=10.0),),
    "cold": COLD,
    "tracker": (
        QueryPattern("Paper", ("Paper_has_Title",), frequency=50.0),
        QueryPattern(
            "Paper", ("Paper_has_Title", "submission"), frequency=10.0
        ),
    ),
    "program-paper": (
        QueryPattern("Program_Paper", ("scheduled",), frequency=1.0),
    ),
}

#: Query workloads over CRIS, on its own facts.
CRIS_WORKLOADS = {
    "papers": (
        QueryPattern(
            "Paper", ("Paper_has_Title", "authorship"), frequency=20.0
        ),
        QueryPattern("Person", ("affiliation",), frequency=3.0),
    ),
    "programme": (
        QueryPattern("Program_Paper", ("program_slot",), frequency=5.0),
        QueryPattern("Session", ("session_room",), frequency=2.0),
    ),
}


def recommend(schema, queries):
    return advise(
        schema, workers=1, profile=flat_profile(queries), weights=FETCH_ONLY
    )


class TestExpertRules:
    def test_hot_co_access_recommends_denormalization(self, schema):
        report = recommend(schema, HOT)
        assert report.winner.options.sublink_policy is SublinkPolicy.TOGETHER
        by_label = {o.label: o.score for o in report.ranked}
        assert report.winner.score.entity_fetch_pages == 400
        assert by_label["DEFAULT SEPARATE"].entity_fetch_pages == 800
        assert (
            by_label["NOT_ALLOWED SEPARATE"].entity_fetch_pages
            > by_label["DEFAULT SEPARATE"].entity_fetch_pages
        )

    def test_benchmark_workload_recommends_denormalization(self, schema):
        report = recommend(schema, FIG6_WORKLOADS["bench"])
        assert report.winner.options.sublink_policy is SublinkPolicy.TOGETHER
        assert report.winner.score.entity_fetch_pages == 440

    def test_cold_workload_keeps_default(self, schema):
        report = recommend(schema, COLD)
        assert report.winner_options == MappingOptions().canonical()
        assert report.winner.label == "DEFAULT SEPARATE"

    @pytest.mark.parametrize("workload", ["tracker", "program-paper"])
    def test_workload_that_does_not_pay_keeps_default(self, schema, workload):
        report = recommend(schema, FIG6_WORKLOADS[workload])
        assert report.winner_options == MappingOptions().canonical()

    def test_render_lists_all_candidates(self, schema):
        report = recommend(schema, HOT)
        rendered = report.render()
        assert rendered.endswith(f"winner: {report.winner.label}")
        for outcome in report.ranked:
            assert outcome.label in rendered

    def test_recommended_options_actually_map(self, schema):
        report = recommend(schema, HOT)
        result = map_schema(schema, report.winner_options)
        assert result.relational.relations

    def test_serial_and_parallel_reports_identical(self, schema):
        profile = flat_profile(FIG6_WORKLOADS["program-paper"] + HOT)
        serial = advise(schema, workers=1, profile=profile)
        parallel = advise(schema, workers=2, profile=profile)
        assert serial.failures
        assert serial.to_json() == parallel.to_json()

    def test_empty_workload_prices_every_owner(self, schema):
        """No query workload: every object type is fetched with the
        facts of all the relations it owns.  Figure 6's default design
        has three owned relations of 10,000 rows, each read through two
        uncached index levels and one heap page."""
        score = score_plan(map_schema(schema).plan, WorkloadProfile())
        assert score.entity_fetch_pages == 9
        assert isinstance(score.entity_fetch_pages, int)


class TestWorkloadPricingOracle:
    """Plan-level pricing equals the expert recommender's pricing of
    the materialized design, candidate for candidate."""

    @pytest.mark.parametrize(
        "schema_factory,workloads",
        [(figure6_schema, FIG6_WORKLOADS), (cris_schema, CRIS_WORKLOADS)],
        ids=["fig6", "cris"],
    )
    def test_plan_prices_equal_materialized_prices(
        self, schema_factory, workloads
    ):
        schema = schema_factory()
        candidates = enumerate_options(discover_space(schema))
        statistics = TableStatistics(default_rows=100_000)
        failures = 0
        for name, queries in workloads.items():
            report = recommend(schema, queries)
            assert len(report.ranked) == len(candidates)
            by_options = {o.options: o for o in report.ranked}
            for options in candidates:
                outcome = by_options[options]
                try:
                    expected = materialized_workload_cost(
                        schema, options, queries, statistics
                    )
                except MappingError as exc:
                    assert outcome.failed, (name, outcome.label)
                    assert str(exc) in outcome.error, (name, outcome.label)
                    failures += 1
                    continue
                assert not outcome.failed, (name, outcome.label)
                assert outcome.score.entity_fetch_pages == expected, (
                    name,
                    outcome.label,
                )
                assert outcome.score.total == expected
        assert failures > 0
