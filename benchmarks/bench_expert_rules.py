"""Ablation: workload-driven option selection (concluding remarks).

DESIGN.md calls out the rule-driven option choice as the design
decision to ablate: does letting "query information steer the mapping
towards limited de-normalization" actually beat (a) the always-
normalize naive stance and (b) the fixed default options, under a
co-access-heavy workload?  The option advisor prices every candidate
of the discovered option space on the query workload, with 100,000
rows in every relation and the fetch pages as the whole score; the
I/O cost model then prices the mapped designs on the same workload.
"""

from conftest import emit
from repro.engine.cost import TableStatistics, entity_fetch_cost
from repro.mapper import MappingOptions, advise, map_schema
from repro.mapper.advisor import ScoreWeights
from repro.ridl import ConceptualQuery, FactSelection, QueryCompiler
from repro.workloads.statistics import QueryPattern, WorkloadProfile

STATISTICS = TableStatistics(default_rows=100_000)

QUERIES = (
    QueryPattern(
        "Paper",
        ("Paper_has_Title", "submission", "presents", "scheduled"),
        frequency=100.0,
    ),
    QueryPattern("Paper", ("Paper_has_Title",), frequency=10.0),
)

#: Weights under which a candidate's total is its fetch pages alone.
FETCH_ONLY = ScoreWeights(tables=0.0, storage=0.0, null_exposure=0.0)


def profile(queries):
    """``STATISTICS``' flat row counts, estimated from the plans."""
    return WorkloadProfile(
        default_instances=STATISTICS.default_rows,
        optional_fill=1.0,
        fact_fanout=1.0,
        queries=queries,
    )


def recommend(schema, queries):
    return advise(
        schema, workers=1, profile=profile(queries), weights=FETCH_ONLY
    )


def workload_cost(result, queries):
    compiler = QueryCompiler(result)
    total = 0.0
    for pattern in queries:
        compiled = compiler.compile(
            ConceptualQuery(
                pattern.object_type,
                selections=tuple(FactSelection(f) for f in pattern.facts),
            )
        )
        total += pattern.frequency * entity_fetch_cost(
            result.relational, compiled.relations_touched, STATISTICS
        )
    return total


def test_recommendation(benchmark, fig6_schema):
    report = benchmark(recommend, fig6_schema, QUERIES)
    assert report.winner is not None


def test_ablation_recommended_beats_default(fig6_schema):
    report = recommend(fig6_schema, QUERIES)
    default_result = map_schema(fig6_schema, MappingOptions())
    recommended_result = map_schema(fig6_schema, report.winner_options)

    default_cost = workload_cost(default_result, QUERIES)
    recommended_cost = workload_cost(recommended_result, QUERIES)

    assert recommended_cost < default_cost
    emit(
        "Ablation — expert rules vs fixed defaults "
        "(weighted page reads for the co-access workload)",
        [
            f"default options: {default_cost:.0f}",
            f"recommended ({report.winner.label}): {recommended_cost:.0f}",
            f"improvement: {default_cost / recommended_cost:.1f}x",
        ],
    )


def test_cold_workload_not_denormalized(fig6_schema):
    """The advisor must not denormalize when the workload doesn't pay."""
    cold = (QueryPattern("Paper", ("Paper_has_Title",), frequency=1.0),)
    report = recommend(fig6_schema, cold)
    assert report.winner_options == MappingOptions().canonical()
