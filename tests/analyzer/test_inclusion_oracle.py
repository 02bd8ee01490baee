"""The shared inclusion graph and emptiness solver against the oracle.

``check_consistency`` and ``check_implications`` read one
:class:`~repro.analyzer.consistency.InclusionGraph` per schema version
and run one emptiness solver, each with its own seeds.  The suites
here pin that design to the solver it replaced
(:mod:`tests.oracles.analyzer`) over thousands of seeded random
schemas dense in subset, equality, exclusion, total, total-union,
frequency and value constraints:

* the forced-empty map, nodes and reason strings, is the oracle's;
* inclusion paths and lower bounds agree with the oracle's condensed
  reachability;
* BRM017 reports exactly IMP401's subset verdicts.
"""

import random

from repro.analyzer import consistency
from repro.analyzer.consistency import (
    _item_node,
    check_consistency,
    inclusion_graph_for,
)
from repro.analyzer.implication import check_implications
from repro.brm import SchemaBuilder, char
from repro.lint.engine import LintContext
from repro.lint.rules_implication import implied_subset
from repro.lint.rules_schema import check_redundant_subset
from tests.oracles.analyzer import SubsetGraph, forced_empty

CORPUS_SIZE = 3000
SEED = 2021

KINDS = (
    "subset", "equality", "exclusion", "exclusion", "total",
    "total-union", "frequency", "value",
)


def random_schema(rng: random.Random, index: int):
    """A small schema: 2-4 NOLOTs under random sublinks, 2-4 fact
    types, and 1-7 constraints drawn from :data:`KINDS`."""
    builder = SchemaBuilder(f"R{index}")
    builder.lot("L", char(3))
    types = [f"T{i}" for i in range(rng.randint(2, 4))]
    for name in types:
        builder.nolot(name)
    sublinks = []
    for i in range(1, len(types)):
        for j in range(i):
            if rng.random() < 0.35:
                builder.subtype(types[i], types[j])
                sublinks.append((f"{types[i]}_IS_{types[j]}", types[j]))
    roles = []
    for k in range(rng.randint(2, 4)):
        first, second = rng.choice(types), rng.choice(types + ["L"])
        builder.fact(f"f{k}", (first, "x"), (second, "y"))
        roles += [((f"f{k}", "x"), first), ((f"f{k}", "y"), second)]
    items = [role for role, _ in roles]
    items += [f"sublink:{name}" for name, _ in sublinks]
    for _ in range(rng.randint(1, 7)):
        kind = rng.choice(KINDS)
        if kind == "subset":
            builder.subset(*rng.sample(items, 2))
        elif kind == "equality":
            builder.equality(*rng.sample(items, 2))
        elif kind == "exclusion":
            builder.exclusion(*rng.sample(items, rng.choice((2, 2, 3))))
        elif kind == "total":
            builder.total(rng.choice(roles)[0])
        elif kind == "total-union":
            owner = rng.choice(types)
            cover = [role for role, player in roles if player == owner]
            cover += [
                f"sublink:{name}"
                for name, supertype in sublinks
                if supertype == owner
            ]
            if len(cover) >= 2:
                builder.total_union(
                    owner, *rng.sample(cover, rng.randint(2, len(cover)))
                )
        elif kind == "frequency":
            low = rng.randint(0, 3)
            high = rng.choice((None, rng.randint(max(low, 1), 3)))
            builder.frequency(rng.choice(roles)[0], low, high)
        else:
            builder.values("L", rng.sample("abcd", rng.randint(1, 3)))
    return builder.build()


def corpus(size: int = CORPUS_SIZE):
    rng = random.Random(SEED)
    return (random_schema(rng, index) for index in range(size))


def test_forced_empty_matches_the_oracle_and_brm017_matches_imp401():
    with_empty = with_implied = 0
    for schema in corpus():
        result = check_consistency(schema)
        assert result.forced_empty == forced_empty(schema), schema.name
        with_empty += bool(result.forced_empty)

        context = LintContext(schema=schema, report=None)
        brm017 = [subject for subject, _ in check_redundant_subset(context)]
        imp401 = [subject for subject, _ in implied_subset(context)]
        assert brm017 == imp401, schema.name
        with_implied += bool(imp401)
    # The corpus must exercise both sides, or equality proves nothing.
    assert with_empty > CORPUS_SIZE // 10
    assert with_implied > CORPUS_SIZE // 20


def test_paths_and_lower_bounds_match_the_oracle():
    for schema in corpus(300):
        graph = inclusion_graph_for(schema)
        oracle = SubsetGraph(schema)
        nodes = sorted(
            {node for node in oracle.empties}
            | {_item_node(item) for c in schema.exclusions()
               for item in c.items},
            key=repr,
        )
        for node in nodes:
            assert set(graph.lower_bound_paths(node)) == (
                oracle.lower_bounds(node)
            ), (schema.name, node)
            for goal in nodes:
                assert (graph.find_path(node, goal) is not None) == (
                    oracle.reaches(node, goal)
                ), (schema.name, node, goal)


def test_consistency_and_implication_share_one_graph(monkeypatch):
    built = []

    class CountingGraph(consistency.InclusionGraph):
        def __init__(self, schema):
            built.append(schema.name)
            super().__init__(schema)

    monkeypatch.setattr(consistency, "InclusionGraph", CountingGraph)
    schema = next(corpus(1))
    inclusion_graph_for.cache_clear()
    check_consistency(schema)
    check_implications.uncached(schema)
    assert built == [schema.name]
