"""The one-row delta replay against the full-reload matrix oracle.

``detection_matrix`` applies each injection's delta to the loaded
baseline, runs the rules reading its relation, carries every other
rule's baseline verdict, and undoes the delta.  Its rows must equal
the oracle's, which reloads each mutated dataset whole and runs every
rule — serially and sharded over two workers, on every backend — and
the backend must end holding the baseline's tuple multiset.

Besides the planned injections, every relation gets three probes that
are not surgical: its first row deleted, re-appended verbatim, and
replaced by an all-NULL row (so the undo must match NULLs).  A second
round replays the same probes on a dirty baseline, where rules outside
the delta's relation carry a violation.
"""

from collections import Counter

import pytest

from repro.cris import cris_schema, figure6_schema
from repro.executor import (
    compile_rules,
    dataset_of,
    detection_matrix,
    duckdb_available,
    resolve_backend,
)
from repro.mapper import MappingOptions, SublinkPolicy, map_schema
from repro.robustness import Delta, Injection, plan_injections
from repro.workloads import generate_bulk_population
from tests.executor.conftest import build_authorship_schema
from tests.oracles.executor import full_reload_matrix

CASES = {
    "cris": (cris_schema, MappingOptions()),
    "fig6-together": (
        figure6_schema,
        MappingOptions(sublink_policy=SublinkPolicy.TOGETHER),
    ),
    "authorship": (build_authorship_schema, MappingOptions()),
}

BACKENDS = ["memory", "sqlite"] + (["duckdb"] if duckdb_available() else [])

SEED = 7


def probes(dataset):
    """Three non-surgical deltas per non-empty relation."""
    found = []
    for relation, rows in dataset.items():
        if not rows:
            continue
        first = rows[0]
        for delta, what in (
            (Delta(relation, 0), "deleted"),
            (Delta(relation, row=dict(first)), "re-appended"),
            (Delta(relation, 0, dict.fromkeys(first)), "nulled"),
        ):
            found.append(
                Injection(
                    "probe", "-", "-", relation,
                    f"{what} {relation}[0]", delta, dataset,
                )
            )
    return found


def multisets(relational, rows_of):
    """Every relation's tuple multiset, its rows read by ``rows_of``."""
    return {
        relation.name: Counter(
            tuple(row.get(name) for name in relation.attribute_names)
            for row in rows_of(relation.name)
        )
        for relation in relational.relations
    }


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    factory, options = CASES[request.param]
    schema = factory()
    result = map_schema(schema, options)
    rules = compile_rules(result.relational)
    population = generate_bulk_population(schema, target_rows=120, seed=SEED)
    canonical = result.canonicalize(result.state.to_canonical(population))
    dataset = dataset_of(result.state_map.forward(canonical))
    injections = plan_injections(result.relational, rules, dataset, seed=SEED)
    assert injections
    return result.relational, rules, dataset, injections + probes(dataset)


def replay_equals_full_reload(relational, rules, dataset, injections,
                              backend_name, workers):
    oracle_backend = resolve_backend(backend_name).backend
    try:
        expected = full_reload_matrix(
            oracle_backend, relational, rules, injections
        )
    finally:
        oracle_backend.close()
    backend = resolve_backend(backend_name).backend
    try:
        matrix = detection_matrix(
            backend, relational, rules, injections,
            baseline=dataset, workers=workers,
        )
        assert matrix.rows == expected
        assert multisets(relational, backend.rows) == multisets(
            relational, lambda name: dataset.get(name, [])
        )
    finally:
        backend.close()
    return expected


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_replay_equals_full_reload(case, backend_name, workers):
    relational, rules, dataset, injections = case
    rows = replay_equals_full_reload(
        relational, rules, dataset, injections, backend_name, workers
    )
    assert any(not row.diagonal for row in rows)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend_name", BACKENDS)
def test_replay_on_a_dirty_baseline(case, backend_name, workers):
    relational, rules, _, injections = case
    dirty = injections[0].dataset
    rows = replay_equals_full_reload(
        relational, rules, dirty, probes(dirty), backend_name, workers
    )
    reads = {rule.name: rule.relations for rule in rules}[injections[0].rule]
    carried = [row for row in rows if row.relation not in reads]
    assert carried or len(relational.relations) == 1
    assert all(injections[0].rule in row.detected for row in carried)


def test_two_workers_replay_in_worker_processes(case):
    from repro.observability import Tracer

    relational, rules, dataset, injections = case
    backend = resolve_backend("sqlite").backend
    tracer = Tracer("replay")
    try:
        with tracer.activate():
            detection_matrix(
                backend, relational, rules, injections,
                baseline=dataset, workers=2,
            )
    finally:
        backend.close()
    shards = [
        child
        for root in tracer.roots
        for child in root.children
        if child.name == "executor.inject_shard"
    ]
    assert len(shards) == 2
