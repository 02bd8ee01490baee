"""The in-memory checker's kernels against the row-scan oracle.

On CRIS, the figure-6 schema under four option sets and the
authorship schema, the valid state and every candidate the mutators
yield (up to ``MAX_CANDIDATES`` per rule) must get the oracle's
verdicts exactly: ``MemoryBackend.run_rule`` returns the oracle's
``Violation`` (rule, kind, relation, count and sample), and
``Database.check()`` returns the oracle's messages in its order.
"""

import random
from itertools import islice

import pytest

from repro.cris import cris_schema, figure6_schema
from repro.engine.database import Database
from repro.executor import MemoryBackend, compile_rules, dataset_of
from repro.mapper import MappingOptions, NullPolicy, SublinkPolicy, map_schema
from repro.robustness.violations import (
    MAX_CANDIDATES,
    MUTATOR_KINDS,
    MUTATORS,
    known_values,
)
from repro.workloads import generate_bulk_population
from tests.executor.conftest import build_authorship_schema
from tests.oracles.executor import ScanDatabase, run_rule

CASES = {
    "cris": (cris_schema, MappingOptions()),
    "fig6": (figure6_schema, MappingOptions()),
    "fig6-together": (
        figure6_schema,
        MappingOptions(sublink_policy=SublinkPolicy.TOGETHER),
    ),
    "fig6-indicator": (
        figure6_schema,
        MappingOptions(sublink_policy=SublinkPolicy.INDICATOR),
    ),
    "fig6-null-not-allowed": (
        figure6_schema,
        MappingOptions(null_policy=NullPolicy.NOT_ALLOWED),
    ),
    "authorship": (build_authorship_schema, MappingOptions()),
}

SEED = 7


def mapped_case(name):
    factory, options = CASES[name]
    schema = factory()
    result = map_schema(schema, options)
    population = generate_bulk_population(schema, target_rows=60, seed=SEED)
    canonical = result.canonicalize(result.state.to_canonical(population))
    dataset = dataset_of(result.state_map.forward(canonical))
    return result.relational, compile_rules(result.relational), dataset


def states(relational, rules, dataset):
    """The valid state, every mutator candidate's full state, and per
    relation one state whose first two rows are all NULL (NULL cells
    in several rows and columns, to pin the row-major order)."""
    yield "valid", dataset
    for relation, rows in dataset.items():
        if len(rows) >= 2:
            nulled = [dict.fromkeys(row) for row in rows[:2]] + rows[2:]
            yield f"nulled {relation}[0:2]", {**dataset, relation: nulled}
    known = known_values(dataset)
    for rule in rules:
        for kind, rule_kinds in MUTATOR_KINDS.items():
            if rule.kind not in rule_kinds:
                continue
            rng = random.Random((SEED, kind, rule.name).__repr__())
            candidates = MUTATORS[kind](relational, rule, dataset, known, rng)
            for delta, description in islice(candidates, MAX_CANDIDATES):
                yield description, {
                    **dataset,
                    delta.relation: delta.splice(dataset[delta.relation]),
                }


@pytest.mark.parametrize("case", sorted(CASES))
def test_kernels_equal_the_scan_oracle(case):
    relational, rules, dataset = mapped_case(case)
    backend = MemoryBackend()
    checked = violated = 0
    for label, state in states(relational, rules, dataset):
        database = Database(relational)
        for relation, rows in state.items():
            database.insert_many(relation, rows)
        oracle = ScanDatabase.sharing(database)
        backend.database = database
        for rule in rules:
            expected = run_rule(oracle, rule)
            assert backend.run_rule(rule) == expected, (label, rule.name)
            violated += expected is not None
        messages = [str(v) for v in database.check()]
        assert messages == [str(v) for v in oracle.check()], label
        checked += 1
    assert checked > len(rules)
    assert violated > 0
