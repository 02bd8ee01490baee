"""Delta verdicts against the whole-relation verifier they replaced.

``default_verifier`` judges each one-row candidate from the key
counters every constraint's delta face built once over the clean
database.  On the kernel suite's schemas at two sizes, on the clean
dataset and on dirty baselines, every candidate must get exactly the
verdict of ``tests.oracles.robustness.whole_relation_verifier``, which
re-runs each affected rule's ``violating()`` over the whole spliced
relation, and every face's clean ``violated`` must equal
``bool(constraint.violating(database))``.

The candidates are every mutator candidate (up to ``MAX_CANDIDATES``
per rule and kind) plus, for three rows per relation, a delete, a
verbatim re-append, an all-NULL replace and an all-NULL append.  A
dirty baseline makes one relation's first two rows all-NULL and
repeats its last row: NULL-holding key tuples and duplicates, which
the clean states never hold, on either side of every rule.
"""

import random
from itertools import islice

import pytest

from repro.engine.database import Database
from repro.executor import compile_rules, dataset_of
from repro.mapper import map_schema
from repro.robustness.violations import (
    MAX_CANDIDATES,
    MUTATOR_KINDS,
    MUTATORS,
    Delta,
    default_verifier,
    known_values,
)
from repro.workloads import generate_bulk_population
from tests.executor.test_memory_kernels import CASES
from tests.oracles.robustness import whole_relation_verifier

SEED = 7
SIZES = (60, 400)


def mapped(case, rows):
    factory, options = CASES[case]
    schema = factory()
    result = map_schema(schema, options)
    population = generate_bulk_population(schema, target_rows=rows, seed=SEED)
    canonical = result.canonicalize(result.state.to_canonical(population))
    dataset = dataset_of(result.state_map.forward(canonical))
    return result.relational, compile_rules(result.relational), dataset


def baselines(dataset):
    """The clean dataset, then per relation of three rows or more one
    with its first two rows all-NULL and its last row repeated."""
    yield "clean", dataset
    for relation, rows in dataset.items():
        if len(rows) >= 3:
            dirty = [dict.fromkeys(row) for row in rows[:2]]
            dirty += rows[2:] + [dict(rows[-1])]
            yield f"dirty {relation}", {**dataset, relation: dirty}


def candidates(relational, rules, dataset):
    """Every mutator candidate, then the per-relation probes."""
    known = known_values(dataset)
    for rule in rules:
        for kind, rule_kinds in MUTATOR_KINDS.items():
            if rule.kind not in rule_kinds:
                continue
            rng = random.Random((SEED, kind, rule.name).__repr__())
            found = MUTATORS[kind](relational, rule, dataset, known, rng)
            for delta, _ in islice(found, MAX_CANDIDATES):
                yield delta
    for relation, rows in dataset.items():
        for index in sorted({0, len(rows) // 2, len(rows) - 1}):
            if index >= len(rows):
                continue
            nulled = dict.fromkeys(rows[index])
            yield Delta(relation, index)
            yield Delta(relation, row=dict(rows[index]))
            yield Delta(relation, index, nulled)
            yield Delta(relation, row=nulled)


@pytest.mark.parametrize("rows", SIZES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_delta_verdicts_equal_the_whole_relation_oracle(case, rows):
    relational, rules, dataset = mapped(case, rows)
    judged = fired = 0
    for label, baseline in baselines(dataset):
        database = Database(relational)
        for relation, relation_rows in baseline.items():
            database.load_rows(relation, relation_rows)
        for rule in rules:
            index = rule.constraint.delta_index(database)
            assert index.violated == bool(rule.constraint.violating(database)), (
                label, rule.name,
            )
        verify = default_verifier(relational, rules, baseline)
        oracle = whole_relation_verifier(relational, rules, baseline)
        for delta in candidates(relational, rules, baseline):
            expected = oracle(delta)
            assert verify(delta) == expected, (label, delta)
            judged += 1
            fired += bool(expected)
    assert judged > 0 and fired > 0
