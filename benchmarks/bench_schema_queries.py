"""Indexed vs. linear-scan schema queries at industrial scale.

The navigation queries (``roles_played_by``, ``is_unique``,
``is_total``, ``ancestors_of``, ``constraints_over``, …) were linear
scans over all fact types or constraints before the version-stamped
index layer (``repro.brm.indexes``).  This micro-benchmark replays
the mapper's query mix over the industrial-shape schema through both
paths — the indexed :class:`BinarySchema` methods and the retained
:class:`LinearScanOracle` (``tests/oracles/brm.py``) — asserting they
agree and that the indexed path wins by a wide margin.
"""

from time import perf_counter

import pytest

from bench_industrial_scale import INDUSTRIAL_SHAPE
from conftest import emit
from repro.brm.indexes import indexes_for
from repro.workloads import generate_schema
from tests.oracles.brm import LinearScanOracle


@pytest.fixture(scope="module")
def industrial_schema():
    return generate_schema(INDUSTRIAL_SHAPE, seed=1989)


def _query_mix(schema, q):
    """The mapper/analyzer navigation mix; returns a comparable digest.

    ``q`` is either the schema itself (indexed path) or the oracle —
    both expose the same query methods.
    """
    digest = []
    for object_type in schema.object_types:
        name = object_type.name
        roles = q.roles_played_by(name)
        digest.append((name, tuple(roles)))
        digest.append((name, frozenset(q.ancestors_of(name))))
        digest.append((name, frozenset(q.root_supertypes_of(name))))
        digest.append((name, tuple(q.total_constraints_on(name))))
        digest.append((name, q.value_constraint_on(name)))
        for role_id in roles:
            digest.append((role_id, q.is_unique(role_id)))
            digest.append((role_id, q.is_total(role_id)))
            digest.append((role_id, tuple(q.constraints_over(role_id))))
    digest.append(tuple(q.uniqueness_constraints()))
    digest.append(tuple(q.exclusions()))
    digest.append(tuple(q.subsets()))
    return digest


def test_indexed_queries_match_and_beat_linear_scans(industrial_schema):
    schema = industrial_schema
    oracle = LinearScanOracle(schema)

    indexes_for(schema)  # warm the index (part of the first timed run)
    started = perf_counter()
    indexed_digest = _query_mix(schema, schema)
    indexed_s = perf_counter() - started

    started = perf_counter()
    oracle_digest = _query_mix(schema, oracle)
    linear_s = perf_counter() - started

    assert len(indexed_digest) == len(oracle_digest)
    for indexed_row, oracle_row in zip(indexed_digest, oracle_digest):
        # Order-insensitive where the query contract is a set.
        if isinstance(indexed_row, tuple) and len(indexed_row) == 2:
            key, value = indexed_row
            other = oracle_row[1]
            if isinstance(value, (list, tuple)) and isinstance(
                other, (list, tuple)
            ):
                assert set(value) == set(other), key
            else:
                assert value == other, key
        else:
            assert set(indexed_row) == set(oracle_row)

    speedup = linear_s / indexed_s
    assert speedup >= 5, (
        f"indexed query mix only {speedup:.1f}x faster than linear scans "
        f"({indexed_s * 1000:.1f} ms vs {linear_s * 1000:.1f} ms)"
    )
    stats = schema.stats()
    emit(
        "Schema query paths (industrial shape)",
        [
            f"conceptual: {stats}",
            f"indexed query mix: {indexed_s * 1000:.2f} ms",
            f"linear-scan query mix: {linear_s * 1000:.2f} ms",
            f"speedup: {speedup:.1f}x",
        ],
        data={
            "indexed_ms": round(indexed_s * 1000, 3),
            "linear_scan_ms": round(linear_s * 1000, 3),
            "speedup": round(speedup, 1),
        },
    )


def test_index_reuse_across_copies(industrial_schema):
    """A schema copy shares the version stamp, hence the indexes."""
    copy = industrial_schema.copy()
    assert copy.version == industrial_schema.version
    assert indexes_for(copy) is indexes_for(industrial_schema)
