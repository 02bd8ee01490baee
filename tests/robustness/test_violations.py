"""The injection planner's own contracts.

``fresh_value`` must return a value the dataset does not hold (else a
mutation could match a key or a view tuple and stop being surgical),
and the planner must not keep the dataset alive once its result is
dropped.
"""

import gc
import sys
from types import SimpleNamespace

from repro.brm.datatypes import DataType, DataTypeKind
from repro.cris import figure6_schema
from repro.executor import compile_rules, dataset_of
from repro.mapper import MappingOptions, map_schema
from repro.robustness.violations import fresh_value, plan_injections
from repro.workloads import generate_bulk_population


def stub_schema(datatype):
    """Just what ``fresh_value`` reads: one column of one domain."""
    column = SimpleNamespace(domain="D")
    relation = SimpleNamespace(attribute=lambda name: column)
    return SimpleNamespace(
        relation=lambda name: relation,
        domain=lambda name: SimpleNamespace(datatype=datatype),
    )


class TestFreshValue:
    def test_real_column_skips_a_taken_half_value(self):
        schema = stub_schema(DataType(DataTypeKind.REAL))
        known = frozenset({900000.5, "x"})
        value = fresh_value(schema, "R", "c", known, 0)
        assert isinstance(value, float)
        assert value not in known

    def test_scaled_numeric_skips_a_taken_half_value(self):
        schema = stub_schema(DataType(DataTypeKind.NUMERIC, 6, 1))
        known = frozenset({900003.5, 900004.5})
        assert fresh_value(schema, "R", "c", known, 3) == 900005.5

    def test_integer_column_returns_the_first_free_integer(self):
        schema = stub_schema(DataType(DataTypeKind.INTEGER))
        assert fresh_value(schema, "R", "c", frozenset({900000.5}), 0) == 900000
        assert fresh_value(schema, "R", "c", frozenset({900000}), 0) == 900001

    def test_string_column_extends_a_taken_name(self):
        schema = stub_schema(DataType(DataTypeKind.CHAR, 10))
        known = frozenset({"viol_1", "viol_1x"})
        assert fresh_value(schema, "R", "c", known, 1) == "viol_1xx"


def test_planner_releases_the_dataset():
    schema = figure6_schema()
    result = map_schema(schema, MappingOptions())
    rules = compile_rules(result.relational)
    population = generate_bulk_population(schema, target_rows=100, seed=7)
    canonical = result.canonicalize(result.state.to_canonical(population))
    dataset = dataset_of(result.state_map.forward(canonical))
    gc.collect()
    before = sys.getrefcount(dataset)
    injections = plan_injections(result.relational, rules, dataset, seed=7)
    assert injections
    del injections
    gc.collect()
    assert sys.getrefcount(dataset) == before
