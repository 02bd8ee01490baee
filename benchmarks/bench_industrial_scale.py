"""Section 5 deployment statistics.

"It routinely generates databases of up to 120-150 ORACLE tables
(this is not a limit).  More interestingly perhaps, the generated
(pseudo-)SQL constraints cause the output design to reach approx. 1
to 1.2 pages per table on the average, not counting forwards or
backwards maps."

The industrial schemas are proprietary; a seeded random schema with
comparable shape statistics is mapped instead.  Asserted shape: the
table count lands in the paper's 120-150 band, the DDL carries a
large constraint load (the same order of pages-per-table), and the
"not a limit" claim holds by mapping a still larger schema.
"""

from statistics import median
from time import perf_counter

import pytest

from conftest import emit
from repro.mapper import MappingOptions, SublinkPolicy, map_schema
from repro.observability import Tracer, aggregate_spans
from repro.workloads import SchemaShape, generate_schema

LINES_PER_PAGE = 54

#: Guarded ``map_schema`` wall time on this workload measured at the
#: PR-1 tip (linear-scan schema queries, full re-analysis per step),
#: on the machine that committed the first baseline.  Kept so the
#: emitted JSON always records the before/after pair for the
#: version-stamped index layer.
PRE_INDEX_GUARDED_WALL_S = 2.811


#: The guarded map's breakdown: each BENCH key and the span it reads.
#: Reference resolution runs in the gate (referability) and the plan.
PHASE_SPANS = {
    "map_gate_wall_s": "mapper.gate",
    "map_binary_wall_s": "phase:binary",
    "map_plan_wall_s": "phase:plan",
    "map_materialize_wall_s": "phase:materialize",
}


#: Timed loops per calibration; their median is the figure reported.
CALIBRATION_LOOPS = 5

#: Timed guarded ``map_schema`` calls; their median is the figure
#: reported as ``guarded_map_schema_wall_s``.
GUARDED_RUNS = 5


def calibration_time() -> float:
    """Seconds per loop of a fixed pure-Python workload on this machine.

    The median of :data:`CALIBRATION_LOOPS` loops, so that one loop
    slowed by a noisy neighbour does not move the calibrated ratios.
    ``scripts/check_bench_regression.py`` divides wall times by this
    to compare runs across differently-powered machines.  Every
    benchmark module imports this one copy.
    """
    samples = []
    for _ in range(CALIBRATION_LOOPS):
        started = perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i % 7
        assert total > 0
        samples.append(perf_counter() - started)
    return median(samples)

INDUSTRIAL_SHAPE = SchemaShape(
    entity_types=90,
    attributes_per_entity=(4, 9),
    optional_ratio=0.5,
    rich_constraints=True,
    exclusion_groups=5,
    subset_ratio=0.9,
    value_ratio=0.5,
    alternate_identifier_ratio=0.3,
    many_to_many_per_entity=0.6,
)


@pytest.fixture(scope="module")
def industrial_schema():
    return generate_schema(INDUSTRIAL_SHAPE, seed=1989)


def phase_walls(runs: int = 5) -> dict[str, float]:
    """Median seconds per :data:`PHASE_SPANS` phase over traced runs.

    Each run maps a freshly generated schema, so the analyzer memo and
    the schema indexes start cold, as in a first map of a design.
    """
    samples: dict[str, list[float]] = {key: [] for key in PHASE_SPANS}
    for _ in range(runs):
        schema = generate_schema(INDUSTRIAL_SHAPE, seed=1989)
        tracer = Tracer("industrial map")
        with tracer.activate():
            map_schema(
                schema, MappingOptions(sublink_policy=SublinkPolicy.INDICATOR)
            )
        total_ms = {b["name"]: b["total_ms"] for b in aggregate_spans(tracer)}
        for key, span_name in PHASE_SPANS.items():
            samples[key].append(total_ms[span_name] / 1000)
    return {key: median(values) for key, values in samples.items()}


def test_industrial_mapping(benchmark, industrial_schema):
    result = benchmark(
        map_schema,
        industrial_schema,
        MappingOptions(sublink_policy=SublinkPolicy.INDICATOR),
    )
    table_count = len(result.relational.relations)
    assert 120 <= table_count <= 150  # the paper's reported band

    ddl = result.sql("oracle")
    lines = len(ddl.splitlines())
    pages_per_table = lines / LINES_PER_PAGE / table_count
    # Same order as the paper's 1-1.2 pages/table; the exact figure
    # depends on their pretty-printer and schema width (unknowable).
    assert 0.5 <= pages_per_table <= 1.5

    # Explicitly timed guarded runs for the JSON record (the
    # pytest-benchmark timings are unavailable under
    # --benchmark-disable, which is how CI runs this): the median of
    # GUARDED_RUNS warm-cache calls on the same schema, so one call
    # slowed by a noisy neighbour does not move the gated key.
    samples = []
    for _ in range(GUARDED_RUNS):
        started = perf_counter()
        map_schema(
            industrial_schema,
            MappingOptions(sublink_policy=SublinkPolicy.INDICATOR),
        )
        samples.append(perf_counter() - started)
    guarded_wall_s = median(samples)
    phases = phase_walls()

    stats = result.relational.stats()
    emit(
        "§5 — industrial-scale statistics (paper: 120-150 tables, "
        "~1-1.2 pages/table)",
        [
            f"conceptual: {industrial_schema.stats()}",
            f"tables generated: {table_count}",
            f"ORACLE DDL: {lines} lines = {lines / LINES_PER_PAGE:.0f} pages "
            f"-> {pages_per_table:.2f} pages/table",
            f"constraints: {stats['constraints']} "
            f"(FK {stats['foreign_keys']}, CHECK {stats['checks']}, "
            f"views {stats['view_constraints']}) "
            f"+ {len(result.pseudo_constraints)} pseudo",
            f"guarded map_schema (median of {GUARDED_RUNS}): "
            f"{guarded_wall_s:.3f}s "
            f"(pre-index baseline {PRE_INDEX_GUARDED_WALL_S:.3f}s, "
            f"{PRE_INDEX_GUARDED_WALL_S / guarded_wall_s:.1f}x)",
            "traced phases (median of 5): "
            + ", ".join(f"{k} {v:.3f}s" for k, v in phases.items()),
        ],
        data={
            "tables": table_count,
            "ddl_lines": lines,
            "pages_per_table": round(pages_per_table, 3),
            "constraints": stats["constraints"],
            "pseudo_constraints": len(result.pseudo_constraints),
            "guarded_map_schema_wall_s": round(guarded_wall_s, 4),
            "pre_index_guarded_map_schema_wall_s": PRE_INDEX_GUARDED_WALL_S,
            "calibration_s": round(calibration_time(), 4),
            **{key: round(wall, 4) for key, wall in phases.items()},
        },
    )


def test_not_a_limit():
    """'(this is not a limit)' — a substantially larger schema maps too."""
    schema = generate_schema(
        SchemaShape(entity_types=200, rich_constraints=True), seed=7
    )
    result = map_schema(schema)
    assert len(result.relational.relations) > 200


def test_ddl_generation_at_scale(benchmark, industrial_schema):
    result = map_schema(
        industrial_schema,
        MappingOptions(sublink_policy=SublinkPolicy.INDICATOR),
    )
    ddl = benchmark(result.sql, "oracle")
    assert ddl.count("CREATE TABLE") == len(result.relational.relations)
