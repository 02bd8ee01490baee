"""Execution backends and the empirical-losslessness harness.

The paper proves the RIDL-M mapping lossless symbolically; this
package proves it *empirically*: compile every lossless rule to an
executable checker query (:mod:`~repro.executor.compile`), load
forward-mapped populations into a real engine
(:mod:`~repro.executor.backends` — DuckDB when installed, stdlib
SQLite otherwise, with the in-memory ``repro.engine`` as the
semantic reference), round-trip the state, and drive the
violation-injection detection matrix
(:mod:`~repro.executor.harness`).  See ``docs/VALIDATION.md``.
"""

from repro.executor.backends import (
    BACKENDS,
    Backend,
    BackendUnavailableError,
    DuckDBBackend,
    FALLBACK_ORDER,
    MemoryBackend,
    ResolvedBackend,
    SqliteBackend,
    Violation,
    available_backends,
    duckdb_available,
    resolve_backend,
)
from repro.executor.compile import CompiledRule, compile_rules
from repro.executor.ddl import (
    create_table_statements,
    executable_ddl,
    executable_type,
    index_statements,
)
from repro.executor.harness import (
    DetectionMatrix,
    ValidationReport,
    dataset_of,
    detection_matrix,
    load_dataset,
    run_validation,
)

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendUnavailableError",
    "CompiledRule",
    "DetectionMatrix",
    "DuckDBBackend",
    "FALLBACK_ORDER",
    "MemoryBackend",
    "ResolvedBackend",
    "SqliteBackend",
    "ValidationReport",
    "Violation",
    "available_backends",
    "compile_rules",
    "create_table_statements",
    "dataset_of",
    "detection_matrix",
    "duckdb_available",
    "executable_ddl",
    "executable_type",
    "index_statements",
    "load_dataset",
    "resolve_backend",
    "run_validation",
]
