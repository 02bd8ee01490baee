"""repro — a reproduction of RIDL* (De Troyer, SIGMOD 1989).

A database-engineering workbench on the Binary Relationship Model
(NIAM): conceptual schemas rich in integrity constraints, an analyzer
(RIDL-A), and a rule-driven mapper (RIDL-M) that synthesizes
relational schemas — normalized or not — together with the constraint
specifications ("lossless rules") that make the transformation
state-equivalent, DDL for several SQL dialects, and bidirectional map
reports.

Quickstart::

    from repro import SchemaBuilder, char, map_schema, MappingOptions

    builder = SchemaBuilder("Library")
    builder.nolot("Book").lot("Isbn", char(13))
    builder.identifier("Book", "Isbn")
    schema = builder.build()
    result = map_schema(schema)
    print(result.sql("sql2"))
    print(result.map_report())
"""

from repro.analyzer import AnalysisReport, analyze, require_mappable
from repro.brm import (
    BinarySchema,
    Population,
    ReferenceResolver,
    RoleId,
    SchemaBuilder,
    SublinkRef,
    boolean,
    char,
    date,
    integer,
    numeric,
    real,
    smallint,
    varchar,
)
from repro.dsl import parse, to_dsl
from repro.engine import Database
from repro.mapper import (
    MappingOptions,
    MappingResult,
    NullPolicy,
    Rule,
    SublinkPolicy,
    TransformationEngine,
    advise,
    map_schema,
)
from repro.mapper.translate import translate_state
from repro.mapper.naive import naive_map
from repro.metadb import MetaDatabase
from repro.notation import render_ascii, render_dot
from repro.ridl import ConceptualQuery, FactSelection, QueryCompiler
from repro.ridlf import ExampleTable, induce_schema
from repro.sql import generate_sql
from repro.workloads.statistics import QueryPattern, WorkloadProfile

__version__ = "1.0.0"

__all__ = [
    "AnalysisReport",
    "BinarySchema",
    "ConceptualQuery",
    "Database",
    "ExampleTable",
    "FactSelection",
    "QueryCompiler",
    "QueryPattern",
    "MappingOptions",
    "MappingResult",
    "MetaDatabase",
    "NullPolicy",
    "Population",
    "ReferenceResolver",
    "RoleId",
    "Rule",
    "SchemaBuilder",
    "SublinkPolicy",
    "SublinkRef",
    "TransformationEngine",
    "WorkloadProfile",
    "advise",
    "analyze",
    "boolean",
    "char",
    "date",
    "generate_sql",
    "induce_schema",
    "integer",
    "map_schema",
    "naive_map",
    "numeric",
    "parse",
    "real",
    "render_ascii",
    "render_dot",
    "require_mappable",
    "smallint",
    "to_dsl",
    "translate_state",
    "varchar",
    "__version__",
]
