"""Executable DDL for the execution backends.

The paper-style emitter (:mod:`repro.sql.emitter`) reproduces the
1989 listing layout — ``CONSTRAINT`` names after the clause, domain
comments, pseudo-SQL blocks — which no modern parser accepts.  The
backends need DDL that actually loads, so this module renders the
same generic relational schema as plain ``CREATE TABLE`` statements
in the standard subset SQLite and DuckDB share, reusing the
:class:`~repro.sql.emitter.DialectProfile` machinery (the ``DUCKDB``
profile) for identifier rules.

``enforce`` selects between two shapes:

* ``enforce=True`` — declarative PRIMARY KEY / UNIQUE / FOREIGN KEY /
  CHECK / NOT NULL clauses, for the "emitted DDL loads cleanly"
  smoke tests.
* ``enforce=False`` (default) — bare tables.  The validation harness
  checks every rule through its compiled checker query instead, and
  must be able to *load* a violating state in order to detect it;
  declarative constraints would reject the injected rows at INSERT
  time and short-circuit the experiment.
"""

from __future__ import annotations

from repro.brm.datatypes import DataType, DataTypeKind
from repro.relational.schema import RelationalSchema

#: Storage classes shared by SQLite and DuckDB.  CHAR/VARCHAR/DATE/
#: BOOLEAN collapse to VARCHAR and integer-like numerics to BIGINT so
#: loaded values round-trip to the exact Python objects the state map
#: produced (no padding, no Decimal, no date parsing).
_TYPE_MAP = {
    DataTypeKind.CHAR: "VARCHAR",
    DataTypeKind.VARCHAR: "VARCHAR",
    DataTypeKind.DATE: "VARCHAR",
    DataTypeKind.BOOLEAN: "VARCHAR",
    DataTypeKind.INTEGER: "BIGINT",
    DataTypeKind.SMALLINT: "BIGINT",
    DataTypeKind.REAL: "DOUBLE",
}


def executable_type(datatype: DataType) -> str:
    """The loadable SQL spelling of a lexical data type."""
    if datatype.kind is DataTypeKind.NUMERIC:
        return "DOUBLE" if datatype.scale is not None else "BIGINT"
    return _TYPE_MAP[datatype.kind]


def _creation_order(schema: RelationalSchema) -> list:
    """Relations topologically sorted so referenced tables come first.

    DuckDB checks REFERENCES targets at CREATE time.  Cycles (the
    mapping never produces them, but expert rules could) fall back to
    schema order for the remaining relations.
    """
    depends: dict[str, set[str]] = {
        relation.name: set() for relation in schema.relations
    }
    for foreign_key in schema.foreign_keys():
        if foreign_key.referenced_relation != foreign_key.relation:
            depends[foreign_key.relation].add(foreign_key.referenced_relation)
    ordered: list[str] = []
    placed: set[str] = set()
    remaining = [relation.name for relation in schema.relations]
    while remaining:
        ready = [
            name for name in remaining if depends[name] <= placed
        ]
        if not ready:
            ready = remaining  # cycle: emit the rest in schema order
        ordered.extend(ready)
        placed.update(ready)
        remaining = [name for name in remaining if name not in placed]
    return [schema.relation(name) for name in ordered]


def create_table_statements(
    schema: RelationalSchema, *, enforce: bool = False
) -> list[str]:
    """One loadable ``CREATE TABLE`` statement per relation."""
    statements = []
    for relation in _creation_order(schema):
        lines = []
        primary = schema.primary_key(relation.name)
        for attribute in relation.attributes:
            domain = schema.domain(attribute.domain)
            line = f"  {attribute.name} {executable_type(domain.datatype)}"
            if enforce and not attribute.nullable:
                line += " NOT NULL"
            lines.append(line)
        if enforce:
            if primary is not None:
                lines.append(
                    f"  PRIMARY KEY ( {', '.join(primary.columns)} )"
                )
            for candidate in schema.candidate_keys(relation.name):
                lines.append(
                    f"  UNIQUE ( {', '.join(candidate.columns)} )"
                )
            for foreign_key in schema.foreign_keys(relation.name):
                lines.append(
                    f"  FOREIGN KEY ( {', '.join(foreign_key.columns)} ) "
                    f"REFERENCES {foreign_key.referenced_relation} "
                    f"( {', '.join(foreign_key.referenced_columns)} )"
                )
            for check in schema.checks(relation.name):
                lines.append(
                    f"  CHECK ( {check.predicate.sql()} )"
                )
        body = ",\n".join(lines)
        statements.append(
            f"CREATE TABLE {relation.name} (\n{body}\n);"
        )
    return statements


def index_statements(schema: RelationalSchema) -> list[str]:
    """``CREATE INDEX`` statements over every declared key.

    Foreign-key checker queries probe the referenced relation with a
    correlated ``NOT EXISTS``; without an index on the referenced key
    each probe is a table scan and checking degenerates to O(n²) at
    the 1e5-row scales the harness targets.  Every foreign key
    references a declared key, so indexing primary and candidate keys
    covers all probes.  Issued after bulk load (building an index on
    a full table is cheaper than maintaining it per INSERT).
    """
    statements = []
    seen: set[tuple[str, tuple[str, ...]]] = set()
    for relation in schema.relations:
        for number, key in enumerate(schema.keys_of(relation.name)):
            signature = (relation.name, tuple(key))
            if signature in seen:
                continue
            seen.add(signature)
            statements.append(
                f"CREATE INDEX IX${number}_{relation.name} "
                f"ON {relation.name} ( {', '.join(key)} );"
            )
    return statements


def executable_ddl(schema: RelationalSchema, *, enforce: bool = False) -> str:
    """The full loadable DDL script."""
    return "\n\n".join(create_table_statements(schema, enforce=enforce))
