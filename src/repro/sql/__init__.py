"""SQL generation for the generic relational schema (section 4.3)."""

from __future__ import annotations

from repro.errors import SqlGenerationError
from repro.relational.schema import RelationalSchema
from repro.sql.dialects import DB2, INGRES, ORACLE, PROFILES, SQL2, SYBASE
from repro.sql.emitter import DdlEmitter, DialectProfile, as_comment
from repro.sql.parse import DdlParseError, ParseResult, parse_ddl


def generate_sql(result_or_schema, dialect: str = "sql2") -> str:
    """DDL for a mapping result (or a bare relational schema).

    ``dialect`` is one of ``sql2``, ``oracle``, ``ingres``, ``db2`` or
    ``pseudo`` (the dialect-neutral constraint listing).
    """
    schema: RelationalSchema
    pseudo_constraints = ()
    if isinstance(result_or_schema, RelationalSchema):
        schema = result_or_schema
    else:
        schema = result_or_schema.relational
        pseudo_constraints = tuple(result_or_schema.pseudo_constraints)
    if dialect == "pseudo":
        blocks = [c.render() for c in schema.constraints]
        blocks.extend(f"{p.name}:\n{p.text}" for p in pseudo_constraints)
        return "\n\n".join(blocks) + "\n"
    profile = PROFILES.get(dialect.lower())
    if profile is None:
        raise SqlGenerationError(
            f"unknown dialect {dialect!r}; choose from "
            f"{sorted(PROFILES) + ['pseudo']}"
        )
    return DdlEmitter(profile).emit(schema, pseudo_constraints)


__all__ = [
    "DB2",
    "SYBASE",
    "DdlEmitter",
    "DdlParseError",
    "DialectProfile",
    "INGRES",
    "ORACLE",
    "PROFILES",
    "ParseResult",
    "SQL2",
    "as_comment",
    "generate_sql",
    "parse_ddl",
]
