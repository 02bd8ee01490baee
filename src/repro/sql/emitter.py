"""The generic DDL emitter.

"From this generic relational schema a schema definition for any
relational (or relation-like) DBMS can be derived using the specific
database definition language of such a DBMS" (section 4.3).  A
:class:`DialectProfile` captures what a target supports; everything
the target cannot enforce natively is emitted as pseudo-SQL comment
blocks — "a formal specification for a program segment to enforce
this constraint" — exactly as the paper's generated fragment shows.

The layout follows the paper's listing: one ``CREATE TABLE`` per
relation with per-column domain lines and ``-- DATA TYPE`` comments,
inline single-column key/foreign-key clauses with ``CONSTRAINT``
names, table-level clauses for composite keys, and a trailing
``View Constraints For Table ...`` comment section.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.brm.datatypes import DataType, DataTypeKind
from repro.observability.tracer import count as _obs_count
from repro.observability.tracer import span as _obs_span
from repro.relational.schema import Relation, RelationalSchema


def as_comment(text: str, marker: str = "--") -> str:
    """Prefix every line with a SQL comment marker."""
    return "\n".join(
        f"{marker} {line}" if line else marker for line in text.splitlines()
    )


@dataclass(frozen=True)
class DialectProfile:
    """What a target DBMS dialect supports.

    ``max_identifier_length`` and ``reserved_words`` describe the
    dialect's identifier rules (1989-era limits); the lint pass
    (``SQL2xx`` rules) checks generated names against them.
    """

    name: str
    supports_domains: bool = False
    supports_named_constraints: bool = True
    supports_check: bool = False
    supports_foreign_keys: bool = True
    header: str = ""
    type_overrides: tuple[tuple[DataTypeKind, str], ...] = ()
    max_identifier_length: int = 128
    reserved_words: frozenset[str] = frozenset()

    def render_type(self, datatype: DataType) -> str:
        """The dialect spelling of a data type."""
        for kind, spelling in self.type_overrides:
            if datatype.kind is kind:
                if datatype.kind in (
                    DataTypeKind.CHAR,
                    DataTypeKind.VARCHAR,
                    DataTypeKind.NUMERIC,
                ):
                    suffix = datatype.render().split("(", 1)[1]
                    return f"{spelling}({suffix}"
                return spelling
        return datatype.render()


class DdlEmitter:
    """Emits DDL for one dialect profile."""

    def __init__(self, profile: DialectProfile) -> None:
        self.profile = profile

    # ------------------------------------------------------------------

    def emit(self, schema: RelationalSchema, pseudo_constraints=()) -> str:
        """The full DDL script for a relational schema."""
        with _obs_span(
            "sql.emit",
            dialect=self.profile.name,
            relations=len(schema.relations),
        ):
            _obs_count("sql.statements", len(schema.relations))
            return self._emit(schema, pseudo_constraints)

    def _emit(self, schema: RelationalSchema, pseudo_constraints=()) -> str:
        parts: list[str] = []
        title = (
            f"-- {self.profile.name} schema definition for "
            f"{schema.name!r} (generated by RIDL-M)"
        )
        parts.append(title)
        if self.profile.header:
            parts.append(self.profile.header)
        if self.profile.supports_domains:
            domain_lines = [
                f"CREATE DOMAIN {domain.name} {domain.datatype.render()};"
                for domain in schema.domains
            ]
            if domain_lines:
                parts.append("\n".join(domain_lines))
        # Each view block goes with the first relation it mentions.
        views_by_relation: dict[str, list] = {}
        for constraint in schema.view_constraints():
            first = min(constraint.relations_used())
            views_by_relation.setdefault(first, []).append(constraint)
        for relation in schema.relations:
            parts.append(self._emit_table(schema, relation))
            trailer = self._emit_table_trailer(
                schema, relation, views_by_relation.get(relation.name, ())
            )
            if trailer:
                parts.append(trailer)
        unmapped = self._emit_pseudo(pseudo_constraints)
        if unmapped:
            parts.append(unmapped)
        return "\n\n".join(parts) + "\n"

    # ------------------------------------------------------------------

    def _emit_table(self, schema: RelationalSchema, relation: Relation) -> str:
        profile = self.profile
        primary = schema.primary_key(relation.name)
        candidates = schema.candidate_keys(relation.name)
        foreign_keys = schema.foreign_keys(relation.name)
        lines = [
            "-- " + "-" * 60,
            f"-- TABLE {relation.name}",
            "-- " + "-" * 60,
            f"CREATE TABLE {relation.name}",
        ]
        column_blocks = []
        for attribute in relation.attributes:
            block = [f"   {attribute.name}"]
            domain = schema.domain(attribute.domain)
            rendered_type = profile.render_type(domain.datatype)
            if profile.supports_domains:
                block.append(
                    f"      {domain.name} -- DATA TYPE {rendered_type}"
                )
            else:
                block.append(
                    f"      {rendered_type} -- DOMAIN {domain.name}"
                )
            if attribute.nullable:
                block.append("      -- NULL")
            else:
                block.append("      NOT NULL")
            if (
                primary is not None
                and primary.columns == (attribute.name,)
            ):
                block.append("      PRIMARY KEY")
                block.extend(self._constraint_name(primary.name))
            for candidate in candidates:
                if candidate.columns == (attribute.name,):
                    block.append("      UNIQUE")
                    block.extend(self._constraint_name(candidate.name))
            for foreign_key in foreign_keys:
                if foreign_key.columns == (attribute.name,):
                    if profile.supports_foreign_keys:
                        block.append(
                            f"      REFERENCES "
                            f"{foreign_key.referenced_relation} "
                            f"( {', '.join(foreign_key.referenced_columns)} )"
                        )
                        block.extend(self._constraint_name(foreign_key.name))
                    else:
                        block.append(
                            f"      -- REFERENCES "
                            f"{foreign_key.referenced_relation} "
                            f"( {', '.join(foreign_key.referenced_columns)} )"
                            f" CONSTRAINT {foreign_key.name}"
                        )
            column_blocks.append("\n".join(block))
        table_level = self._table_level_clauses(schema, relation)
        body = "\n , ".join(
            [column_blocks[0].lstrip()] + [b.lstrip() for b in column_blocks[1:]]
        ) if column_blocks else ""
        lines.append(" ( " + body)
        for clause in table_level:
            lines.append(" , " + clause)
        lines.append(" );")
        return "\n".join(lines)

    def _constraint_name(self, name: str) -> list[str]:
        if self.profile.supports_named_constraints:
            return [f"      CONSTRAINT {name}"]
        return [f"      -- CONSTRAINT {name}"]

    def _table_level_clauses(
        self, schema: RelationalSchema, relation: Relation
    ) -> list[str]:
        clauses = []
        primary = schema.primary_key(relation.name)
        if primary is not None and len(primary.columns) > 1:
            clause = f"PRIMARY KEY ( {', '.join(primary.columns)} )"
            if self.profile.supports_named_constraints:
                clause += f" CONSTRAINT {primary.name}"
            clauses.append(clause)
        for candidate in schema.candidate_keys(relation.name):
            if len(candidate.columns) > 1:
                clause = f"UNIQUE ( {', '.join(candidate.columns)} )"
                if self.profile.supports_named_constraints:
                    clause += f" CONSTRAINT {candidate.name}"
                clauses.append(clause)
        for foreign_key in schema.foreign_keys(relation.name):
            if len(foreign_key.columns) > 1 and self.profile.supports_foreign_keys:
                clause = (
                    f"FOREIGN KEY ( {', '.join(foreign_key.columns)} ) "
                    f"REFERENCES {foreign_key.referenced_relation} "
                    f"( {', '.join(foreign_key.referenced_columns)} )"
                )
                if self.profile.supports_named_constraints:
                    clause += f" CONSTRAINT {foreign_key.name}"
                clauses.append(clause)
        for check in schema.checks(relation.name):
            if self.profile.supports_check:
                comment = f" -- {check.comment}" if check.comment else ""
                clause = (
                    f"CHECK({comment}\n      {check.predicate.render()}\n   )"
                )
                if self.profile.supports_named_constraints:
                    clause += f" CONSTRAINT {check.name}"
                clauses.append(clause)
        return clauses

    def _emit_table_trailer(
        self, schema: RelationalSchema, relation: Relation, views
    ) -> str:
        """The commented view-constraint block, with the CHECKs and
        multi-column foreign keys the dialect cannot declare."""
        blocks = []
        if not self.profile.supports_foreign_keys:
            for foreign_key in schema.foreign_keys(relation.name):
                if len(foreign_key.columns) > 1:
                    blocks.append(as_comment(foreign_key.render()))
        if not self.profile.supports_check:
            for check in schema.checks(relation.name):
                blocks.append(as_comment(check.render()))
        for constraint in views:
            blocks.append(as_comment(constraint.render()))
        if not blocks:
            return ""
        header = (
            "-- " + "-" * 60 + "\n"
            f"--            View Constraints For Table {relation.name}\n"
            "-- " + "-" * 60
        )
        return header + "\n" + "\n--\n".join(blocks)

    def _emit_pseudo(self, pseudo_constraints) -> str:
        if not pseudo_constraints:
            return ""
        blocks = [
            "-- " + "-" * 60,
            "--            Constraints Without Relational Counterpart",
            "-- " + "-" * 60,
        ]
        for pseudo in pseudo_constraints:
            blocks.append(as_comment(f"{pseudo.name}:\n{pseudo.text}"))
        return "\n".join(blocks)
