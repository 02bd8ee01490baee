"""The per-kind ``isinstance`` ladders each constraint class replaced.

Before every relational constraint class carried its own faces, three
consumers switched on the constraint classes, and this module keeps
their bodies verbatim:

- :func:`render_constraint` and :func:`render_select`, the pseudo-SQL
  renderer of ``repro.sql.pseudo``;
- :func:`compile_rules` and :func:`_compile_constraint`, the checker
  compiler of ``repro.executor.compile`` (NOT NULL rules from the
  attributes' ``nullable`` flags first, then one rule per declared
  constraint; pruning left out), returning :class:`CompiledRule`
  tuples with the fields the compiled rule had then;
- :func:`sql_predicate`, :func:`sql_select` and :func:`view_aliases`,
  its two-valued SQL rendering of predicates and view sides.

``tests/executor/test_constraint_faces.py`` asserts every
constraint's ``render()``, every rule's ``sql`` and every predicate's
``sql()`` equal these, text for text.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.relational.constraints import (
    CandidateKey,
    CheckConstraint,
    EqualityViewConstraint,
    ForeignKey,
    PrimaryKey,
    RelationalConstraint,
    SelectSpec,
    SubsetViewConstraint,
)
from repro.relational.predicates import (
    And,
    Compare,
    InValues,
    IsNull,
    Not,
    NotNull,
    Or,
    Predicate,
    render_literal,
)


class CompiledRule(NamedTuple):
    """A compiled rule with the fields it had before it asked its
    constraint."""

    name: str
    kind: str
    relation: str
    sql: str
    constraint: RelationalConstraint | None = None
    column: str | None = None


def render_select(spec: SelectSpec, indent: str = "    ") -> list[str]:
    """The lines of one parenthesized SELECT of a view constraint."""
    lines = [f"{indent}( SELECT {', '.join(spec.columns)}"]
    lines.append(f"{indent}  FROM {spec.relation}")
    if spec.where is not None:
        lines.append(f"{indent}  WHERE {spec.where.render()}")
    lines.append(f"{indent})")
    return lines


def render_constraint(constraint: RelationalConstraint) -> str:
    """A dialect-neutral textual rendering of any constraint."""
    if isinstance(constraint, PrimaryKey):
        return (
            f"PRIMARY KEY ( {', '.join(constraint.columns)} )\n"
            f"   ON {constraint.relation}\nCONSTRAINT {constraint.name}"
        )
    if isinstance(constraint, CandidateKey):
        return (
            f"UNIQUE ( {', '.join(constraint.columns)} )\n"
            f"   ON {constraint.relation}\nCONSTRAINT {constraint.name}"
        )
    if isinstance(constraint, ForeignKey):
        return (
            f"FOREIGN KEY {constraint.relation} "
            f"( {', '.join(constraint.columns)} )\n"
            f"REFERENCES {constraint.referenced_relation} "
            f"( {', '.join(constraint.referenced_columns)} )\n"
            f"CONSTRAINT {constraint.name}"
        )
    if isinstance(constraint, CheckConstraint):
        comment = f" -- {constraint.comment}" if constraint.comment else ""
        return (
            f"CHECK({comment}\n  {constraint.predicate.render()}\n)\n"
            f"   ON {constraint.relation}\nCONSTRAINT {constraint.name}"
        )
    if isinstance(constraint, EqualityViewConstraint):
        lines = ["EQUALITY VIEW CONSTRAINT :"]
        lines.extend(render_select(constraint.left))
        lines.append("    IS EQUAL TO")
        lines.extend(render_select(constraint.right))
        lines.append(f"CONSTRAINT {constraint.name}")
        return "\n".join(lines)
    if isinstance(constraint, SubsetViewConstraint):
        lines = ["SUBSET VIEW CONSTRAINT :"]
        lines.extend(render_select(constraint.subset))
        lines.append("    IS CONTAINED IN")
        lines.extend(render_select(constraint.superset))
        lines.append(f"CONSTRAINT {constraint.name}")
        return "\n".join(lines)
    return f"CONSTRAINT {constraint.name}"  # pragma: no cover - defensive


def sql_predicate(predicate: Predicate) -> str:
    """Render a predicate to SQL with two-valued semantics.

    Comparison and IN atoms — the only atoms that can evaluate to
    *unknown* — are wrapped in ``COALESCE((...), FALSE)`` so that SQL
    agrees with :meth:`Predicate.evaluate` on every row, including
    under negation (see ``Predicate.sql``).
    """
    if isinstance(predicate, IsNull):
        return f"( {predicate.column} IS NULL )"
    if isinstance(predicate, NotNull):
        return f"( {predicate.column} IS NOT NULL )"
    if isinstance(predicate, Compare):
        atom = (
            f"{predicate.column} {predicate.op} "
            f"{render_literal(predicate.value)}"
        )
        return f"COALESCE(( {atom} ), FALSE)"
    if isinstance(predicate, InValues):
        rendered = ", ".join(render_literal(v) for v in predicate.values)
        return f"COALESCE(( {predicate.column} IN ({rendered}) ), FALSE)"
    if isinstance(predicate, And):
        return (
            "( "
            + " AND ".join(sql_predicate(p) for p in predicate.operands)
            + " )"
        )
    if isinstance(predicate, Or):
        return (
            "( "
            + " OR ".join(sql_predicate(p) for p in predicate.operands)
            + " )"
        )
    if isinstance(predicate, Not):
        return f"( NOT {sql_predicate(predicate.operand)} )"
    raise TypeError(f"cannot compile predicate {predicate!r}")


def sql_select(spec: SelectSpec, aliases: tuple[str, ...]) -> str:
    """One side of a view constraint as a SQL subquery.

    Both sides of a view constraint are projected onto the same
    ``aliases`` so EXCEPT/UNION see union-compatible column lists
    even when the underlying column names differ.
    """
    columns = ", ".join(
        f"{column} AS {alias}" if column != alias else column
        for column, alias in zip(spec.columns, aliases)
    )
    sql = f"SELECT DISTINCT {columns} FROM {spec.relation}"
    if spec.where is not None:
        sql += f" WHERE {sql_predicate(spec.where)}"
    return sql


def view_aliases(count: int) -> tuple[str, ...]:
    """Neutral output column names shared by both sides."""
    return tuple(f"v{i + 1}" for i in range(count))


def compile_rules(schema) -> tuple[CompiledRule, ...]:
    """Every lossless rule of a relational schema, compiled."""
    rules: list[CompiledRule] = []
    for relation in schema.relations:
        for attribute in relation.attributes:
            if attribute.nullable:
                continue
            rules.append(
                CompiledRule(
                    name=f"NN$_{relation.name}_{attribute.name}",
                    kind="not-null",
                    relation=relation.name,
                    sql=(
                        f"SELECT * FROM {relation.name} "
                        f"WHERE {attribute.name} IS NULL"
                    ),
                    column=attribute.name,
                )
            )
    for constraint in schema.constraints:
        rules.append(_compile_constraint(constraint))
    return tuple(rules)


def _compile_constraint(constraint: RelationalConstraint) -> CompiledRule:
    if isinstance(constraint, (PrimaryKey, CandidateKey)):
        kind = (
            "primary-key"
            if isinstance(constraint, PrimaryKey)
            else "candidate-key"
        )
        columns = ", ".join(constraint.columns)
        # NULL keys are skipped, matching the engine's
        # ``duplicates(..., ignore_null=True)`` — entity integrity for
        # non-nullable key columns is the not-null rules' job.
        guards = " AND ".join(
            f"{column} IS NOT NULL" for column in constraint.columns
        )
        sql = (
            f"SELECT {columns}, COUNT(*) AS occurrences "
            f"FROM {constraint.relation} WHERE {guards} "
            f"GROUP BY {columns} HAVING COUNT(*) > 1"
        )
        return CompiledRule(constraint.name, kind, constraint.relation, sql,
                            constraint)
    if isinstance(constraint, ForeignKey):
        guards = " AND ".join(
            f"s.{column} IS NOT NULL" for column in constraint.columns
        )
        match = " AND ".join(
            f"t.{target} = s.{source}"
            for source, target in zip(
                constraint.columns, constraint.referenced_columns
            )
        )
        sql = (
            f"SELECT * FROM {constraint.relation} AS s "
            f"WHERE {guards} AND NOT EXISTS ("
            f"SELECT 1 FROM {constraint.referenced_relation} AS t "
            f"WHERE {match})"
        )
        return CompiledRule(
            constraint.name, "foreign-key", constraint.relation, sql,
            constraint,
        )
    if isinstance(constraint, CheckConstraint):
        sql = (
            f"SELECT * FROM {constraint.relation} "
            f"WHERE NOT {sql_predicate(constraint.predicate)}"
        )
        return CompiledRule(
            constraint.name, "check", constraint.relation, sql, constraint
        )
    if isinstance(constraint, EqualityViewConstraint):
        aliases = view_aliases(len(constraint.left.columns))
        left = sql_select(constraint.left, aliases)
        right = sql_select(constraint.right, aliases)
        names = ", ".join(aliases)
        sql = (
            f"SELECT 'only-left' AS side, {names} "
            f"FROM ( {left} EXCEPT {right} ) "
            f"UNION ALL "
            f"SELECT 'only-right' AS side, {names} "
            f"FROM ( {right} EXCEPT {left} )"
        )
        return CompiledRule(
            constraint.name,
            "equality-view",
            constraint.left.relation,
            sql,
            constraint,
        )
    if isinstance(constraint, SubsetViewConstraint):
        aliases = view_aliases(len(constraint.subset.columns))
        subset = sql_select(constraint.subset, aliases)
        superset = sql_select(constraint.superset, aliases)
        sql = f"{subset} EXCEPT {superset}"
        return CompiledRule(
            constraint.name,
            "subset-view",
            constraint.subset.relation,
            sql,
            constraint,
        )
    raise TypeError(f"cannot compile constraint {constraint!r}")
