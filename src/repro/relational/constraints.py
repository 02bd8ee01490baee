"""Relational constraints, classical and extended.

Section 4.1: "Either we need to restrict the class of binary schemas
which can be transformed ... or we need to extend the relational model
with additional constraint types. ... Naturally, we have chosen to
extend the relational model."  The classical constraints (keys,
foreign keys, NOT NULL, CHECK) map onto SQL directly; the *view
constraints* (equality / subset over SELECT expressions) are the
"lossless rules" that most target DBMSs of the time could not enforce
— RIDL-M emits them as pseudo-SQL comments that act as formal
specifications for application programmers (section 4.2.2).

Each class is the one definition of its constraint kind.  It carries
the kind's rule ``kind`` string and three faces:

* :meth:`~RelationalConstraint.render` — the paper's pseudo-SQL house
  style, used verbatim by the map report and, prefixed with comment
  markers, by every DDL emitter ("Since most RDBMSs at this moment
  support constraints poorly ... these generated formal constraint
  specifications may have to find their way into the eventual
  application designs by hand", section 3.3), e.g.::

      EQUALITY VIEW CONSTRAINT :
          ( SELECT Paper_ProgramId
            FROM Program_Paper
          )
          IS EQUAL TO
          ( SELECT Paper_ProgramId_Is
            FROM Paper
            WHERE ( Paper_ProgramId_Is IS NOT NULL )
          )
      CONSTRAINT C_EQ$_3

* :meth:`~RelationalConstraint.checker_sql` — "a formal specification
  for a program segment to enforce this constraint" (section 4.2.2)
  made executable: one SQL query returning the violating rows or
  tuples, empty exactly when the constraint holds;
* :meth:`~RelationalConstraint.violating` — the same rows or tuples,
  computed by the in-memory engine's checking kernels, and
  :meth:`~RelationalConstraint.check`, the engine's report of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar

from repro.errors import IntegrityViolation, SchemaError
from repro.relational.predicates import Predicate

if TYPE_CHECKING:  # the engine imports this module
    from repro.engine.database import Database


@dataclass(frozen=True)
class RelationalConstraint:
    """Base class for constraints of the generic relational schema."""

    name: str

    #: The kind of rule the constraint compiles to (``"primary-key"``,
    #: ``"check"``, ...); the mutators and reports are keyed by it.
    kind: ClassVar[str]

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("constraint names must be non-empty")

    def columns_used(self) -> dict[str, frozenset[str]]:
        """Relation name -> referenced column names."""
        raise NotImplementedError

    def relations_used(self) -> frozenset[str]:
        """All relations the constraint mentions."""
        return frozenset(self.columns_used())

    def render(self) -> str:
        """The dialect-neutral pseudo-SQL text of the constraint."""
        raise NotImplementedError

    def checker_sql(self) -> str:
        """A SQL query returning the violating rows (or tuples).

        The constraint holds exactly when the query returns nothing.
        """
        raise NotImplementedError

    def violating(self, database: Database) -> list:
        """The rows (or tuples) of ``database`` violating the constraint.

        The in-memory engine's verdict: the same rows or tuples
        :meth:`checker_sql` returns, so their counts agree.
        """
        raise NotImplementedError

    def check(self, database: Database) -> list[IntegrityViolation]:
        """The engine's report of the violations, for ``Database.check()``."""
        raise NotImplementedError


def _key_columns(name: str, columns: tuple[str, ...]) -> None:
    if not columns:
        raise SchemaError(f"key constraint {name!r} needs at least one column")
    if len(set(columns)) != len(columns):
        raise SchemaError(f"key constraint {name!r} lists a column twice")


@dataclass(frozen=True)
class NotNullConstraint(RelationalConstraint):
    """NOT NULL on one column.

    The schema never stores one: an attribute's ``nullable`` flag is
    the one record of NOT NULL, from which the rule compiler builds
    this constraint per mandatory attribute.  The emitters print NOT
    NULL on the column line, and ``Database.check()`` reports NULLs
    row-major across a relation's mandatory columns, so the kind has
    no pseudo-SQL block and no report of its own.
    """

    kind: ClassVar[str] = "not-null"

    relation: str = ""
    column: str = ""

    def columns_used(self) -> dict[str, frozenset[str]]:
        return {self.relation: frozenset((self.column,))}

    def checker_sql(self) -> str:
        return f"SELECT * FROM {self.relation} WHERE {self.column} IS NULL"

    def violating(self, database: Database) -> list:
        return [
            row for row, _ in database.null_cells(self.relation, (self.column,))
        ]


@dataclass(frozen=True)
class _Key(RelationalConstraint):
    """What primary and candidate keys share: uniqueness of NULL-free
    key tuples."""

    #: The pseudo-SQL keyword of the key.
    keyword: ClassVar[str]

    relation: str = ""
    columns: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        super().__post_init__()
        _key_columns(self.name, self.columns)

    def columns_used(self) -> dict[str, frozenset[str]]:
        return {self.relation: frozenset(self.columns)}

    def render(self) -> str:
        return (
            f"{self.keyword} ( {', '.join(self.columns)} )\n"
            f"   ON {self.relation}\nCONSTRAINT {self.name}"
        )

    def checker_sql(self) -> str:
        columns = ", ".join(self.columns)
        # NULL keys are skipped, matching the engine's duplicate_keys —
        # entity integrity for non-nullable key columns is the not-null
        # rules' job.
        guards = " AND ".join(f"{column} IS NOT NULL" for column in self.columns)
        return (
            f"SELECT {columns}, COUNT(*) AS occurrences "
            f"FROM {self.relation} WHERE {guards} "
            f"GROUP BY {columns} HAVING COUNT(*) > 1"
        )

    def violating(self, database: Database) -> list:
        return database.duplicate_keys(self.relation, self.columns)

    def check(self, database: Database) -> list[IntegrityViolation]:
        return [
            IntegrityViolation(
                self.name, f"duplicate key {key!r} in {self.relation!r}"
            )
            for key in self.violating(database)
        ]


@dataclass(frozen=True)
class PrimaryKey(_Key):
    """The primary key of a relation (full underline in the paper)."""

    kind: ClassVar[str] = "primary-key"
    keyword: ClassVar[str] = "PRIMARY KEY"

    def check(self, database: Database) -> list[IntegrityViolation]:
        # Entity integrity — unless the attribute was explicitly made
        # nullable (the paper's "NULL ALLOWED" option deliberately
        # violates the Entity Integrity Rule, section 4.2.1), in which
        # case NULL keys are skipped for uniqueness.
        relation = database.schema.relation(self.relation)
        entity = [
            IntegrityViolation(
                self.name, f"NULL in primary key column {column!r}"
            )
            for column in self.columns
            if not relation.attribute(column).nullable
            for _ in database.null_cells(self.relation, (column,))
        ]
        return entity + super().check(database)


@dataclass(frozen=True)
class CandidateKey(_Key):
    """A candidate (alternate) key — dotted underline in the paper."""

    kind: ClassVar[str] = "candidate-key"
    keyword: ClassVar[str] = "UNIQUE"


@dataclass(frozen=True)
class ForeignKey(RelationalConstraint):
    """A referential-integrity arrow between two relations.

    NULLs in the referencing columns are permitted (match is only
    required for fully non-NULL source tuples), matching how the
    paper stores optional sublinks such as ``Paper_ProgramId_Is``.
    """

    kind: ClassVar[str] = "foreign-key"

    relation: str = ""
    columns: tuple[str, ...] = field(default=())
    referenced_relation: str = ""
    referenced_columns: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        super().__post_init__()
        _key_columns(self.name, self.columns)
        _key_columns(self.name, self.referenced_columns)

    def columns_used(self) -> dict[str, frozenset[str]]:
        used = {self.relation: frozenset(self.columns)}
        if self.referenced_relation == self.relation:
            used[self.relation] = frozenset(self.columns) | frozenset(
                self.referenced_columns
            )
        else:
            used[self.referenced_relation] = frozenset(self.referenced_columns)
        return used

    def render(self) -> str:
        return (
            f"FOREIGN KEY {self.relation} ( {', '.join(self.columns)} )\n"
            f"REFERENCES {self.referenced_relation} "
            f"( {', '.join(self.referenced_columns)} )\n"
            f"CONSTRAINT {self.name}"
        )

    def checker_sql(self) -> str:
        guards = " AND ".join(f"s.{column} IS NOT NULL" for column in self.columns)
        match = " AND ".join(
            f"t.{target} = s.{source}"
            for source, target in zip(self.columns, self.referenced_columns)
        )
        return (
            f"SELECT * FROM {self.relation} AS s "
            f"WHERE {guards} AND NOT EXISTS ("
            f"SELECT 1 FROM {self.referenced_relation} AS t "
            f"WHERE {match})"
        )

    def violating(self, database: Database) -> list:
        return database.unmatched_rows(self)

    def check(self, database: Database) -> list[IntegrityViolation]:
        return [
            IntegrityViolation(
                self.name,
                f"{self.relation!r} value "
                f"{tuple(row[c] for c in self.columns)!r} has no match "
                f"in {self.referenced_relation!r}"
                f"({', '.join(self.referenced_columns)})",
            )
            for row in self.violating(database)
        ]


@dataclass(frozen=True)
class CheckConstraint(RelationalConstraint):
    """A row-level CHECK on one relation.

    ``comment`` carries the paper's annotation style
    (``-- Dependent Existence``, ``-- Equal Existence``).
    """

    kind: ClassVar[str] = "check"

    relation: str = ""
    predicate: Predicate = field(default=None)  # type: ignore[assignment]
    comment: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.predicate is None:
            raise SchemaError(f"check constraint {self.name!r} needs a predicate")

    def columns_used(self) -> dict[str, frozenset[str]]:
        return {self.relation: self.predicate.columns()}

    def render(self) -> str:
        comment = f" -- {self.comment}" if self.comment else ""
        return (
            f"CHECK({comment}\n  {self.predicate.render()}\n)\n"
            f"   ON {self.relation}\nCONSTRAINT {self.name}"
        )

    def checker_sql(self) -> str:
        return f"SELECT * FROM {self.relation} WHERE NOT {self.predicate.sql()}"

    def violating(self, database: Database) -> list:
        evaluate = self.predicate.evaluate
        return [row for row in database.iter_rows(self.relation) if not evaluate(row)]

    def check(self, database: Database) -> list[IntegrityViolation]:
        return [
            IntegrityViolation(
                self.name, f"row {row!r} fails {self.predicate.render()}"
            )
            for row in self.violating(database)
        ]


@dataclass(frozen=True)
class SelectSpec:
    """One side of a view constraint: SELECT columns FROM relation
    [WHERE predicate]."""

    relation: str
    columns: tuple[str, ...]
    where: Predicate | None = None

    def __post_init__(self) -> None:
        if not self.columns:
            raise SchemaError("a view-constraint SELECT needs columns")

    def columns_used(self) -> frozenset[str]:
        used = frozenset(self.columns)
        if self.where is not None:
            used |= self.where.columns()
        return used

    def render(self) -> list[str]:
        """The pseudo-SQL lines of this side as a parenthesized SELECT."""
        lines = [f"    ( SELECT {', '.join(self.columns)}"]
        lines.append(f"      FROM {self.relation}")
        if self.where is not None:
            lines.append(f"      WHERE {self.where.render()}")
        lines.append("    )")
        return lines

    def sql(self, aliases: tuple[str, ...]) -> str:
        """This side as a SQL subquery projected onto ``aliases``.

        Both sides of a view constraint are projected onto the same
        aliases so EXCEPT/UNION see union-compatible column lists even
        when the underlying column names differ.
        """
        columns = ", ".join(
            f"{column} AS {alias}" if column != alias else column
            for column, alias in zip(self.columns, aliases)
        )
        sql = f"SELECT DISTINCT {columns} FROM {self.relation}"
        if self.where is not None:
            sql += f" WHERE {self.where.sql()}"
        return sql


@dataclass(frozen=True)
class _View(RelationalConstraint):
    """What the view constraints share: two SELECTs of equal width."""

    #: How validation errors name the constraint.
    label: ClassVar[str]

    @property
    def sides(self) -> tuple[SelectSpec, SelectSpec]:
        """The two SELECTs, in declaration order."""
        raise NotImplementedError

    @property
    def relation(self) -> str:
        """The first side's relation."""
        return self.sides[0].relation

    def __post_init__(self) -> None:
        super().__post_init__()
        first, second = self.sides
        if first is None or second is None:
            raise SchemaError(f"{self.label} {self.name!r} needs two SELECTs")
        if len(first.columns) != len(second.columns):
            raise SchemaError(
                f"{self.label} {self.name!r} has mismatched column counts"
            )

    def columns_used(self) -> dict[str, frozenset[str]]:
        used: dict[str, frozenset[str]] = {}
        for spec in self.sides:
            used[spec.relation] = used.get(spec.relation, frozenset()) | (
                spec.columns_used()
            )
        return used

    def _render(self, head: str, joint: str) -> str:
        first, second = self.sides
        return "\n".join(
            [head, *first.render(), f"    {joint}", *second.render(),
             f"CONSTRAINT {self.name}"]
        )

    def _aliases(self) -> tuple[str, ...]:
        """Neutral output column names both sides' SQL is projected onto."""
        return tuple(f"v{i + 1}" for i in range(len(self.sides[0].columns)))


@dataclass(frozen=True)
class EqualityViewConstraint(_View):
    """The paper's ``EQUALITY VIEW CONSTRAINT`` (``C_EQ$`` rules).

    The two SELECT expressions must always denote the same set of
    tuples — e.g. the primary keys of a sub-relation versus the
    non-NULL sublink attribute of the super-relation (Alternative 3),
    or the conditional-equality rule of the indicator option.
    """

    kind: ClassVar[str] = "equality-view"
    label: ClassVar[str] = "equality view constraint"

    left: SelectSpec = field(default=None)  # type: ignore[assignment]
    right: SelectSpec = field(default=None)  # type: ignore[assignment]
    comment: str = ""

    @property
    def sides(self) -> tuple[SelectSpec, SelectSpec]:
        return self.left, self.right

    def render(self) -> str:
        return self._render("EQUALITY VIEW CONSTRAINT :", "IS EQUAL TO")

    def checker_sql(self) -> str:
        aliases = self._aliases()
        left = self.left.sql(aliases)
        right = self.right.sql(aliases)
        names = ", ".join(aliases)
        return (
            f"SELECT 'only-left' AS side, {names} "
            f"FROM ( {left} EXCEPT {right} ) "
            "UNION ALL "
            f"SELECT 'only-right' AS side, {names} "
            f"FROM ( {right} EXCEPT {left} )"
        )

    def violating(self, database: Database) -> list:
        left = database.evaluate_select(self.left)
        right = database.evaluate_select(self.right)
        return sorted(left ^ right, key=repr)

    def check(self, database: Database) -> list[IntegrityViolation]:
        left = database.evaluate_select(self.left)
        right = database.evaluate_select(self.right)
        if left == right:
            return []
        return [
            IntegrityViolation(
                self.name,
                f"view sets differ: only-left={sorted(left - right, key=repr)!r} "
                f"only-right={sorted(right - left, key=repr)!r}",
            )
        ]


@dataclass(frozen=True)
class SubsetViewConstraint(_View):
    """A one-directional view inclusion (``C_SUB$`` rules).

    Every tuple of the ``subset`` SELECT appears in the ``superset``
    SELECT — the generalization of a foreign key to predicated views.
    """

    kind: ClassVar[str] = "subset-view"
    label: ClassVar[str] = "subset view constraint"

    subset: SelectSpec = field(default=None)  # type: ignore[assignment]
    superset: SelectSpec = field(default=None)  # type: ignore[assignment]
    comment: str = ""

    @property
    def sides(self) -> tuple[SelectSpec, SelectSpec]:
        return self.subset, self.superset

    def render(self) -> str:
        return self._render("SUBSET VIEW CONSTRAINT :", "IS CONTAINED IN")

    def checker_sql(self) -> str:
        aliases = self._aliases()
        return f"{self.subset.sql(aliases)} EXCEPT {self.superset.sql(aliases)}"

    def violating(self, database: Database) -> list:
        subset = database.evaluate_select(self.subset)
        superset = database.evaluate_select(self.superset)
        return sorted(subset - superset, key=repr)

    def check(self, database: Database) -> list[IntegrityViolation]:
        stray = self.violating(database)
        if not stray:
            return []
        return [
            IntegrityViolation(
                self.name, f"tuples {stray!r} are not in the superset view"
            )
        ]
