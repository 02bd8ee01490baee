"""Row predicates — the expression language of CHECK constraints.

The paper's lossless rules include CHECK constraints such as::

    CHECK( -- Dependent Existence
      (  ( Person_presenting IS NOT NULL )
     AND ( Paper_ProgramId_with IS NOT NULL ) )
      OR ( Person_presenting IS NULL ) )
    CONSTRAINT C_DE$_8

Predicates are small immutable trees over column tests.  They can be
*evaluated* against a row (a mapping from column name to value, with
``None`` for SQL NULL) by the in-memory engine, *rendered* to SQL
text by the dialect emitters, and compiled to the two-valued SQL of
the checker queries (:meth:`Predicate.sql`).

SQL three-valued logic is deliberately simplified to two-valued
evaluation here: the only atoms we generate compare against NULL or
against constants, for which two-valued logic agrees with SQL's
``CHECK`` acceptance rule (a CHECK passes unless it evaluates to
false; our atoms never evaluate to unknown).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass


class Predicate:
    """Base class for row predicates."""

    def evaluate(self, row: Mapping[str, object]) -> bool:
        """True when the row satisfies the predicate."""
        raise NotImplementedError

    def columns(self) -> frozenset[str]:
        """All column names the predicate mentions."""
        raise NotImplementedError

    def render(self) -> str:
        """A SQL-like textual rendering (dialect-neutral)."""
        raise NotImplementedError

    def sql(self) -> str:
        """The predicate as SQL with the engine's two-valued semantics.

        The in-memory engine evaluates predicates two-valued: a
        comparison against NULL is simply *false*.  Plain SQL is
        three-valued, and the difference is observable once a checker
        query negates a predicate: ``NOT (flag = 'Y')`` is *unknown*
        for a NULL flag in SQL (row not returned — violation missed)
        but *true* in the engine (violation reported).  To keep every
        backend's verdict identical, comparison and IN atoms — the
        only atoms that can evaluate to *unknown* — are wrapped in
        ``COALESCE((...), FALSE)``, collapsing *unknown* to *false*
        before any negation, the same collapse :meth:`evaluate`
        performs.  ``IS [NOT] NULL`` tests are already two-valued in
        SQL and are rendered verbatim, so the guards of a view
        constraint's checker match its pseudo-SQL guard for guard.
        """
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()


@dataclass(frozen=True)
class IsNull(Predicate):
    """``column IS NULL``."""

    column: str

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return row.get(self.column) is None

    def columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def render(self) -> str:
        return f"( {self.column} IS NULL )"

    def sql(self) -> str:
        return self.render()


@dataclass(frozen=True)
class NotNull(Predicate):
    """``column IS NOT NULL``."""

    column: str

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return row.get(self.column) is not None

    def columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def render(self) -> str:
        return f"( {self.column} IS NOT NULL )"

    def sql(self) -> str:
        return self.render()


@dataclass(frozen=True)
class Compare(Predicate):
    """``column <op> literal`` with op in ``= <> < <= > >=``.

    NULL never satisfies a comparison (SQL semantics: unknown, and a
    row with unknown is treated as not matching for our purposes).
    """

    column: str
    op: str
    value: object

    _OPS = ("=", "<>", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unsupported comparison operator {self.op!r}")

    def evaluate(self, row: Mapping[str, object]) -> bool:
        actual = row.get(self.column)
        if actual is None:
            return False
        if self.op == "=":
            return actual == self.value
        if self.op == "<>":
            return actual != self.value
        if self.op == "<":
            return actual < self.value  # type: ignore[operator]
        if self.op == "<=":
            return actual <= self.value  # type: ignore[operator]
        if self.op == ">":
            return actual > self.value  # type: ignore[operator]
        return actual >= self.value  # type: ignore[operator]

    def columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def render(self) -> str:
        return f"( {self.column} {self.op} {render_literal(self.value)} )"

    def sql(self) -> str:
        return f"COALESCE({self.render()}, FALSE)"


@dataclass(frozen=True)
class InValues(Predicate):
    """``column IN (v1, v2, ...)`` — NULL does not match."""

    column: str
    values: tuple[object, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("IN predicate needs at least one value")

    def evaluate(self, row: Mapping[str, object]) -> bool:
        actual = row.get(self.column)
        return actual is not None and actual in self.values

    def columns(self) -> frozenset[str]:
        return frozenset({self.column})

    def render(self) -> str:
        rendered = ", ".join(render_literal(v) for v in self.values)
        return f"( {self.column} IN ({rendered}) )"

    def sql(self) -> str:
        return f"COALESCE({self.render()}, FALSE)"


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of sub-predicates."""

    operands: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ValueError("AND needs at least two operands")

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return all(p.evaluate(row) for p in self.operands)

    def columns(self) -> frozenset[str]:
        return frozenset().union(*(p.columns() for p in self.operands))

    def render(self) -> str:
        return "( " + " AND ".join(p.render() for p in self.operands) + " )"

    def sql(self) -> str:
        return "( " + " AND ".join(p.sql() for p in self.operands) + " )"


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of sub-predicates."""

    operands: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ValueError("OR needs at least two operands")

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return any(p.evaluate(row) for p in self.operands)

    def columns(self) -> frozenset[str]:
        return frozenset().union(*(p.columns() for p in self.operands))

    def render(self) -> str:
        return "( " + " OR ".join(p.render() for p in self.operands) + " )"

    def sql(self) -> str:
        return "( " + " OR ".join(p.sql() for p in self.operands) + " )"


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a sub-predicate."""

    operand: Predicate

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return not self.operand.evaluate(row)

    def columns(self) -> frozenset[str]:
        return self.operand.columns()

    def render(self) -> str:
        return f"( NOT {self.operand.render()} )"

    def sql(self) -> str:
        return f"( NOT {self.operand.sql()} )"


def render_literal(value: object) -> str:
    """SQL spelling of a Python literal value."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "'Y'" if value else "'N'"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)


def and_(*operands: Predicate) -> Predicate:
    """N-ary AND that collapses the single-operand case."""
    if len(operands) == 1:
        return operands[0]
    return And(tuple(operands))


def or_(*operands: Predicate) -> Predicate:
    """N-ary OR that collapses the single-operand case."""
    if len(operands) == 1:
        return operands[0]
    return Or(tuple(operands))


def dependent_existence(dependent: str, required: str) -> Predicate:
    """The paper's *Dependent Existence* shape (``C_DE$`` rules).

    When ``dependent`` is present, ``required`` must be present too::

        ( ( dependent IS NOT NULL ) AND ( required IS NOT NULL ) )
        OR ( dependent IS NULL )
    """
    return Or(
        (
            And((NotNull(dependent), NotNull(required))),
            IsNull(dependent),
        )
    )


def equal_existence(columns: tuple[str, ...]) -> Predicate:
    """The paper's *Equal Existence* shape (``C_EE$`` rules).

    All listed columns are NULL together or NOT NULL together::

        ( ( a IS NULL ) AND ( b IS NULL ) )
        OR ( ( a IS NOT NULL ) AND ( b IS NOT NULL ) )
    """
    if len(columns) < 2:
        raise ValueError("equal existence needs at least two columns")
    return Or(
        (
            And(tuple(IsNull(c) for c in columns)),
            And(tuple(NotNull(c) for c in columns)),
        )
    )
