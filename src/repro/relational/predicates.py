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

import itertools
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


# ----------------------------------------------------------------------
# The forms the mapper writes (paper section 4.1)
#
# Each builder sits next to its inverse.  An inverse returns the
# builder's operands only when rebuilding from them reproduces the
# predicate exactly, so the lift reads back precisely what the mapper
# writes.  A *presence* is the row test of one constraint item: a
# ``presence(columns)`` conjunction or an ``indicator(flag)`` test.
# ----------------------------------------------------------------------

DEPENDENT_EXISTENCE = "Dependent Existence"
EQUAL_EXISTENCE = "Equal Existence"
EXCLUSION = "Exclusion"
TOTAL_UNION = "Total Union"
VALUE_RESTRICTION = "Value Restriction"
CONDITIONAL_EQUALITY = "Conditional Equality"


def presence(columns: tuple[str, ...]) -> Predicate | None:
    """Every column NOT NULL; None (every row counts) for no columns."""
    return and_(*(NotNull(c) for c in columns)) if columns else None


def presence_columns(predicate: Predicate | None) -> tuple[str, ...] | None:
    """The columns of a :func:`presence` test, or None for another form."""
    if predicate is None:
        return ()
    operands = predicate.operands if isinstance(predicate, And) else (predicate,)
    columns = tuple(o.column for o in operands if isinstance(o, NotNull))
    return columns if len(columns) == len(operands) else None


def indicator(flag: str) -> Predicate:
    """The INDICATOR policy's membership test ``flag = 'Y'``."""
    return Compare(flag, "=", "Y")


def indicator_flag(predicate: Predicate | None) -> str | None:
    """The flag of an :func:`indicator` test, or None for another form."""
    if isinstance(predicate, Compare) and predicate == indicator(predicate.column):
        return predicate.column
    return None


def dependent_existence(dependent: Predicate, required: Predicate) -> Predicate:
    """The paper's *Dependent Existence* shape (``C_DE$`` rules).

    When ``dependent`` holds, ``required`` must hold too.  Between two
    single-column presences the absence is spelled ``IS NULL``::

        ( ( dependent IS NOT NULL ) AND ( required IS NOT NULL ) )
        OR ( dependent IS NULL )

    and between any other presences ``NOT dependent``.
    """
    if isinstance(dependent, NotNull) and isinstance(required, NotNull):
        return Or((And((dependent, required)), IsNull(dependent.column)))
    return Or((And((dependent, required)), Not(dependent)))


def dependent_existence_operands(
    predicate: Predicate,
) -> tuple[Predicate, Predicate] | None:
    """``(dependent, required)`` of a :func:`dependent_existence`."""
    if isinstance(predicate, Or) and isinstance(predicate.operands[0], And):
        both = predicate.operands[0].operands
        if len(both) == 2 and dependent_existence(*both) == predicate:
            return both[0], both[1]
    return None


def equal_existence(presences: tuple[Predicate, ...]) -> Predicate:
    """The paper's *Equal Existence* shape (``C_EE$`` rules).

    All presences hold together or none does.  Over single columns::

        ( ( a IS NULL ) AND ( b IS NULL ) )
        OR ( ( a IS NOT NULL ) AND ( b IS NOT NULL ) )

    and over any other presences ``( a AND b ) OR ( NOT a AND NOT b )``.
    """
    if len(presences) < 2:
        raise ValueError("equal existence needs at least two presences")
    columns = [p.column for p in presences if isinstance(p, NotNull)]
    if len(columns) == len(presences):
        return Or((And(tuple(IsNull(c) for c in columns)), And(presences)))
    return Or((And(presences), And(tuple(Not(p) for p in presences))))


def equal_existence_operands(
    predicate: Predicate,
) -> tuple[Predicate, ...] | None:
    """The presences of an :func:`equal_existence`."""
    if isinstance(predicate, Or) and len(predicate.operands) == 2:
        for side in reversed(predicate.operands):
            if isinstance(side, And) and equal_existence(side.operands) == predicate:
                return side.operands
    return None


def exclusion(presences: tuple[Predicate, ...]) -> Predicate:
    """Pairwise *Exclusion*: no two of the presences hold at once."""
    return and_(
        *(Or((Not(a), Not(b))) for a, b in itertools.combinations(presences, 2))
    )


def exclusion_operands(predicate: Predicate) -> tuple[Predicate, ...] | None:
    """The presences of an :func:`exclusion`, in order; a conjunction
    missing one of the pairs is not an exclusion."""
    pairs = predicate.operands if isinstance(predicate, And) else (predicate,)
    negated = [o for pair in pairs if isinstance(pair, Or) for o in pair.operands]
    presences = tuple(dict.fromkeys(o.operand for o in negated if isinstance(o, Not)))
    if len(presences) >= 2 and exclusion(presences) == predicate:
        return presences
    return None


def total_union(presences: tuple[Predicate, ...]) -> Predicate:
    """*Total Union*: at least one of the presences holds."""
    return or_(*presences)


def total_union_operands(predicate: Predicate) -> tuple[Predicate, ...] | None:
    """The presences of a :func:`total_union`: its disjuncts, when each
    is a :func:`presence` or an :func:`indicator` test."""
    presences = predicate.operands if isinstance(predicate, Or) else (predicate,)
    if all(presence_columns(p) or indicator_flag(p) for p in presences):
        return presences
    return None


def value_restriction(
    column: str, values: tuple[object, ...], nullable: bool
) -> Predicate:
    """*Value Restriction*: the column holds one of the values, or is
    NULL when it is nullable."""
    restriction = InValues(column, values)
    return Or((IsNull(column), restriction)) if nullable else restriction


def value_restriction_operands(
    predicate: Predicate,
) -> tuple[str, tuple[object, ...], bool] | None:
    """``(column, values, nullable)`` of a :func:`value_restriction`."""
    nullable = isinstance(predicate, Or)
    inner = predicate.operands[-1] if isinstance(predicate, Or) else predicate
    if isinstance(inner, InValues) and value_restriction(
        inner.column, inner.values, nullable
    ) == predicate:
        return inner.column, inner.values, nullable
    return None


def conditional_equality(flag: str, leg: str) -> Predicate:
    """The INDICATOR policy's *Conditional Equality*: the flag reads
    ``'Y'`` exactly when the sublink column is present."""
    return Or(
        (
            And((indicator(flag), NotNull(leg))),
            And((Compare(flag, "=", "N"), IsNull(leg))),
        )
    )


def conditional_equality_operands(predicate: Predicate) -> tuple[str, str] | None:
    """``(flag, leg)`` of a :func:`conditional_equality`."""
    if isinstance(predicate, Or) and isinstance(predicate.operands[0], And):
        first = predicate.operands[0].operands
        flag, legs = indicator_flag(first[0]), presence_columns(first[-1])
        if flag and legs and conditional_equality(flag, legs[0]) == predicate:
            return flag, legs[0]
    return None
