"""The pre-index :class:`RelationalSchema` constraint lookups, and the
lifter's hand-written CHECK recognisers.

:class:`RelationalScanOracle` keeps the scan bodies that
``repro/relational/schema.py`` used before the per-relation constraint
index, verbatim: every lookup walks all constraints in insertion
order.  ``tests/relational/test_schema_index.py`` asserts the indexed
lookups equal these, element for element and in order.  The
recognisers are described at the end of the module.
"""

from __future__ import annotations

from repro.relational.constraints import (
    CandidateKey,
    CheckConstraint,
    EqualityViewConstraint,
    ForeignKey,
    PrimaryKey,
    RelationalConstraint,
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
)
from repro.relational.schema import RelationalSchema


class RelationalScanOracle:
    """Linear-scan lookups over a snapshot of a schema's constraints."""

    def __init__(self, schema: RelationalSchema) -> None:
        self._constraints: dict[str, RelationalConstraint] = {
            c.name: c for c in schema.constraints
        }

    def primary_key(self, relation_name: str) -> PrimaryKey | None:
        """The relation's primary key constraint, if declared."""
        for constraint in self._constraints.values():
            if (
                isinstance(constraint, PrimaryKey)
                and constraint.relation == relation_name
            ):
                return constraint
        return None

    def candidate_keys(self, relation_name: str) -> list[CandidateKey]:
        """All candidate key constraints on the relation."""
        return [
            c
            for c in self._constraints.values()
            if isinstance(c, CandidateKey) and c.relation == relation_name
        ]

    def keys_of(self, relation_name: str) -> list[tuple[str, ...]]:
        """Primary plus candidate key column tuples of the relation."""
        keys = []
        primary = self.primary_key(relation_name)
        if primary is not None:
            keys.append(primary.columns)
        keys.extend(c.columns for c in self.candidate_keys(relation_name))
        return keys

    def foreign_keys(self, relation_name: str | None = None) -> list[ForeignKey]:
        """Foreign keys, optionally restricted to one source relation."""
        return [
            c
            for c in self._constraints.values()
            if isinstance(c, ForeignKey)
            and (relation_name is None or c.relation == relation_name)
        ]

    def checks(self, relation_name: str | None = None) -> list[CheckConstraint]:
        """CHECK constraints, optionally restricted to one relation."""
        return [
            c
            for c in self._constraints.values()
            if isinstance(c, CheckConstraint)
            and (relation_name is None or c.relation == relation_name)
        ]

    def view_constraints(self) -> list[RelationalConstraint]:
        """The extended (equality/subset view) constraints — the
        lossless rules most RDBMSs cannot enforce natively."""
        return [
            c
            for c in self._constraints.values()
            if isinstance(c, (EqualityViewConstraint, SubsetViewConstraint))
        ]

    def fresh_constraint_name(self, stem: str) -> str:
        """An unused constraint name with the paper's ``STEM$_n`` style."""
        counter = 1
        while f"{stem}_{counter}" in self._constraints:
            counter += 1
        return f"{stem}_{counter}"


# ----------------------------------------------------------------------
# The lifter's hand-written CHECK recognisers
#
# ``repro/mapper/reverse.py`` recognised each lossless-rule CHECK with
# its own predicate-tree pattern before every form got one builder and
# one exact inverse in ``repro/relational/predicates.py``.  These are
# those patterns, verbatim but for returning the shape instead of
# resolving items; ``tests/relational/test_check_forms.py`` asserts
# they agree with the inverses on everything the mapper emits.
# ----------------------------------------------------------------------


def value_shape(predicate: Predicate) -> tuple[str, tuple] | None:
    """``(column, values)`` from a Value Restriction CHECK."""
    if isinstance(predicate, InValues):
        return predicate.column, tuple(predicate.values)
    if isinstance(predicate, Compare) and predicate.op == "=":
        return predicate.column, (predicate.value,)
    if (
        isinstance(predicate, Or)
        and len(predicate.operands) == 2
        and isinstance(predicate.operands[0], IsNull)
    ):
        inner = value_shape(predicate.operands[1])
        if inner is not None and inner[0] == predicate.operands[0].column:
            return inner
    return None


def notnull_columns(where: Predicate | None) -> set[str] | None:
    """The columns of a NOT-NULL-conjunction WHERE, ``set()`` for no
    WHERE, or None when the predicate has another shape."""
    if where is None:
        return set()
    if isinstance(where, NotNull):
        return {where.column}
    if isinstance(where, And) and all(
        isinstance(o, NotNull) for o in where.operands
    ):
        return {o.column for o in where.operands}
    return None


def dependent_existence_columns(predicate: Predicate) -> tuple[str, str] | None:
    """``(dependent, required)`` of the NOT NULL spelling only."""
    if not (
        isinstance(predicate, Or)
        and len(predicate.operands) == 2
        and isinstance(predicate.operands[0], And)
        and len(predicate.operands[0].operands) == 2
        and isinstance(predicate.operands[1], IsNull)
    ):
        return None
    both = predicate.operands[0].operands
    if not all(isinstance(o, NotNull) for o in both):
        return None
    dependent, required = both[0].column, both[1].column
    if predicate.operands[1].column != dependent:
        return None
    return dependent, required


def equal_existence_columns(predicate: Predicate) -> list[str] | None:
    """The columns of the NOT NULL spelling only."""
    if not (
        isinstance(predicate, Or)
        and len(predicate.operands) == 2
        and isinstance(predicate.operands[0], And)
        and isinstance(predicate.operands[1], And)
    ):
        return None
    nulls, notnulls = predicate.operands
    if not all(isinstance(o, IsNull) for o in nulls.operands):
        return None
    if not all(isinstance(o, NotNull) for o in notnulls.operands):
        return None
    columns = [o.column for o in notnulls.operands]
    if [o.column for o in nulls.operands] != columns:
        return None
    return columns


def exclusion_terms(predicate: Predicate) -> list[Predicate] | None:
    """The negated terms of every ``( NOT a ) OR ( NOT b )`` pair, in
    order of first appearance; pairs are never counted."""
    pairs = predicate.operands if isinstance(predicate, And) else (predicate,)
    terms: list[Predicate] = []
    for pair in pairs:
        if not (
            isinstance(pair, Or)
            and len(pair.operands) == 2
            and all(isinstance(o, Not) for o in pair.operands)
        ):
            return None
        for negated in pair.operands:
            if negated.operand not in terms:
                terms.append(negated.operand)
    return terms if len(terms) >= 2 else None


def total_union_terms(predicate: Predicate) -> tuple[Predicate, ...]:
    """The disjuncts, each resolved to an item by the lifter."""
    return predicate.operands if isinstance(predicate, Or) else (predicate,)
