"""The pre-index :class:`RelationalSchema` constraint lookups.

:class:`RelationalScanOracle` keeps the scan bodies that
``repro/relational/schema.py`` used before the per-relation constraint
index, verbatim: every lookup walks all constraints in insertion
order.  ``tests/relational/test_schema_index.py`` asserts the indexed
lookups equal these, element for element and in order.
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
