"""The pre-index :class:`BinarySchema` navigation queries.

:class:`LinearScanOracle` keeps the linear scans that
``repro/brm/schema.py`` ran before the version-stamped index layer
(``repro.brm.indexes``).  ``tests/brm/test_indexes.py`` asserts the
indexed queries agree with it after randomized mutation sequences, and
``benchmarks/bench_schema_queries.py`` measures the gap.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.brm.constraints import (
    Constraint,
    ConstraintItem,
    EqualityConstraint,
    ExclusionConstraint,
    SubsetConstraint,
    TotalUnionConstraint,
    UniquenessConstraint,
    ValueConstraint,
    items_of,
)
from repro.brm.facts import FactType, RoleId
from repro.brm.sublinks import SublinkType

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.brm.schema import BinarySchema


class LinearScanOracle:
    """The pre-index query implementations, kept as a reference oracle.

    Every method mirrors the corresponding :class:`BinarySchema` query
    by scanning the element tuples, exactly as ``schema.py`` did
    before the index layer.
    """

    def __init__(self, schema: "BinarySchema") -> None:
        self.schema = schema

    def roles_played_by(self, type_name: str) -> list[RoleId]:
        played = []
        for fact in self.schema.fact_types:
            for role in fact.roles:
                if role.player == type_name:
                    played.append(RoleId(fact.name, role.name))
        return played

    def facts_involving(self, type_name: str) -> list[FactType]:
        return [
            fact
            for fact in self.schema.fact_types
            if type_name in fact.players
        ]

    def sublinks_from(self, subtype: str) -> list[SublinkType]:
        return [s for s in self.schema.sublinks if s.subtype == subtype]

    def sublinks_to(self, supertype: str) -> list[SublinkType]:
        return [s for s in self.schema.sublinks if s.supertype == supertype]

    def supertypes_of(self, name: str) -> set[str]:
        return {s.supertype for s in self.sublinks_from(name)}

    def subtypes_of(self, name: str) -> set[str]:
        return {s.subtype for s in self.sublinks_to(name)}

    def ancestors_of(self, name: str) -> set[str]:
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for supertype in self.supertypes_of(current):
                if supertype not in seen:
                    seen.add(supertype)
                    frontier.append(supertype)
        return seen

    def descendants_of(self, name: str) -> set[str]:
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for subtype in self.subtypes_of(current):
                if subtype not in seen:
                    seen.add(subtype)
                    frontier.append(subtype)
        return seen

    def root_supertypes_of(self, name: str) -> set[str]:
        ancestors = self.ancestors_of(name)
        if not ancestors:
            return {name}
        return {a for a in ancestors if not self.supertypes_of(a)}

    def constraints_over(self, item: ConstraintItem) -> list[Constraint]:
        return [
            c for c in self.schema.constraints if item in items_of(c)
        ]

    def uniqueness_constraints(self) -> list[UniquenessConstraint]:
        return [
            c
            for c in self.schema.constraints
            if isinstance(c, UniquenessConstraint)
        ]

    def is_unique(self, role_id: RoleId) -> bool:
        return any(
            c.is_simple and c.roles[0] == role_id
            for c in self.uniqueness_constraints()
        )

    def is_total(self, role_id: RoleId) -> bool:
        return any(
            isinstance(c, TotalUnionConstraint)
            and c.is_total_role
            and c.items[0] == role_id
            for c in self.schema.constraints
        )

    def functional_roles_of(self, type_name: str) -> list[RoleId]:
        return [
            role_id
            for role_id in self.roles_played_by(type_name)
            if self.is_unique(role_id)
        ]

    def exclusions(self) -> list[ExclusionConstraint]:
        return [
            c
            for c in self.schema.constraints
            if isinstance(c, ExclusionConstraint)
        ]

    def equalities(self) -> list[EqualityConstraint]:
        return [
            c
            for c in self.schema.constraints
            if isinstance(c, EqualityConstraint)
        ]

    def subsets(self) -> list[SubsetConstraint]:
        return [
            c
            for c in self.schema.constraints
            if isinstance(c, SubsetConstraint)
        ]

    def totals(self) -> list[TotalUnionConstraint]:
        return [
            c
            for c in self.schema.constraints
            if isinstance(c, TotalUnionConstraint)
        ]

    def total_constraints_on(
        self, type_name: str
    ) -> list[TotalUnionConstraint]:
        return [c for c in self.totals() if c.object_type == type_name]

    def value_constraint_on(self, type_name: str) -> ValueConstraint | None:
        for constraint in self.schema.constraints:
            if (
                isinstance(constraint, ValueConstraint)
                and constraint.object_type == type_name
            ):
                return constraint
        return None
