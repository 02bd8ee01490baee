"""The binary conceptual schema container.

A :class:`BinarySchema` holds the four element populations of a BRM
schema — object types, fact types, sublink types and constraints — and
offers the navigation queries the analyzer and the mapper are built
on.  Elements are immutable value objects referring to each other by
name; the schema owns the name spaces and validates references as
elements are added (mirroring how "certain rules of the BRM are
enforced by RIDL-G as the schema is constructed", section 3.2).

Deep semantic checks (completeness, constraint consistency,
referability) live in :mod:`repro.analyzer`.

Every mutation bumps the schema's **version stamp** to a globally
fresh value (see :data:`_VERSION_COUNTER`), so equal stamps imply
equal element sets; the navigation queries are answered from the
version-cached indexes of :mod:`repro.brm.indexes`, and downstream
consumers (the analyzer memos, the per-step guards of
:mod:`repro.robustness.guards`) use the stamp for O(1) change
detection instead of structural diffs.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

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
from repro.brm.facts import FactType, Role, RoleId
from repro.brm.indexes import indexes_for
from repro.brm.objects import ObjectKind, ObjectType
from repro.brm.sublinks import SublinkRef, SublinkType
from repro.observability.tracer import count as _obs_count
from repro.errors import (
    ConstraintError,
    DuplicateNameError,
    SchemaError,
    UnknownElementError,
)

#: Global monotonic source of version stamps.  Stamps are unique per
#: mutation event across *all* schemas, so two schemas carry the same
#: stamp only when one is a :meth:`BinarySchema.copy` of the other
#: (or of a common original) and neither was mutated since — which
#: makes "equal stamps" a sound O(1) proxy for "equal element sets".
_VERSION_COUNTER = itertools.count(1)


class BinarySchema:
    """A mutable collection of BRM schema elements with validation."""

    def __init__(self, name: str = "schema") -> None:
        if not name:
            raise SchemaError("schema names must be non-empty")
        self.name = name
        self._object_types: dict[str, ObjectType] = {}
        self._fact_types: dict[str, FactType] = {}
        self._sublinks: dict[str, SublinkType] = {}
        self._constraints: dict[str, Constraint] = {}
        self._version: int = next(_VERSION_COUNTER)
        # One-element cell holding (version, SchemaIndexes) or None.
        # copy() shares the cell, so a schema and its copies converge
        # on one index object for as long as they stay at the same
        # version; _bump() detaches into a fresh cell so a diverging
        # mutation never clobbers the entry its copies still use.
        self._index_cache: list = [None]

    @property
    def version(self) -> int:
        """The schema's version stamp; bumped by every mutation."""
        return self._version

    def _bump(self) -> None:
        self._version = next(_VERSION_COUNTER)
        self._index_cache = [None]
        _obs_count("schema.version_bumps")

    # ------------------------------------------------------------------
    # Element addition / removal
    # ------------------------------------------------------------------

    def add_object_type(self, object_type: ObjectType) -> ObjectType:
        """Add an object type; its name must be fresh."""
        if object_type.name in self._object_types:
            raise DuplicateNameError("object type", object_type.name)
        self._object_types[object_type.name] = object_type
        self._bump()
        return object_type

    def add_fact_type(self, fact_type: FactType) -> FactType:
        """Add a fact type; both players must already exist."""
        if fact_type.name in self._fact_types:
            raise DuplicateNameError("fact type", fact_type.name)
        for role in fact_type.roles:
            if role.player not in self._object_types:
                raise UnknownElementError("object type", role.player)
        self._fact_types[fact_type.name] = fact_type
        self._bump()
        return fact_type

    def add_sublink(self, sublink: SublinkType) -> SublinkType:
        """Add a sublink type.

        Both ends must exist and be non-lexical (a LOT cannot have or
        be a subtype), and the link must not create a cycle in the
        subtype graph.
        """
        if sublink.name in self._sublinks:
            raise DuplicateNameError("sublink type", sublink.name)
        for end in (sublink.subtype, sublink.supertype):
            if end not in self._object_types:
                raise UnknownElementError("object type", end)
            if self._object_types[end].kind is ObjectKind.LOT:
                raise SchemaError(
                    f"sublink {sublink.name!r}: LOT {end!r} cannot take "
                    "part in a sublink type"
                )
        if sublink.supertype in self.descendants_of(sublink.subtype):
            raise SchemaError(
                f"sublink {sublink.name!r} would create a subtype cycle "
                f"between {sublink.subtype!r} and {sublink.supertype!r}"
            )
        if sublink.supertype == sublink.subtype:
            raise SchemaError(f"sublink {sublink.name!r} is reflexive")
        self._sublinks[sublink.name] = sublink
        self._bump()
        return sublink

    def add_constraint(self, constraint: Constraint) -> Constraint:
        """Add a constraint; every item it ranges over must exist."""
        if constraint.name in self._constraints:
            raise DuplicateNameError("constraint", constraint.name)
        for item in items_of(constraint):
            self._check_item(constraint.name, item)
        if isinstance(constraint, (TotalUnionConstraint, ValueConstraint)):
            if constraint.object_type not in self._object_types:
                raise UnknownElementError("object type", constraint.object_type)
        if isinstance(constraint, TotalUnionConstraint):
            self._check_total_items(constraint)
        if isinstance(constraint, ValueConstraint):
            if not self._object_types[constraint.object_type].is_lexical:
                raise ConstraintError(
                    f"value constraint {constraint.name!r} must target a "
                    "lexical object type"
                )
        self._constraints[constraint.name] = constraint
        self._bump()
        return constraint

    def _check_item(self, constraint_name: str, item: ConstraintItem) -> None:
        if isinstance(item, RoleId):
            fact = self._fact_types.get(item.fact)
            if fact is None:
                raise UnknownElementError("fact type", item.fact)
            try:
                fact.role(item.role)
            except KeyError as exc:
                raise UnknownElementError("role", str(item)) from exc
        elif isinstance(item, SublinkRef):
            if item.sublink not in self._sublinks:
                raise UnknownElementError("sublink type", item.sublink)
        else:  # pragma: no cover - defensive
            raise ConstraintError(
                f"constraint {constraint_name!r} has an item of "
                f"unsupported type {type(item).__name__}"
            )

    def _check_total_items(self, constraint: TotalUnionConstraint) -> None:
        """Each item of a total union must be attached to the object type."""
        for item in constraint.items:
            if isinstance(item, RoleId):
                player = self.player_name(item)
                if player != constraint.object_type and (
                    constraint.object_type not in self.ancestors_of(player)
                    and player not in self.ancestors_of(constraint.object_type)
                ):
                    raise ConstraintError(
                        f"total constraint {constraint.name!r}: role "
                        f"{item} is not played by {constraint.object_type!r} "
                        "or a type related to it"
                    )
            else:
                sublink = self._sublinks[item.sublink]
                if sublink.supertype != constraint.object_type:
                    raise ConstraintError(
                        f"total constraint {constraint.name!r}: sublink "
                        f"{item.sublink!r} is not a sublink of "
                        f"{constraint.object_type!r}"
                    )

    def remove_object_type(self, name: str) -> None:
        """Remove an object type; it must not be referenced anywhere."""
        self._require_object_type(name)
        for fact in self._fact_types.values():
            if name in fact.players:
                raise SchemaError(
                    f"object type {name!r} is still played in fact "
                    f"type {fact.name!r}"
                )
        for sublink in self._sublinks.values():
            if name in (sublink.subtype, sublink.supertype):
                raise SchemaError(
                    f"object type {name!r} still takes part in sublink "
                    f"{sublink.name!r}"
                )
        for constraint in self._constraints.values():
            if isinstance(
                constraint, (TotalUnionConstraint, ValueConstraint)
            ) and constraint.object_type == name:
                raise SchemaError(
                    f"object type {name!r} is still constrained by "
                    f"{constraint.name!r}"
                )
        del self._object_types[name]
        self._bump()

    def remove_fact_type(self, name: str) -> None:
        """Remove a fact type together with nothing — constraints on its
        roles must have been removed first."""
        if name not in self._fact_types:
            raise UnknownElementError("fact type", name)
        for constraint in self._constraints.values():
            if any(
                isinstance(item, RoleId) and item.fact == name
                for item in items_of(constraint)
            ):
                raise SchemaError(
                    f"fact type {name!r} is still constrained by "
                    f"{constraint.name!r}"
                )
        del self._fact_types[name]
        self._bump()

    def remove_sublink(self, name: str) -> None:
        """Remove a sublink type; constraints over it must be gone first."""
        if name not in self._sublinks:
            raise UnknownElementError("sublink type", name)
        for constraint in self._constraints.values():
            if any(
                isinstance(item, SublinkRef) and item.sublink == name
                for item in items_of(constraint)
            ):
                raise SchemaError(
                    f"sublink {name!r} is still constrained by "
                    f"{constraint.name!r}"
                )
        del self._sublinks[name]
        self._bump()

    def remove_constraint(self, name: str) -> None:
        """Remove a constraint by name."""
        if name not in self._constraints:
            raise UnknownElementError("constraint", name)
        del self._constraints[name]
        self._bump()

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def _require_object_type(self, name: str) -> ObjectType:
        try:
            return self._object_types[name]
        except KeyError:
            raise UnknownElementError("object type", name) from None

    def object_type(self, name: str) -> ObjectType:
        """The object type with the given name."""
        return self._require_object_type(name)

    def fact_type(self, name: str) -> FactType:
        """The fact type with the given name."""
        try:
            return self._fact_types[name]
        except KeyError:
            raise UnknownElementError("fact type", name) from None

    def sublink(self, name: str) -> SublinkType:
        """The sublink type with the given name."""
        try:
            return self._sublinks[name]
        except KeyError:
            raise UnknownElementError("sublink type", name) from None

    def constraint(self, name: str) -> Constraint:
        """The constraint with the given name."""
        try:
            return self._constraints[name]
        except KeyError:
            raise UnknownElementError("constraint", name) from None

    def has_object_type(self, name: str) -> bool:
        """True when an object type with this name exists."""
        return name in self._object_types

    def has_fact_type(self, name: str) -> bool:
        """True when a fact type with this name exists."""
        return name in self._fact_types

    def has_sublink(self, name: str) -> bool:
        """True when a sublink type with this name exists."""
        return name in self._sublinks

    def has_constraint(self, name: str) -> bool:
        """True when a constraint with this name exists."""
        return name in self._constraints

    @property
    def object_types(self) -> tuple[ObjectType, ...]:
        """All object types, in insertion order."""
        return tuple(self._object_types.values())

    @property
    def fact_types(self) -> tuple[FactType, ...]:
        """All fact types, in insertion order."""
        return tuple(self._fact_types.values())

    @property
    def sublinks(self) -> tuple[SublinkType, ...]:
        """All sublink types, in insertion order."""
        return tuple(self._sublinks.values())

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """All constraints, in insertion order."""
        return tuple(self._constraints.values())

    # ------------------------------------------------------------------
    # Role navigation
    # ------------------------------------------------------------------

    def role(self, role_id: RoleId) -> Role:
        """Resolve a role address to its :class:`Role`."""
        return self.fact_type(role_id.fact).role(role_id.role)

    def role_ids(self) -> Iterator[RoleId]:
        """All role addresses of the schema."""
        for fact in self._fact_types.values():
            yield from fact.role_ids

    def player_name(self, role_id: RoleId) -> str:
        """The name of the object type playing a role."""
        return self.role(role_id).player

    def player(self, role_id: RoleId) -> ObjectType:
        """The object type playing a role."""
        return self.object_type(self.player_name(role_id))

    def co_role_id(self, role_id: RoleId) -> RoleId:
        """The address of the other role of the same fact type."""
        fact = self.fact_type(role_id.fact)
        return RoleId(fact.name, fact.co_role(role_id.role).name)

    def co_player_name(self, role_id: RoleId) -> str:
        """The name of the object type playing the other role."""
        fact = self.fact_type(role_id.fact)
        return fact.co_role(role_id.role).player

    def roles_played_by(self, type_name: str) -> list[RoleId]:
        """All roles played by the named object type (both roles for rings)."""
        self._require_object_type(type_name)
        return list(indexes_for(self).roles_by_player.get(type_name, ()))

    def facts_involving(self, type_name: str) -> list[FactType]:
        """All fact types in which the named object type plays a role."""
        self._require_object_type(type_name)
        return list(indexes_for(self).facts_by_player.get(type_name, ()))

    # ------------------------------------------------------------------
    # Subtype navigation
    # ------------------------------------------------------------------

    def sublinks_from(self, subtype: str) -> list[SublinkType]:
        """All sublinks whose subtype end is the named type."""
        return list(indexes_for(self).sublinks_by_subtype.get(subtype, ()))

    def sublinks_to(self, supertype: str) -> list[SublinkType]:
        """All sublinks whose supertype end is the named type."""
        return list(indexes_for(self).sublinks_by_supertype.get(supertype, ()))

    def supertypes_of(self, name: str) -> set[str]:
        """Direct supertypes of the named type."""
        return {s.supertype for s in self.sublinks_from(name)}

    def subtypes_of(self, name: str) -> set[str]:
        """Direct subtypes of the named type."""
        return {s.subtype for s in self.sublinks_to(name)}

    def ancestors_of(self, name: str) -> set[str]:
        """All (transitive) supertypes of the named type."""
        return set(indexes_for(self).ancestors_of(name))

    def descendants_of(self, name: str) -> set[str]:
        """All (transitive) subtypes of the named type."""
        return set(indexes_for(self).descendants_of(name))

    def root_supertypes_of(self, name: str) -> set[str]:
        """The maximal supertypes above the named type (itself if none)."""
        return set(indexes_for(self).root_supertypes_of(name))

    # ------------------------------------------------------------------
    # Constraint queries
    # ------------------------------------------------------------------

    def constraints_over(self, item: ConstraintItem) -> list[Constraint]:
        """All constraints one of whose items is ``item``."""
        return list(indexes_for(self).constraints_by_item.get(item, ()))

    def uniqueness_constraints(self) -> list[UniquenessConstraint]:
        """All uniqueness constraints of the schema."""
        return list(indexes_for(self).of_kind(UniquenessConstraint))

    def is_unique(self, role_id: RoleId) -> bool:
        """True when a simple uniqueness constraint covers exactly this role.

        This is the NIAM identifier bar over one role: the role's
        player participates at most once, i.e. the fact type is
        functional from that player.
        """
        return role_id in indexes_for(self).simple_unique_roles

    def is_total(self, role_id: RoleId) -> bool:
        """True when a single-item total role constraint covers the role."""
        return role_id in indexes_for(self).total_roles

    def is_mandatory(self, role_id: RoleId) -> bool:
        """Alias of :meth:`is_total` (the common NIAM phrasing)."""
        return self.is_total(role_id)

    def functional_roles_of(self, type_name: str) -> list[RoleId]:
        """Roles played by the type that carry a simple uniqueness bar.

        These are the "functionally dependent roles" that the naive
        algorithm (section 4, step 1) groups into the type's relation.
        """
        simple_unique = indexes_for(self).simple_unique_roles
        return [
            role_id
            for role_id in self.roles_played_by(type_name)
            if role_id in simple_unique
        ]

    def exclusions(self) -> list[ExclusionConstraint]:
        """All exclusion constraints."""
        return list(indexes_for(self).of_kind(ExclusionConstraint))

    def equalities(self) -> list[EqualityConstraint]:
        """All equality constraints."""
        return list(indexes_for(self).of_kind(EqualityConstraint))

    def subsets(self) -> list[SubsetConstraint]:
        """All subset constraints."""
        return list(indexes_for(self).of_kind(SubsetConstraint))

    def totals(self) -> list[TotalUnionConstraint]:
        """All total role / total union constraints."""
        return list(indexes_for(self).of_kind(TotalUnionConstraint))

    def total_constraints_on(self, type_name: str) -> list[TotalUnionConstraint]:
        """Total constraints whose constrained object type is ``type_name``."""
        return list(
            indexes_for(self).totals_by_object_type.get(type_name, ())
        )

    def value_constraint_on(self, type_name: str) -> ValueConstraint | None:
        """The value constraint on a lexical type, if any."""
        return indexes_for(self).value_constraint_by_type.get(type_name)

    # ------------------------------------------------------------------
    # Whole-schema operations
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "BinarySchema":
        """An independent copy (elements are immutable, so this is cheap).

        The copy inherits the version stamp — its elements are equal
        by construction — and shares the cached indexes, so copying
        never invalidates or rebuilds anything.
        """
        duplicate = BinarySchema(name or self.name)
        duplicate._object_types = dict(self._object_types)
        duplicate._fact_types = dict(self._fact_types)
        duplicate._sublinks = dict(self._sublinks)
        duplicate._constraints = dict(self._constraints)
        duplicate._version = self._version
        duplicate._index_cache = self._index_cache
        return duplicate

    def same_elements(self, other: "BinarySchema") -> bool:
        """True when both schemas hold equal element sets.

        O(1) for a schema and its untouched :meth:`copy` — equal
        version stamps guarantee equal elements; only diverged stamps
        fall back to the structural comparison.
        """
        if self._version == other._version:
            return True
        return (
            self._object_types == other._object_types
            and self._fact_types == other._fact_types
            and self._sublinks == other._sublinks
            and self._constraints == other._constraints
        )

    def element_counts(self) -> tuple[int, int, int, int]:
        """O(1) census of the four element populations.

        The per-step guards pair this with the version stamp: a
        corrupting rule that bypasses the mutator API (editing the
        element dicts directly) leaves the stamp stale, but cannot
        usually do damage without changing some population size.
        """
        return (
            len(self._object_types),
            len(self._fact_types),
            len(self._sublinks),
            len(self._constraints),
        )

    def fresh_name(self, stem: str, taken: Iterable[str] = ()) -> str:
        """A name starting with ``stem`` unused by any element category."""
        taken = set(taken)

        def used(name: str) -> bool:
            return (
                name in self._object_types
                or name in self._fact_types
                or name in self._sublinks
                or name in self._constraints
                or name in taken
            )

        if not used(stem):
            return stem
        counter = 2
        while used(f"{stem}_{counter}"):
            counter += 1
        return f"{stem}_{counter}"

    def stats(self) -> dict[str, int]:
        """Element counts, handy for reports and benchmarks."""
        return {
            "object_types": len(self._object_types),
            "lots": sum(
                1
                for t in self._object_types.values()
                if t.kind is ObjectKind.LOT
            ),
            "nolots": sum(1 for t in self._object_types.values() if t.is_nolot),
            "fact_types": len(self._fact_types),
            "sublinks": len(self._sublinks),
            "constraints": len(self._constraints),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinarySchema):
            return NotImplemented
        return (
            self._object_types == other._object_types
            and self._fact_types == other._fact_types
            and self._sublinks == other._sublinks
            and self._constraints == other._constraints
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"<BinarySchema {self.name!r}: {stats['object_types']} object "
            f"types, {stats['fact_types']} fact types, "
            f"{stats['sublinks']} sublinks, {stats['constraints']} constraints>"
        )
