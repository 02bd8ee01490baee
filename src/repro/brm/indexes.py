"""Derived indexes over a :class:`~repro.brm.schema.BinarySchema`.

The navigation queries of the schema (``roles_played_by``,
``facts_involving``, ``constraints_over``, ``is_unique``, …) were
originally linear scans over all fact types or constraints.  At the
paper's industrial scale (120-150 generated tables, thousands of
schema elements) those scans dominate the analyzer/mapper pipeline,
so this module maintains the inverted indexes that turn them into
O(1)/O(k) dictionary lookups:

* role-player and fact-by-player maps,
* sublink adjacency (by subtype / by supertype) with memoized
  transitive closures,
* constraint-by-kind and constraint-by-item maps, plus the hot
  ``is_unique`` / ``is_total`` role sets.

Index freshness is governed by the schema's **version stamp**: every
mutator bumps the schema to a globally fresh version, and
:func:`indexes_for` rebuilds (lazily, per section) only when the
cached version no longer matches.  A :meth:`BinarySchema.copy` shares
the version stamp — and therefore the cached indexes — with its
original, so snapshotting a schema never invalidates anything.

The pre-index linear scans survive in ``tests/oracles/brm.py`` as the
reference implementation the equivalence tests compare against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.brm.constraints import (
    Constraint,
    ConstraintItem,
    TotalUnionConstraint,
    UniquenessConstraint,
    ValueConstraint,
)
from repro.brm.facts import FactType, RoleId
from repro.brm.sublinks import SublinkType
from repro.observability.tracer import count as _obs_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.brm.schema import BinarySchema


class SchemaIndexes:
    """Inverted indexes for one (schema, version) pair.

    The three sections — facts, sublinks, constraints — are built
    lazily and independently, so validation queries issued *during*
    schema construction (each element addition bumps the version) only
    pay for the section they touch: ``ancestors_of`` inside
    ``add_constraint`` rebuilds the tiny sublink adjacency, not the
    full constraint index.
    """

    __slots__ = (
        "_fact_types",
        "_sublink_types",
        "_constraint_list",
        "_fact_section",
        "_sublink_section",
        "_constraint_section",
        "_ancestors",
        "_descendants",
        "_roots",
    )

    def __init__(self, schema: "BinarySchema") -> None:
        # Snapshot the element tuples now: a schema copy shares this
        # object, and building a lazy section later from the live
        # schema would read elements added after the snapshot.
        self._fact_types = schema.fact_types
        self._sublink_types = schema.sublinks
        self._constraint_list = schema.constraints
        self._fact_section: tuple | None = None
        self._sublink_section: tuple | None = None
        self._constraint_section: tuple | None = None
        self._ancestors: dict[str, frozenset[str]] = {}
        self._descendants: dict[str, frozenset[str]] = {}
        self._roots: dict[str, frozenset[str]] = {}

    # -- fact section --------------------------------------------------

    def _facts(self) -> tuple:
        if self._fact_section is None:
            roles_by_player: dict[str, list[RoleId]] = {}
            facts_by_player: dict[str, list[FactType]] = {}
            for fact in self._fact_types:
                seen_players = set()
                for role in fact.roles:
                    roles_by_player.setdefault(role.player, []).append(
                        RoleId(fact.name, role.name)
                    )
                    if role.player not in seen_players:
                        seen_players.add(role.player)
                        facts_by_player.setdefault(role.player, []).append(fact)
            self._fact_section = (
                {k: tuple(v) for k, v in roles_by_player.items()},
                {k: tuple(v) for k, v in facts_by_player.items()},
            )
        return self._fact_section

    @property
    def roles_by_player(self) -> dict[str, tuple[RoleId, ...]]:
        return self._facts()[0]

    @property
    def facts_by_player(self) -> dict[str, tuple[FactType, ...]]:
        return self._facts()[1]

    # -- sublink section -----------------------------------------------

    def _sublink_maps(self) -> tuple:
        if self._sublink_section is None:
            by_subtype: dict[str, list[SublinkType]] = {}
            by_supertype: dict[str, list[SublinkType]] = {}
            for sublink in self._sublink_types:
                by_subtype.setdefault(sublink.subtype, []).append(sublink)
                by_supertype.setdefault(sublink.supertype, []).append(sublink)
            self._sublink_section = (
                {k: tuple(v) for k, v in by_subtype.items()},
                {k: tuple(v) for k, v in by_supertype.items()},
            )
        return self._sublink_section

    @property
    def sublinks_by_subtype(self) -> dict[str, tuple[SublinkType, ...]]:
        return self._sublink_maps()[0]

    @property
    def sublinks_by_supertype(self) -> dict[str, tuple[SublinkType, ...]]:
        return self._sublink_maps()[1]

    def ancestors_of(self, name: str) -> frozenset[str]:
        """Transitive supertypes, memoized per type."""
        cached = self._ancestors.get(name)
        if cached is None:
            cached = self._closure(name, self.sublinks_by_subtype, "supertype")
            self._ancestors[name] = cached
        return cached

    def descendants_of(self, name: str) -> frozenset[str]:
        """Transitive subtypes, memoized per type."""
        cached = self._descendants.get(name)
        if cached is None:
            cached = self._closure(name, self.sublinks_by_supertype, "subtype")
            self._descendants[name] = cached
        return cached

    def root_supertypes_of(self, name: str) -> frozenset[str]:
        """Maximal supertypes above the type (itself if none), memoized."""
        cached = self._roots.get(name)
        if cached is None:
            ancestors = self.ancestors_of(name)
            if not ancestors:
                cached = frozenset((name,))
            else:
                by_subtype = self.sublinks_by_subtype
                cached = frozenset(
                    a for a in ancestors if a not in by_subtype
                )
            self._roots[name] = cached
        return cached

    @staticmethod
    def _closure(
        name: str,
        adjacency: dict[str, tuple[SublinkType, ...]],
        end: str,
    ) -> frozenset[str]:
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for sublink in adjacency.get(current, ()):
                neighbour = getattr(sublink, end)
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return frozenset(seen)

    # -- constraint section --------------------------------------------

    def _constraints(self) -> tuple:
        if self._constraint_section is None:
            by_kind: dict[type, list[Constraint]] = {}
            by_item: dict[ConstraintItem, list[Constraint]] = {}
            totals_by_type: dict[str, list[TotalUnionConstraint]] = {}
            value_by_type: dict[str, ValueConstraint] = {}
            simple_unique: set[RoleId] = set()
            reference_roles: set[RoleId] = set()
            total_roles: set[RoleId] = set()
            external_uniqueness: list[UniquenessConstraint] = []
            facts_with_uniqueness: set[str] = set()
            for constraint in self._constraint_list:
                by_kind.setdefault(type(constraint), []).append(constraint)
                for item in constraint.items:
                    by_item.setdefault(item, []).append(constraint)
                if isinstance(constraint, UniquenessConstraint):
                    for role_id in constraint.roles:
                        facts_with_uniqueness.add(role_id.fact)
                    if constraint.is_simple:
                        simple_unique.add(constraint.roles[0])
                        if constraint.is_reference:
                            reference_roles.add(constraint.roles[0])
                    if constraint.is_external:
                        external_uniqueness.append(constraint)
                elif isinstance(constraint, TotalUnionConstraint):
                    totals_by_type.setdefault(
                        constraint.object_type, []
                    ).append(constraint)
                    if constraint.is_total_role:
                        total_roles.add(constraint.items[0])
                elif isinstance(constraint, ValueConstraint):
                    value_by_type.setdefault(
                        constraint.object_type, constraint
                    )
            self._constraint_section = (
                {k: tuple(v) for k, v in by_kind.items()},
                {k: tuple(v) for k, v in by_item.items()},
                {k: tuple(v) for k, v in totals_by_type.items()},
                value_by_type,
                frozenset(simple_unique),
                frozenset(reference_roles),
                frozenset(total_roles),
                tuple(external_uniqueness),
                frozenset(facts_with_uniqueness),
            )
        return self._constraint_section

    @property
    def constraints_by_kind(self) -> dict[type, tuple[Constraint, ...]]:
        return self._constraints()[0]

    @property
    def constraints_by_item(
        self,
    ) -> dict[ConstraintItem, tuple[Constraint, ...]]:
        return self._constraints()[1]

    @property
    def totals_by_object_type(
        self,
    ) -> dict[str, tuple[TotalUnionConstraint, ...]]:
        return self._constraints()[2]

    @property
    def value_constraint_by_type(self) -> dict[str, ValueConstraint]:
        return self._constraints()[3]

    @property
    def simple_unique_roles(self) -> frozenset[RoleId]:
        """Roles covered by a simple (single-role) uniqueness bar."""
        return self._constraints()[4]

    @property
    def reference_roles(self) -> frozenset[RoleId]:
        """Simple-unique roles whose bar is marked ``is_reference``."""
        return self._constraints()[5]

    @property
    def total_roles(self) -> frozenset[RoleId]:
        """Roles covered by a single-item total role constraint."""
        return self._constraints()[6]

    @property
    def external_uniqueness(self) -> tuple[UniquenessConstraint, ...]:
        """All external (multi-fact) uniqueness constraints."""
        return self._constraints()[7]

    @property
    def facts_with_uniqueness(self) -> frozenset[str]:
        """Names of fact types covered by some uniqueness constraint."""
        return self._constraints()[8]

    def of_kind(self, kind: type) -> tuple[Constraint, ...]:
        """All constraints of exactly the given class."""
        return self.constraints_by_kind.get(kind, ())


def indexes_for(schema: "BinarySchema") -> SchemaIndexes:
    """The (lazily built) indexes for the schema's current version.

    The cache entry lives in a one-element cell on the schema holding
    a ``(version, indexes)`` pair; a stale version triggers a rebuild.
    :meth:`BinarySchema.copy` shares the cell, so a schema and its
    copies reuse one index object for free — whichever of them builds
    it first — while ``_bump()`` detaches a mutated schema into a
    fresh cell so its copies keep their still-valid entry.
    """
    cell = schema._index_cache
    cached = cell[0]
    if cached is not None and cached[0] == schema.version:
        return cached[1]
    _obs_count("schema.index_rebuilds")
    indexes = SchemaIndexes(schema)
    cell[0] = (schema.version, indexes)
    return indexes

