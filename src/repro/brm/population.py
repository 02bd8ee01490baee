"""Populations — the database *states* of a binary schema.

Section 4.1 of the paper adopts a model-theoretic view: a database
schema is a logical theory and ``STATES(S)`` is the set of its models.
A :class:`Population` is one such model: an assignment of instance
sets to object types and of pair sets to fact types.  Subtype
membership is extensional — the population of a subtype is a subset of
its supertype's population.

Populations are what schema transformations map forward and backward
(:mod:`repro.mapper.state_map`); checking that a population is a model
of its schema (:meth:`Population.check`) is how the test suite
verifies losslessness empirically.

The storage is built for whole-population kernels: instances are
*interned* to dense integer ids, each fact type stores its pairs as an
id-pair set with lazily materialized parallel columns, and the
per-role lookups the forward state map and the constraint checks need
(co-filler groups, the deterministic "first filler by repr"
functional maps) are built once per fact and reused, so
whole-population work is set and dictionary-batch operations instead
of per-instance probes.  The value-level API (``instances``,
``facts_of``, ``add_fact`` ...) reads and writes through the intern
table.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass

from repro.brm.constraints import (
    Constraint,
    ConstraintItem,
    EqualityConstraint,
    ExclusionConstraint,
    FrequencyConstraint,
    SubsetConstraint,
    TotalUnionConstraint,
    UniquenessConstraint,
    ValueConstraint,
)
from repro.brm.facts import RoleId
from repro.brm.schema import BinarySchema
from repro.errors import PopulationError

Instance = Hashable


@dataclass(frozen=True)
class Violation:
    """One way in which a population fails to be a model of its schema."""

    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


class Population:
    """A database state for a :class:`BinarySchema`: interned ids + role
    columns.

    Object types hold instance *sets*, fact types hold pair *sets*;
    the layout serves whole-population kernels:

    * every instance value is interned once to a dense integer id
      (``self._values[id]`` recovers the value);
    * each fact type stores its pairs as a set of id pairs, with
      parallel ``(firsts, seconds)`` columns and per-role lookup maps
      (:meth:`co_ids`, :meth:`first_co`) materialized lazily and
      cached against a mutation version;
    * constraint checking (:meth:`check`) runs on id sets and column
      counters, touching individual instances only to phrase the
      violations actually found.
    """

    def __init__(self, schema: BinarySchema) -> None:
        self.schema = schema
        self._intern: dict[Instance, int] = {}
        self._values: list[Instance] = []
        self._objects: dict[str, set[int]] = {
            t.name: set() for t in schema.object_types
        }
        self._pairs: dict[str, set[tuple[int, int]]] = {
            f.name: set() for f in schema.fact_types
        }
        self._version = 0
        # Lazy, version-tagged derived structures.  ``_sorted_cache``
        # is tagged with a per-type version so columns of untouched
        # types survive mutations elsewhere in the population.
        self._type_versions: dict[str, int] = {}
        self._columns_cache: dict[str, tuple[int, tuple[tuple, tuple]]] = {}
        self._co_cache: dict[tuple[str, int], tuple[int, dict]] = {}
        self._first_cache: dict[tuple[str, int], tuple[int, dict]] = {}
        self._sorted_cache: dict[str, tuple[int, list[int]]] = {}

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------

    def intern(self, value: Instance) -> int:
        """The dense id of a value, allocating one on first sight."""
        interned = self._intern.get(value)
        if interned is None:
            interned = len(self._values)
            self._intern[value] = interned
            self._values.append(value)
        return interned

    def value(self, interned: int | None) -> Instance | None:
        """The value behind an id (``None`` passes through)."""
        return None if interned is None else self._values[interned]

    def values_of(self, ids: Sequence[int | None]) -> list[Instance | None]:
        """The value column behind an id column (``None`` passes through)."""
        values = self._values
        if None in ids:
            return [None if i is None else values[i] for i in ids]
        return list(map(values.__getitem__, ids))

    def id_of(self, value: Instance) -> int | None:
        """The id of a value, or ``None`` when never interned."""
        return self._intern.get(value)

    def seed_intern_from(self, other: "Population") -> None:
        """Adopt another population's value interning (id-aligned).

        Populating a fresh population with (mostly) the same values as
        an existing one — the backward map reconstructing a state that
        will be diffed against its canonical original — then assigns
        identical ids to identical values, which turns
        :meth:`state_diff` into direct id-set algebra with no
        translation pass.  Only valid on an empty population.
        """
        if self._values:
            raise PopulationError(
                "seed_intern_from requires an empty intern table"
            )
        self._intern = dict(other._intern)
        self._values = list(other._values)

    def intern_all(self, column: Iterable[Instance]) -> list[int]:
        """Intern a whole column of values in one pass.

        The columnar backward map's bulk alternative to per-value
        :meth:`intern` calls: one local-variable loop over the column,
        returning the row-aligned id column.
        """
        intern = self._intern
        values = self._values
        out: list[int] = []
        append = out.append
        for value in column:
            interned = intern.get(value)
            if interned is None:
                interned = len(values)
                intern[value] = interned
                values.append(value)
            append(interned)
        return out

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_instance(self, type_name: str, instance: Instance) -> Instance:
        """Add an instance to an object type and all its supertypes.

        Supertype propagation keeps the population conformant with the
        extensional subtype semantics by construction.
        """
        self.add_instances(type_name, (instance,))
        return instance

    def add_instances(self, type_name: str, instances: Iterable[Instance]) -> None:
        """Add several instances to an object type (one bulk update)."""
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        self.add_instance_ids(type_name, set(self.intern_all(instances)))

    def add_instance_ids(self, type_name: str, ids: Iterable[int]) -> None:
        """Bulk-add already-interned ids to a type and its supertypes.

        The id-level twin of :meth:`add_instances` — the columnar
        backward map interns each relation column once with
        :meth:`intern_all` and then populates types directly from the
        id columns.
        """
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        new = ids if isinstance(ids, set) else set(ids)
        if not new:
            return
        self._version += 1
        self._grow(type_name, new)

    def add_fact(
        self, fact_name: str, first: Instance, second: Instance
    ) -> tuple[Instance, Instance]:
        """Add a fact instance; both fillers are auto-added to the players.

        Auto-adding mirrors how NIAM diagrams are populated: placing a
        pair in a fact's population asserts the existence of both
        objects.
        """
        self.add_facts(fact_name, [(first, second)])
        return (first, second)

    def add_facts(
        self, fact_name: str, pairs: Iterable[tuple[Instance, Instance]]
    ) -> None:
        """Add many fact instances in one batched update.

        Each side is interned column-at-a-time (:meth:`intern_all`)
        rather than value-by-value — at harness scale the per-pair
        ``intern`` calls were the dominant cost of the columnar
        backward map.
        """
        if fact_name not in self._pairs:
            raise PopulationError(f"no fact type {fact_name!r} in the schema")
        pairs = pairs if isinstance(pairs, list) else list(pairs)
        if not pairs:
            return
        self.add_fact_id_columns(
            fact_name,
            self.intern_all(map(operator.itemgetter(0), pairs)),
            self.intern_all(map(operator.itemgetter(1), pairs)),
        )

    def add_fact_id_columns(
        self, fact_name: str, firsts: list[int], seconds: list[int]
    ) -> None:
        """Bulk-add a fact population from two row-aligned id columns.

        The fully columnar fact add: callers that already hold
        interned columns (the backward map caches them per column
        list) skip both the per-pair interning of :meth:`add_facts`
        and the pair-scanning set builds of :meth:`add_pair_ids`.
        """
        if fact_name not in self._pairs:
            raise PopulationError(f"no fact type {fact_name!r} in the schema")
        if not firsts:
            return
        self._add_pairs(
            fact_name, list(zip(firsts, seconds)), set(firsts), set(seconds)
        )

    def add_pair_ids(
        self, fact_name: str, pairs: Iterable[tuple[int, int]]
    ) -> None:
        """Bulk-add already-interned id pairs to a fact type.

        Both sides are auto-added to the players (with ancestor
        propagation), exactly like :meth:`add_facts`, but without
        touching the value level at all.
        """
        if fact_name not in self._pairs:
            raise PopulationError(f"no fact type {fact_name!r} in the schema")
        id_pairs = pairs if isinstance(pairs, list) else list(pairs)
        if not id_pairs:
            return
        self._add_pairs(
            fact_name,
            id_pairs,
            {pair[0] for pair in id_pairs},
            {pair[1] for pair in id_pairs},
        )

    def _add_pairs(
        self,
        fact_name: str,
        id_pairs: list[tuple[int, int]],
        firsts: set[int],
        seconds: set[int],
    ) -> None:
        self._version += 1
        fact = self.schema.fact_type(fact_name)
        self._grow(fact.first.player, firsts)
        self._grow(fact.second.player, seconds)
        self._pairs[fact_name].update(id_pairs)

    def _grow(self, type_name: str, new: set[int]) -> None:
        """Add ids to a type and its supertypes.  Only a set that grew
        gets a new per-type version (sets only grow here, so the same
        size is the same set): the others keep their :meth:`ordered_ids`."""
        version = self._version
        for name in (type_name, *self.schema.ancestors_of(type_name)):
            members = self._objects[name]
            size = len(members)
            members.update(new)
            if len(members) != size:
                self._type_versions[name] = version

    def remove_fact(self, fact_name: str, first: Instance, second: Instance) -> None:
        """Remove one fact instance (object populations untouched)."""
        pair = (self._intern.get(first), self._intern.get(second))
        if fact_name not in self._pairs:
            raise PopulationError(f"no fact type {fact_name!r} in the schema")
        try:
            self._pairs[fact_name].remove(pair)  # type: ignore[arg-type]
            self._version += 1
        except KeyError:
            raise PopulationError(
                f"fact {fact_name!r} has no instance ({first!r}, {second!r})"
            ) from None

    def discard_instance(self, type_name: str, instance: Instance) -> None:
        """Remove an instance from a type and all its subtypes.

        The instance stays in supertypes (use the root type to remove
        it entirely); facts referencing it are untouched — conformance
        checking will flag them, so callers should retract facts first.
        """
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        interned = self._intern.get(instance)
        if interned is None or interned not in self._objects[type_name]:
            raise PopulationError(
                f"{instance!r} is not an instance of {type_name!r}"
            )
        self._version += 1
        version = self._version
        self._objects[type_name].discard(interned)
        self._type_versions[type_name] = version
        for descendant in self.schema.descendants_of(type_name):
            self._objects[descendant].discard(interned)
            self._type_versions[descendant] = version

    # ------------------------------------------------------------------
    # Access — id level (the kernel interface)
    # ------------------------------------------------------------------

    def instance_ids(self, type_name: str) -> set[int]:
        """The live id set of an object type (do not mutate)."""
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        return self._objects[type_name]

    def ordered_ids(self, type_name: str) -> list[int]:
        """Instance ids sorted by ``repr`` of their values.

        Cached against the *per-type* version: only mutations that
        change this type's id set re-sort.
        """
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        version = self._type_versions.get(type_name, 0)
        cached = self._sorted_cache.get(type_name)
        if cached is None or cached[0] != version:
            values = self._values
            cached = (
                version,
                sorted(self._objects[type_name], key=lambda i: repr(values[i])),
            )
            self._sorted_cache[type_name] = cached
        return cached[1]

    def sorted_instances(self, type_name: str) -> list[Instance]:
        """The population of an object type as values, in
        :meth:`ordered_ids` order (sorted by ``repr``)."""
        return self.values_of(self.ordered_ids(type_name))

    def sort_ids(self, ids: Iterable[int]) -> list[int]:
        """Ids sorted by the ``repr`` of their values — the row order
        every membership kind of the forward state map emits."""
        values = self._values
        return sorted(ids, key=lambda i: repr(values[i]))

    def pair_ids(self, fact_name: str) -> set[tuple[int, int]]:
        """The live id-pair set of a fact type (do not mutate)."""
        if fact_name not in self._pairs:
            raise PopulationError(f"no fact type {fact_name!r} in the schema")
        return self._pairs[fact_name]

    def columns(self, fact_name: str) -> tuple[tuple, tuple]:
        """The fact's pairs as parallel ``(firsts, seconds)`` columns.

        Deterministic order (pairs sorted by the ``repr`` of their
        value pair — the same order the forward state map emits
        fact-relation rows in), cached against the mutation version.
        """
        cached = self._columns_cache.get(fact_name)
        if cached is None or cached[0] != self._version:
            values = self._values
            ordered = sorted(
                self.pair_ids(fact_name),
                key=lambda pair: repr((values[pair[0]], values[pair[1]])),
            )
            # Two itemgetter passes, not ``zip(*ordered)``: that would
            # allocate one (GC-tracked) iterator per pair.
            firsts = tuple(map(operator.itemgetter(0), ordered))
            seconds = tuple(map(operator.itemgetter(1), ordered))
            cached = (self._version, (firsts, seconds))
            self._columns_cache[fact_name] = cached
        return cached[1]

    def co_ids(self, fact_name: str, position: int) -> dict[int, tuple[int, ...]]:
        """Grouped co-fillers: id at ``position`` -> co-filler ids."""
        key = (fact_name, position)
        cached = self._co_cache.get(key)
        if cached is None or cached[0] != self._version:
            grouped: dict[int, list[int]] = {}
            for pair in self.pair_ids(fact_name):
                grouped.setdefault(pair[position], []).append(pair[1 - position])
            cached = (
                self._version,
                {k: tuple(v) for k, v in grouped.items()},
            )
            self._co_cache[key] = cached
        return cached[1]

    def first_co(self, fact_name: str, position: int) -> dict[int, int]:
        """The deterministic functional view of a role: id at
        ``position`` -> the co-filler minimizing ``repr`` of its value
        (the filler the forward state map follows along a lexical
        leg).  One dictionary per (fact, side), reused across every
        row of a batch instead of per-instance ``facts_of`` probes.
        """
        key = (fact_name, position)
        cached = self._first_cache.get(key)
        if cached is None or cached[0] != self._version:
            values = self._values
            mapping: dict[int, int] = {}
            for pair in self.pair_ids(fact_name):
                near, far = pair[position], pair[1 - position]
                best = mapping.get(near)
                if best is None or repr(values[far]) < repr(values[best]):
                    mapping[near] = far
            cached = (self._version, mapping)
            self._first_cache[key] = cached
        return cached[1]

    # ------------------------------------------------------------------
    # Access — value level
    # ------------------------------------------------------------------

    def instances(self, type_name: str) -> frozenset[Instance]:
        """The population of an object type, as values."""
        values = self._values
        return frozenset(values[i] for i in self.instance_ids(type_name))

    def fact_instances(self, fact_name: str) -> frozenset[tuple[Instance, Instance]]:
        """The population of a fact type, as value pairs."""
        values = self._values
        return frozenset(
            (values[first], values[second])
            for first, second in self.pair_ids(fact_name)
        )

    def role_population(self, role_id: RoleId) -> frozenset[Instance]:
        """The set of instances actually playing a role."""
        values = self._values
        return frozenset(values[i] for i in self._role_ids(role_id))

    def _role_ids(self, role_id: RoleId) -> set[int]:
        fact = self.schema.fact_type(role_id.fact)
        position = fact.position_of(role_id.role)
        return {pair[position] for pair in self.pair_ids(fact.name)}

    def role_occurrences(self, role_id: RoleId) -> dict[Instance, int]:
        """How many times each instance plays the role."""
        counts = self._role_counts(role_id)
        values = self._values
        return {values[i]: count for i, count in counts.items()}

    def _role_counts(self, role_id: RoleId) -> Counter:
        fact = self.schema.fact_type(role_id.fact)
        position = fact.position_of(role_id.role)
        return Counter(self.columns(fact.name)[position])

    def item_population(self, item: ConstraintItem) -> frozenset[Instance]:
        """The population a set-algebraic constraint item ranges over."""
        values = self._values
        return frozenset(values[i] for i in self._item_ids(item))

    def _item_ids(self, item: ConstraintItem) -> set[int]:
        if isinstance(item, RoleId):
            return self._role_ids(item)
        sublink = self.schema.sublink(item.sublink)
        return self._objects[sublink.subtype]

    def facts_of(
        self, fact_name: str, role_name: str, instance: Instance
    ) -> frozenset[Instance]:
        """Co-role fillers linked to ``instance`` through the fact."""
        fact = self.schema.fact_type(fact_name)
        position = fact.position_of(role_name)
        interned = self._intern.get(instance)
        if interned is None:
            return frozenset()
        co = self.co_ids(fact.name, position).get(interned)
        if not co:
            return frozenset()
        values = self._values
        return frozenset(values[i] for i in co)

    def is_empty(self) -> bool:
        """True when no object type has any instance."""
        return not any(self._objects.values())

    # ------------------------------------------------------------------
    # Model checking — set/vector kernels
    # ------------------------------------------------------------------

    def check(self) -> list[Violation]:
        """All ways this population fails to be a model of its schema.

        The detection passes are id-set and counter operations; the
        per-instance work happens only for violations actually found,
        so a *valid* population is certified in a handful of
        whole-column operations per constraint.
        """
        violations: list[Violation] = []
        violations.extend(self._check_conformance())
        for constraint in self.schema.constraints:
            violations.extend(self._check_constraint(constraint))
        return violations

    def is_valid(self) -> bool:
        """True when the population is a model of its schema."""
        return not self.check()

    def validate(self) -> None:
        """Raise :class:`PopulationError` listing every violation."""
        violations = self.check()
        if violations:
            summary = "; ".join(str(v) for v in violations[:10])
            if len(violations) > 10:
                summary += f"; ... ({len(violations) - 10} more)"
            raise PopulationError(summary)

    def _check_conformance(self) -> list[Violation]:
        violations = []
        values = self._values
        for fact in self.schema.fact_types:
            pairs = self._pairs[fact.name]
            if not pairs:
                continue
            firsts = {pair[0] for pair in pairs}
            seconds = {pair[1] for pair in pairs}
            stray_first = firsts - self._objects[fact.first.player]
            stray_second = seconds - self._objects[fact.second.player]
            if not stray_first and not stray_second:
                continue
            for first, second in pairs:
                if first in stray_first:
                    violations.append(
                        Violation(
                            "conformance",
                            f"fact {fact.name!r}: filler {values[first]!r} "
                            f"is not an instance of {fact.first.player!r}",
                        )
                    )
                if second in stray_second:
                    violations.append(
                        Violation(
                            "conformance",
                            f"fact {fact.name!r}: filler {values[second]!r} "
                            f"is not an instance of {fact.second.player!r}",
                        )
                    )
        for sublink in self.schema.sublinks:
            stray = self._objects[sublink.subtype] - self._objects[sublink.supertype]
            for interned in stray:
                violations.append(
                    Violation(
                        "conformance",
                        f"sublink {sublink.name!r}: {values[interned]!r} is "
                        f"in subtype {sublink.subtype!r} but not in "
                        f"supertype {sublink.supertype!r}",
                    )
                )
        return violations

    def _check_constraint(self, constraint: Constraint) -> list[Violation]:
        if isinstance(constraint, UniquenessConstraint):
            return self._check_uniqueness(constraint)
        if isinstance(constraint, TotalUnionConstraint):
            return self._check_total(constraint)
        if isinstance(constraint, ExclusionConstraint):
            return self._check_exclusion(constraint)
        if isinstance(constraint, SubsetConstraint):
            return self._check_subset(constraint)
        if isinstance(constraint, EqualityConstraint):
            return self._check_equality(constraint)
        if isinstance(constraint, FrequencyConstraint):
            return self._check_frequency(constraint)
        if isinstance(constraint, ValueConstraint):
            return self._check_value(constraint)
        return []

    def _check_uniqueness(self, constraint: UniquenessConstraint) -> list[Violation]:
        values = self._values
        if constraint.is_simple:
            role_id = constraint.roles[0]
            return [
                Violation(
                    constraint.name,
                    f"instance {values[interned]!r} plays role {role_id} "
                    "more than once",
                )
                for interned, count in self._role_counts(role_id).items()
                if count > 1
            ]
        if not constraint.is_external:
            # Spanning both roles of one fact type: pair sets satisfy
            # it by construction.
            return []
        return self._check_external_uniqueness(constraint)

    def _check_external_uniqueness(
        self, constraint: UniquenessConstraint
    ) -> list[Violation]:
        values = self._values
        value_maps: list[dict[int, tuple[int, ...]]] = []
        for role_id in constraint.roles:
            fact = self.schema.fact_type(role_id.fact)
            far_position = fact.position_of(role_id.role)
            # Grouped by the *near* (common-player) filler.
            value_maps.append(self.co_ids(fact.name, 1 - far_position))
        combos: dict[tuple, int] = {}
        violations = []
        shared = set(value_maps[0])
        for mapping in value_maps[1:]:
            shared &= set(mapping)
        for common in shared:
            value_sets = [
                sorted(mapping[common], key=lambda i: repr(values[i]))
                for mapping in value_maps
            ]
            for combo in itertools.product(*value_sets):
                previous = combos.get(combo)
                if previous is not None and previous != common:
                    shown = tuple(values[i] for i in combo)
                    violations.append(
                        Violation(
                            constraint.name,
                            f"combination {shown!r} identifies both "
                            f"{values[previous]!r} and {values[common]!r}",
                        )
                    )
                combos[combo] = common
        return violations

    def _check_total(self, constraint: TotalUnionConstraint) -> list[Violation]:
        covered: set[int] = set()
        for item in constraint.items:
            covered |= self._item_ids(item)
        missing = self._objects[constraint.object_type] - covered
        values = self._values
        return [
            Violation(
                constraint.name,
                f"instance {values[interned]!r} of "
                f"{constraint.object_type!r} plays none of the required "
                "roles/subtypes",
            )
            for interned in missing
        ]

    def _check_exclusion(self, constraint: ExclusionConstraint) -> list[Violation]:
        violations = []
        values = self._values
        populations = [
            (item, self._item_ids(item)) for item in constraint.items
        ]
        for (item_a, pop_a), (item_b, pop_b) in itertools.combinations(
            populations, 2
        ):
            for interned in pop_a & pop_b:
                violations.append(
                    Violation(
                        constraint.name,
                        f"instance {values[interned]!r} populates both "
                        f"{item_a} and {item_b}, which are mutually "
                        "exclusive",
                    )
                )
        return violations

    def _check_subset(self, constraint: SubsetConstraint) -> list[Violation]:
        stray = self._item_ids(constraint.subset) - self._item_ids(
            constraint.superset
        )
        values = self._values
        return [
            Violation(
                constraint.name,
                f"instance {values[interned]!r} populates "
                f"{constraint.subset} but not {constraint.superset}",
            )
            for interned in stray
        ]

    def _check_equality(self, constraint: EqualityConstraint) -> list[Violation]:
        reference = self._item_ids(constraint.items[0])
        values = self._values
        violations = []
        for item in constraint.items[1:]:
            population = self._item_ids(item)
            if population != reference:
                difference = [
                    values[i] for i in population ^ reference
                ]
                violations.append(
                    Violation(
                        constraint.name,
                        f"populations of {constraint.items[0]} and {item} "
                        f"differ on {sorted(difference, key=repr)!r}",
                    )
                )
        return violations

    def _check_frequency(self, constraint: FrequencyConstraint) -> list[Violation]:
        violations = []
        values = self._values
        for interned, count in self._role_counts(constraint.role).items():
            if count < constraint.minimum or (
                constraint.maximum is not None and count > constraint.maximum
            ):
                bound = (
                    f"{constraint.minimum}..{constraint.maximum}"
                    if constraint.maximum is not None
                    else f">={constraint.minimum}"
                )
                violations.append(
                    Violation(
                        constraint.name,
                        f"instance {values[interned]!r} plays role "
                        f"{constraint.role} {count} times (allowed: {bound})",
                    )
                )
        return violations

    def _check_value(self, constraint: ValueConstraint) -> list[Violation]:
        allowed = {
            interned
            for value in constraint.values
            if (interned := self._intern.get(value)) is not None
        }
        values = self._values
        return [
            Violation(
                constraint.name,
                f"instance {values[interned]!r} of "
                f"{constraint.object_type!r} is not among the allowed values",
            )
            for interned in self._objects[constraint.object_type] - allowed
        ]

    # ------------------------------------------------------------------
    # Whole-population operations
    # ------------------------------------------------------------------

    def copy(self) -> "Population":
        """An independent copy bound to the same schema object."""
        duplicate = Population(self.schema)
        duplicate._intern = dict(self._intern)
        duplicate._values = list(self._values)
        duplicate._objects = {
            name: set(members) for name, members in self._objects.items()
        }
        duplicate._pairs = {
            name: set(pairs) for name, pairs in self._pairs.items()
        }
        return duplicate

    def project(self, schema: BinarySchema) -> "Population":
        """The same state under another schema.

        The projection adopts this population's intern table (ids stay
        aligned, see :meth:`seed_intern_from`) and receives the
        instances of every object type and the pairs of every fact
        type whose name both schemas declare, through
        :meth:`add_instance_ids` and :meth:`add_pair_ids` — so fillers
        and supertypes propagate under ``schema`` exactly as
        :meth:`add_instances` and :meth:`add_facts` propagate them.
        Names only one schema declares are dropped or start empty.
        The projection is independent of this population.
        """
        projected = Population(schema)
        projected.seed_intern_from(self)
        targets = projected._objects
        for name, members in self._objects.items():
            if name in targets:
                projected.add_instance_ids(name, members)
        pairs = projected._pairs
        for name, id_pairs in self._pairs.items():
            if name in pairs:
                projected.add_pair_ids(name, id_pairs)
        return projected

    def as_dict(self) -> dict[str, object]:
        """A canonical, comparable snapshot of the state (values)."""
        values = self._values
        return {
            "objects": {
                name: frozenset(values[i] for i in members)
                for name, members in self._objects.items()
            },
            "facts": {
                name: frozenset(
                    (values[first], values[second])
                    for first, second in pairs
                )
                for name, pairs in self._pairs.items()
            },
        }

    def state_diff(self, other: "Population") -> dict[str, int]:
        """Per-type/per-fact symmetric-difference counts vs. another state.

        The alternative to materializing ``as_dict()`` on both sides:
        ids are translated across intern spaces by value through the
        other population's intern table (values the other side never
        interned get unique negative sentinels, so they always count
        as differing), and each population is compared as id-set
        algebra.  The other state must declare every name this one
        does; :meth:`__eq__` is an empty diff over the same names.
        """
        lookup = other._intern
        translate: list[int] = []
        identity = True
        for i, value in enumerate(self._values):
            theirs = lookup.get(value)
            if theirs is None:
                theirs = -(i + 1)
                identity = False
            elif theirs != i:
                identity = False
            translate.append(theirs)
        diff: dict[str, int] = {}
        for name, mine in self._objects.items():
            others = other._objects[name]
            delta = len(
                mine ^ others
                if identity
                else {translate[i] for i in mine} ^ others
            )
            if delta:
                diff[name] = diff.get(name, 0) + delta
        for name, pairs in self._pairs.items():
            other_pairs = other._pairs[name]
            if identity:
                delta = len(pairs ^ other_pairs)
            else:
                translated = {
                    (translate[first], translate[second])
                    for first, second in pairs
                }
                delta = len(translated ^ other_pairs)
            if delta:
                diff[name] = diff.get(name, 0) + delta
        return diff

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Population):
            return NotImplemented
        return (
            self._objects.keys() == other._objects.keys()
            and self._pairs.keys() == other._pairs.keys()
            and not self.state_diff(other)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        objects = sum(len(members) for members in self._objects.values())
        facts = sum(len(pairs) for pairs in self._pairs.values())
        return (
            f"<Population of {self.schema.name!r}: {objects} object "
            f"instances, {facts} fact instances, "
            f"{len(self._values)} interned values>"
        )
