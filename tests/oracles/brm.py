"""Row-path oracles for the binary (BRM) layer.

* :class:`LinearScanOracle` keeps the linear scans that
  ``repro/brm/schema.py`` ran before the version-stamped index layer
  (``repro.brm.indexes``).  ``tests/brm/test_indexes.py`` asserts the
  indexed queries agree with it after randomized mutation sequences,
  and ``benchmarks/bench_schema_queries.py`` measures the gap.
* :class:`RowPopulation` keeps the row-at-a-time population: plain
  sets of instances and of ``(first, second)`` value pairs, checked
  tuple by tuple.  :func:`to_row` and :func:`from_row` convert
  losslessly between it and the interned
  :class:`~repro.brm.population.Population`;
  ``tests/brm/test_columnar.py`` asserts the two agree on validity
  (exact violation messages), ``facts_of`` and state equality after
  randomized mutation sequences.
* :class:`NaiveReferenceResolver` keeps the naive reference-scheme
  fix-point: every pass re-expands every candidate scheme and then
  re-chooses every type.  ``tests/brm/test_reference_oracle.py``
  asserts the semi-naive :class:`~repro.brm.reference.ReferenceResolver`
  reaches the identical state (expansions in order, choices, and the
  error text of an ungrounded preference).
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable

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
from repro.brm.facts import FactType, RoleId
from repro.brm.population import Population, Violation
from repro.brm.reference import ReferenceResolver, candidate_schemes
from repro.brm.schema import BinarySchema
from repro.brm.sublinks import SublinkType
from repro.errors import PopulationError

Instance = Hashable


class LinearScanOracle:
    """The pre-index query implementations, kept as a reference oracle.

    Every method mirrors the corresponding :class:`BinarySchema` query
    by scanning the element tuples, exactly as ``schema.py`` did
    before the index layer.
    """

    def __init__(self, schema: BinarySchema) -> None:
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
        return [c for c in self.schema.constraints if item in c.items]

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


class RowPopulation:
    """A database state for a :class:`BinarySchema`, row at a time."""

    def __init__(self, schema: BinarySchema) -> None:
        self.schema = schema
        self._objects: dict[str, set[Instance]] = {
            t.name: set() for t in schema.object_types
        }
        self._facts: dict[str, set[tuple[Instance, Instance]]] = {
            f.name: set() for f in schema.fact_types
        }
        # Lazy per-fact co-role lookup (instance -> co-fillers), tagged
        # with the fact-mutation version so any add/remove invalidates
        # it.  Forward state mapping calls :meth:`facts_of` once per
        # instance per lexical-leg component; without the index each
        # call scans the whole fact population (quadratic at scale).
        self._facts_version = 0
        self._co_index: dict[
            str, tuple[int, tuple[dict, dict]]
        ] = {}
        # Object-population version plus a sorted-instances cache:
        # the bulk generator and the state maps repeatedly need "the
        # instances of T in deterministic order", and re-sorting an
        # unchanged population is O(n log n) per probe.  The cache is
        # keyed per type: mutating one type (and its propagation
        # closure) must not evict every other type's sorted column.
        self._objects_version = 0
        self._type_versions: dict[str, int] = {}
        self._sorted_cache: dict[str, tuple[int, list[Instance]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_instance(self, type_name: str, instance: Instance) -> Instance:
        """Add an instance to an object type and all its supertypes.

        Supertype propagation keeps the population conformant with the
        extensional subtype semantics by construction.
        """
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        self._objects_version += 1
        version = self._objects_version
        self._objects[type_name].add(instance)
        self._type_versions[type_name] = version
        for ancestor in self.schema.ancestors_of(type_name):
            self._objects[ancestor].add(instance)
            self._type_versions[ancestor] = version
        return instance

    def add_instances(self, type_name: str, instances: Iterable[Instance]) -> None:
        """Add several instances to an object type (one bulk update)."""
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        new = set(instances)
        if not new:
            return
        self._objects_version += 1
        version = self._objects_version
        self._objects[type_name].update(new)
        self._type_versions[type_name] = version
        for ancestor in self.schema.ancestors_of(type_name):
            self._objects[ancestor].update(new)
            self._type_versions[ancestor] = version

    def add_fact(
        self, fact_name: str, first: Instance, second: Instance
    ) -> tuple[Instance, Instance]:
        """Add a fact instance; both fillers are auto-added to the players.

        Auto-adding mirrors how NIAM diagrams are populated: placing a
        pair in a fact's population asserts the existence of both
        objects.
        """
        if fact_name not in self._facts:
            raise PopulationError(f"no fact type {fact_name!r} in the schema")
        fact = self.schema.fact_type(fact_name)
        self.add_instance(fact.first.player, first)
        self.add_instance(fact.second.player, second)
        self._facts[fact_name].add((first, second))
        self._facts_version += 1
        return (first, second)

    def add_facts(
        self, fact_name: str, pairs: Iterable[tuple[Instance, Instance]]
    ) -> None:
        """Add many fact instances in one batched update.

        Equivalent to calling :meth:`add_fact` per pair, but the
        filler auto-adds and ancestor propagation run once per filler
        set instead of once per pair — the bulk path the state maps
        use at harness scale.
        """
        if fact_name not in self._facts:
            raise PopulationError(f"no fact type {fact_name!r} in the schema")
        pairs = list(pairs)
        if not pairs:
            return
        fact = self.schema.fact_type(fact_name)
        self.add_instances(fact.first.player, (pair[0] for pair in pairs))
        self.add_instances(fact.second.player, (pair[1] for pair in pairs))
        self._facts[fact_name].update(pairs)
        self._facts_version += 1

    def remove_fact(self, fact_name: str, first: Instance, second: Instance) -> None:
        """Remove one fact instance (object populations are untouched)."""
        try:
            self._facts[fact_name].remove((first, second))
            self._facts_version += 1
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
        if instance not in self._objects[type_name]:
            raise PopulationError(
                f"{instance!r} is not an instance of {type_name!r}"
            )
        self._objects_version += 1
        version = self._objects_version
        self._objects[type_name].discard(instance)
        self._type_versions[type_name] = version
        for descendant in self.schema.descendants_of(type_name):
            self._objects[descendant].discard(instance)
            self._type_versions[descendant] = version

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def instances(self, type_name: str) -> frozenset[Instance]:
        """The population of an object type."""
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        return frozenset(self._objects[type_name])

    def sorted_instances(self, type_name: str) -> list[Instance]:
        """The population of an object type, sorted by ``repr``.

        Cached against the *per-type* population version: repeated
        probes of an unchanged type (the bulk generator's inner
        loops) pay one list copy instead of a fresh sort, even while
        other types keep mutating.
        """
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        version = self._type_versions.get(type_name, 0)
        cached = self._sorted_cache.get(type_name)
        if cached is None or cached[0] != version:
            cached = (
                version,
                sorted(self._objects[type_name], key=repr),
            )
            self._sorted_cache[type_name] = cached
        return list(cached[1])

    def fact_instances(self, fact_name: str) -> frozenset[tuple[Instance, Instance]]:
        """The population of a fact type: a set of (first, second) pairs."""
        if fact_name not in self._facts:
            raise PopulationError(f"no fact type {fact_name!r} in the schema")
        return frozenset(self._facts[fact_name])

    def role_population(self, role_id: RoleId) -> frozenset[Instance]:
        """The set of instances actually playing a role."""
        fact = self.schema.fact_type(role_id.fact)
        position = fact.position_of(role_id.role)
        return frozenset(pair[position] for pair in self._facts[fact.name])

    def role_occurrences(self, role_id: RoleId) -> dict[Instance, int]:
        """How many times each instance plays the role."""
        fact = self.schema.fact_type(role_id.fact)
        position = fact.position_of(role_id.role)
        counts: dict[Instance, int] = {}
        for pair in self._facts[fact.name]:
            counts[pair[position]] = counts.get(pair[position], 0) + 1
        return counts

    def item_population(self, item: ConstraintItem) -> frozenset[Instance]:
        """The population a set-algebraic constraint item ranges over."""
        if isinstance(item, RoleId):
            return self.role_population(item)
        sublink = self.schema.sublink(item.sublink)
        return self.instances(sublink.subtype)

    def facts_of(
        self, fact_name: str, role_name: str, instance: Instance
    ) -> frozenset[Instance]:
        """Co-role fillers linked to ``instance`` through the fact type."""
        fact = self.schema.fact_type(fact_name)
        position = fact.position_of(role_name)
        cached = self._co_index.get(fact_name)
        if cached is None or cached[0] != self._facts_version:
            grouped: tuple[dict, dict] = ({}, {})
            for pair in self._facts[fact_name]:
                grouped[0].setdefault(pair[0], set()).add(pair[1])
                grouped[1].setdefault(pair[1], set()).add(pair[0])
            index = (
                {k: frozenset(v) for k, v in grouped[0].items()},
                {k: frozenset(v) for k, v in grouped[1].items()},
            )
            cached = (self._facts_version, index)
            self._co_index[fact_name] = cached
        return cached[1][position].get(instance, frozenset())

    def is_empty(self) -> bool:
        """True when no object type has any instance."""
        return not any(self._objects.values())

    # ------------------------------------------------------------------
    # Model checking
    # ------------------------------------------------------------------

    def check(self) -> list[Violation]:
        """All ways this population fails to be a model of its schema."""
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
        for fact in self.schema.fact_types:
            for first, second in self._facts[fact.name]:
                if first not in self._objects[fact.first.player]:
                    violations.append(
                        Violation(
                            "conformance",
                            f"fact {fact.name!r}: filler {first!r} is not an "
                            f"instance of {fact.first.player!r}",
                        )
                    )
                if second not in self._objects[fact.second.player]:
                    violations.append(
                        Violation(
                            "conformance",
                            f"fact {fact.name!r}: filler {second!r} is not an "
                            f"instance of {fact.second.player!r}",
                        )
                    )
        for sublink in self.schema.sublinks:
            stray = self._objects[sublink.subtype] - self._objects[sublink.supertype]
            for instance in stray:
                violations.append(
                    Violation(
                        "conformance",
                        f"sublink {sublink.name!r}: {instance!r} is in subtype "
                        f"{sublink.subtype!r} but not in supertype "
                        f"{sublink.supertype!r}",
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
        if constraint.is_simple:
            role_id = constraint.roles[0]
            duplicates = [
                instance
                for instance, count in self.role_occurrences(role_id).items()
                if count > 1
            ]
            return [
                Violation(
                    constraint.name,
                    f"instance {instance!r} plays role {role_id} more than once",
                )
                for instance in duplicates
            ]
        if not constraint.is_external:
            # Uniqueness spanning both roles of one fact type: fact
            # populations are sets of pairs, so this is satisfied by
            # construction.
            return []
        return self._check_external_uniqueness(constraint)

    def _check_external_uniqueness(
        self, constraint: UniquenessConstraint
    ) -> list[Violation]:
        """External uniqueness: the combination of far-role fillers
        identifies at most one instance of the common (co-role) player."""
        value_maps: list[dict[Instance, frozenset[Instance]]] = []
        for role_id in constraint.roles:
            fact = self.schema.fact_type(role_id.fact)
            far_position = fact.position_of(role_id.role)
            near_position = 1 - far_position
            mapping: dict[Instance, set[Instance]] = {}
            for pair in self._facts[fact.name]:
                mapping.setdefault(pair[near_position], set()).add(
                    pair[far_position]
                )
            value_maps.append(
                {common: frozenset(values) for common, values in mapping.items()}
            )
        combos: dict[tuple[Instance, ...], Instance] = {}
        violations = []
        shared = set(value_maps[0])
        for mapping in value_maps[1:]:
            shared &= set(mapping)
        for common in shared:
            value_sets = [sorted(mapping[common], key=repr) for mapping in value_maps]
            for combo in itertools.product(*value_sets):
                previous = combos.get(combo)
                if previous is not None and previous != common:
                    violations.append(
                        Violation(
                            constraint.name,
                            f"combination {combo!r} identifies both "
                            f"{previous!r} and {common!r}",
                        )
                    )
                combos[combo] = common
        return violations

    def _check_total(self, constraint: TotalUnionConstraint) -> list[Violation]:
        covered: set[Instance] = set()
        for item in constraint.items:
            covered |= self.item_population(item)
        missing = self._objects[constraint.object_type] - covered
        return [
            Violation(
                constraint.name,
                f"instance {instance!r} of {constraint.object_type!r} plays "
                "none of the required roles/subtypes",
            )
            for instance in missing
        ]

    def _check_exclusion(self, constraint: ExclusionConstraint) -> list[Violation]:
        violations = []
        populations = [
            (item, self.item_population(item)) for item in constraint.items
        ]
        for (item_a, pop_a), (item_b, pop_b) in itertools.combinations(
            populations, 2
        ):
            for instance in pop_a & pop_b:
                violations.append(
                    Violation(
                        constraint.name,
                        f"instance {instance!r} populates both {item_a} and "
                        f"{item_b}, which are mutually exclusive",
                    )
                )
        return violations

    def _check_subset(self, constraint: SubsetConstraint) -> list[Violation]:
        stray = self.item_population(constraint.subset) - self.item_population(
            constraint.superset
        )
        return [
            Violation(
                constraint.name,
                f"instance {instance!r} populates {constraint.subset} but "
                f"not {constraint.superset}",
            )
            for instance in stray
        ]

    def _check_equality(self, constraint: EqualityConstraint) -> list[Violation]:
        reference = self.item_population(constraint.items[0])
        violations = []
        for item in constraint.items[1:]:
            population = self.item_population(item)
            if population != reference:
                difference = population ^ reference
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
        for instance, count in self.role_occurrences(constraint.role).items():
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
                        f"instance {instance!r} plays role {constraint.role} "
                        f"{count} times (allowed: {bound})",
                    )
                )
        return violations

    def _check_value(self, constraint: ValueConstraint) -> list[Violation]:
        allowed = set(constraint.values)
        return [
            Violation(
                constraint.name,
                f"instance {instance!r} of {constraint.object_type!r} is not "
                f"among the allowed values",
            )
            for instance in self._objects[constraint.object_type] - allowed
        ]

    # ------------------------------------------------------------------
    # Whole-population operations
    # ------------------------------------------------------------------

    def copy(self) -> "RowPopulation":
        """An independent copy bound to the same schema object."""
        duplicate = RowPopulation(self.schema)
        duplicate._objects = {name: set(pop) for name, pop in self._objects.items()}
        duplicate._facts = {name: set(pop) for name, pop in self._facts.items()}
        return duplicate

    def as_dict(self) -> dict[str, object]:
        """A canonical, comparable snapshot of the state."""
        return {
            "objects": {name: frozenset(pop) for name, pop in self._objects.items()},
            "facts": {name: frozenset(pop) for name, pop in self._facts.items()},
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RowPopulation):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        objects = sum(len(pop) for pop in self._objects.values())
        facts = sum(len(pop) for pop in self._facts.values())
        return (
            f"<RowPopulation of {self.schema.name!r}: {objects} object "
            f"instances, {facts} fact instances>"
        )


def from_row(population: RowPopulation) -> Population:
    """A lossless interned image of a row-at-a-time population."""
    columnar = Population(population.schema)
    intern = columnar.intern
    # Fresh sets, never ``update``: an unpopulated name's stored set is
    # the shared frozen empty set.
    for name, members in population._objects.items():
        columnar._objects[name] = {intern(value) for value in members}
    for name, pairs in population._facts.items():
        columnar._pairs[name] = {
            (intern(first), intern(second)) for first, second in pairs
        }
    columnar._version += 1
    return columnar


def to_row(columnar: Population) -> RowPopulation:
    """The equivalent row-at-a-time population (lossless)."""
    population = RowPopulation(columnar.schema)
    values = columnar._values
    for name, members in columnar._objects.items():
        population._objects[name].update(values[i] for i in members)
    for name, pairs in columnar._pairs.items():
        population._facts[name].update(
            (values[first], values[second]) for first, second in pairs
        )
    population._facts_version += 1
    population._objects_version += 1
    return population


class NaiveReferenceResolver(ReferenceResolver):
    """The naive fix-point the semi-naive resolver replaced.

    Overrides both the loop and the chooser: inheriting the per-type
    ``_choose`` would run the production code under test.
    """

    def _resolve(self) -> None:
        """Fix-point: ground schemes bottom-up from lexical types."""
        candidates = {
            t.name: candidate_schemes(self.schema, t.name)
            for t in self.schema.object_types
        }
        changed = True
        while changed:
            changed = False
            for type_name, schemes in candidates.items():
                for scheme in schemes:
                    expansion = self._try_expand(scheme)
                    if expansion is None:
                        continue
                    stored = self._expansions.setdefault(type_name, [])
                    for position, existing in enumerate(stored):
                        if existing.scheme == scheme:
                            if existing != expansion:
                                # An inherited scheme whose supertype's
                                # choice changed this iteration: refresh.
                                stored[position] = expansion
                                changed = True
                            break
                    else:
                        stored.append(expansion)
                        changed = True
            self._choose()
        self._check_preferences()

    def _choose(self) -> None:
        """Pick each type's expansion: preference first, else smallest."""
        for type_name, expansions in self._expansions.items():
            preferred_key = self.preferences.get(type_name)
            if preferred_key is not None:
                matching = [
                    e for e in expansions if e.scheme.key == tuple(preferred_key)
                ]
                if matching:
                    self._chosen[type_name] = matching[0]
                    continue
            self._chosen[type_name] = min(
                expansions, key=lambda e: (e.cost, e.scheme.key)
            )
