"""The BRM constraint taxonomy.

"Constraints are named n-place predicates with variables ranging over
the chosen object types ...  Certain constraint types occur so
frequently and are so fundamental that they have a graphical
representation as well" (section 2).  The paper's example schemas use:

* the **identifier** constraint — a simple functional dependency,
  drawn as a line over the key role (here
  :class:`UniquenessConstraint` over one role);
* the **total role** constraint — a "V" sign: every instance of an
  object type participates in a given role;
* the **total union** constraint — its generalization over several
  roles and/or subtypes;
* the **exclusion** constraint — mutual exclusion of subtypes (or
  roles).

We additionally implement the set-algebraic constraints the mapper
needs to emit lossless rules and that RIDL-A checks for consistency:
subset and equality constraints on role/subtype populations, plus
uniqueness over several roles (external identifiers / compound naming
conventions), occurrence frequency constraints, and value constraints
on lexical types.

All constraints are immutable value objects; set-algebraic items are
either a :class:`~repro.brm.facts.RoleId` or a
:class:`~repro.brm.sublinks.SublinkRef`.

Each class is the one definition of its constraint kind, with five
faces:

* :attr:`~Constraint.items` — the roles and sublinks it ranges over;
* :meth:`~Constraint.signature` — its duplicate key: two constraints
  of a schema share it exactly when one restates the other;
* :meth:`~Constraint.check` — its share of
  :meth:`Population.check <repro.brm.population.Population.check>`,
  the predicate judged on a database state (section 4.1);
* :meth:`~Constraint.describe` — its house-style text in the map
  report (section 4.3), e.g. ``TOTAL : ROLE presented_during ON NOLOT
  Program_Paper AND LOT-NOLOT Session``;
* :meth:`~Constraint.to_dsl` — its statement in the schema DSL.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

from repro.brm.concepts import (
    describe_item,
    describe_object_type,
    describe_role,
)
from repro.brm.facts import RoleId
from repro.brm.sublinks import SublinkRef
from repro.errors import ConstraintError

if TYPE_CHECKING:  # the population and the schema import this module
    from repro.brm.population import Population
    from repro.brm.schema import BinarySchema

ConstraintItem = Union[RoleId, SublinkRef]


@dataclass(frozen=True)
class Violation:
    """One way in which a population fails to be a model of its schema."""

    rule: str
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] {self.message}"


def _check_constraint_name(name: str) -> None:
    if not name:
        raise ConstraintError("constraint names must be non-empty")


def _dsl_item(item: ConstraintItem) -> str:
    if isinstance(item, SublinkRef):
        return f"sublink {item.sublink}"
    return str(item)


def _dsl_items(items: Iterable[ConstraintItem]) -> str:
    return ", ".join(map(_dsl_item, items))


def _described(schema: BinarySchema, items: Iterable[ConstraintItem]) -> str:
    return " , ".join(describe_item(schema, item) for item in items)


def _dsl_value(value: object) -> str:
    """A value literal of the DSL: quoted strings with ``''`` for a
    quote, ``true``/``false``, and numbers as Python prints them."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return str(value)


@dataclass(frozen=True)
class Constraint:
    """Base class for all BRM constraints."""

    name: str

    def __post_init__(self) -> None:
        _check_constraint_name(self.name)

    @property
    def kind(self) -> str:
        """Short lowercase tag used in diagnostics and map reports."""
        return type(self).__name__.removesuffix("Constraint").lower()

    @property
    def items(self) -> tuple[ConstraintItem, ...]:
        """All role/sublink items the constraint ranges over.

        Used by schema validation, the constraint index, the
        consistency solver and the transformation engine.
        """
        raise NotImplementedError

    def signature(self) -> tuple:
        """The constraint's duplicate key.

        Two constraints of one schema share it exactly when one
        restates the other, so RIDL-A warns of the second and the
        mapper's canonicalization drops it.  Frequency and value
        constraints are keyed by their name: neither reports one as a
        duplicate.
        """
        return ("unique-name", self.name)

    def check(self, population: Population) -> list[Violation]:
        """The ways ``population`` violates the constraint, in the
        order :meth:`Population.check` reports them."""
        raise NotImplementedError

    def describe(self, schema: BinarySchema) -> str:
        """The house-style description of the constraint in ``schema``."""
        raise NotImplementedError

    def to_dsl(self) -> str:
        """The DSL statement declaring the constraint."""
        raise NotImplementedError


def duplicate_constraints(
    constraints: Iterable[Constraint],
) -> list[tuple[str, str]]:
    """``(name, original)`` for each constraint whose
    :meth:`~Constraint.signature` an earlier one already has, in order."""
    seen: dict[tuple, str] = {}
    found: list[tuple[str, str]] = []
    for constraint in constraints:
        original = seen.setdefault(constraint.signature(), constraint.name)
        if original != constraint.name:
            found.append((constraint.name, original))
    return found


@dataclass(frozen=True)
class UniquenessConstraint(Constraint):
    """Uniqueness over one or more roles.

    * One role of a fact type: the classical NIAM identifier bar — a
      simple functional dependency from the role's player to the
      co-role's player (each instance plays the role at most once).
    * Both roles of one fact type: the fact is identified by the pair
      (a many-to-many fact type).
    * Roles of several fact types that share a common player: an
      *external* (compound) identifier; the combination of co-role
      fillers identifies the common instance.

    ``is_reference`` marks the constraint as (part of) the preferred
    naming convention of the identified NOLOT; RIDL-M's lexical
    mapping option may override the default "smallest" choice.
    """

    roles: tuple[RoleId, ...] = field(default=())
    is_reference: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.roles:
            raise ConstraintError(
                f"uniqueness constraint {self.name!r} needs at least one role"
            )
        if len(set(self.roles)) != len(self.roles):
            raise ConstraintError(
                f"uniqueness constraint {self.name!r} lists a role twice"
            )

    @property
    def is_simple(self) -> bool:
        """True for the single-role (simple FD) form."""
        return len(self.roles) == 1

    @property
    def is_external(self) -> bool:
        """True when the roles span more than one fact type."""
        return len({role.fact for role in self.roles}) > 1

    @property
    def items(self) -> tuple[ConstraintItem, ...]:
        return self.roles

    def signature(self) -> tuple:
        # A reference bar restating a plain one is kept: it carries the
        # naming convention the mapper keys relations by.
        return ("uniqueness", frozenset(self.roles), self.is_reference)

    def check(self, population: Population) -> list[Violation]:
        if self.is_simple:
            role_id = self.roles[0]
            return [
                Violation(
                    self.name,
                    f"instance {population.value(interned)!r} plays role "
                    f"{role_id} more than once",
                )
                for interned, count in population.role_counts(role_id).items()
                if count > 1
            ]
        if not self.is_external:
            # Spanning both roles of one fact type: pair sets satisfy
            # it by construction.
            return []
        value = population.value
        value_maps: list[dict[int, tuple[int, ...]]] = []
        for role_id in self.roles:
            fact = population.schema.fact_type(role_id.fact)
            far_position = fact.position_of(role_id.role)
            # Grouped by the *near* (common-player) filler.
            value_maps.append(population.co_ids(fact.name, 1 - far_position))
        combos: dict[tuple, int] = {}
        violations = []
        shared = set(value_maps[0])
        for mapping in value_maps[1:]:
            shared &= set(mapping)
        for common in shared:
            value_sets = [
                population.sort_ids(mapping[common]) for mapping in value_maps
            ]
            for combo in itertools.product(*value_sets):
                previous = combos.get(combo)
                if previous is not None and previous != common:
                    shown = tuple(population.values_of(combo))
                    violations.append(
                        Violation(
                            self.name,
                            f"combination {shown!r} identifies both "
                            f"{value(previous)!r} and {value(common)!r}",
                        )
                    )
                combos[combo] = common
        return violations

    def describe(self, schema: BinarySchema) -> str:
        if self.is_simple:
            role_id = self.roles[0]
            co_player = schema.co_player_name(role_id)
            label = "IDENTIFIER" if self.is_reference else "UNIQUE"
            return (
                f"{label} : {describe_role(schema, role_id)} AND "
                f"{describe_object_type(schema, co_player)}"
            )
        roles = " , ".join(describe_role(schema, r) for r in self.roles)
        return f"UNIQUE OVER : {roles}"

    def to_dsl(self) -> str:
        suffix = " reference" if self.is_reference else ""
        return f"constraint {self.name} unique {_dsl_items(self.roles)}{suffix}"


@dataclass(frozen=True)
class TotalUnionConstraint(Constraint):
    """Total role / total union: every instance of ``object_type``
    participates in at least one of ``items`` (roles or subtypes).

    With a single role item this is the plain total role constraint
    (the "V" sign of the NIAM notation).
    """

    object_type: str = ""
    items: tuple[ConstraintItem, ...] = field(default=())

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.object_type:
            raise ConstraintError(
                f"total constraint {self.name!r} must name its object type"
            )
        if not self.items:
            raise ConstraintError(
                f"total constraint {self.name!r} needs at least one item"
            )

    @property
    def is_total_role(self) -> bool:
        """True for the single-role special case."""
        return len(self.items) == 1 and isinstance(self.items[0], RoleId)

    def signature(self) -> tuple:
        return ("total", self.object_type, frozenset(self.items))

    def check(self, population: Population) -> list[Violation]:
        covered: set[int] = set()
        for item in self.items:
            covered |= population.item_ids(item)
        missing = population.instance_ids(self.object_type) - covered
        return [
            Violation(
                self.name,
                f"instance {population.value(interned)!r} of "
                f"{self.object_type!r} plays none of the required "
                "roles/subtypes",
            )
            for interned in missing
        ]

    def describe(self, schema: BinarySchema) -> str:
        if self.is_total_role:
            role_id = self.items[0]
            co_player = schema.co_player_name(role_id)
            return (
                f"TOTAL : {describe_role(schema, role_id)} AND "
                f"{describe_object_type(schema, co_player)}"
            )
        return (
            f"TOTAL UNION ON "
            f"{describe_object_type(schema, self.object_type)} : "
            f"{_described(schema, self.items)}"
        )

    def to_dsl(self) -> str:
        if self.is_total_role:
            return f"constraint {self.name} total {_dsl_item(self.items[0])}"
        return (
            f"constraint {self.name} total-union {self.object_type} : "
            f"{_dsl_items(self.items)}"
        )


@dataclass(frozen=True)
class ExclusionConstraint(Constraint):
    """The populations of ``items`` (roles or subtypes) are pairwise
    disjoint — e.g. mutually exclusive subtypes of a NOLOT."""

    items: tuple[ConstraintItem, ...] = field(default=())

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.items) < 2:
            raise ConstraintError(
                f"exclusion constraint {self.name!r} needs at least two items"
            )
        if len(set(self.items)) != len(self.items):
            raise ConstraintError(
                f"exclusion constraint {self.name!r} lists an item twice"
            )

    def signature(self) -> tuple:
        return ("exclusion", frozenset(self.items))

    def check(self, population: Population) -> list[Violation]:
        violations = []
        populations = [(item, population.item_ids(item)) for item in self.items]
        for (item_a, pop_a), (item_b, pop_b) in itertools.combinations(
            populations, 2
        ):
            for interned in pop_a & pop_b:
                violations.append(
                    Violation(
                        self.name,
                        f"instance {population.value(interned)!r} populates "
                        f"both {item_a} and {item_b}, which are mutually "
                        "exclusive",
                    )
                )
        return violations

    def describe(self, schema: BinarySchema) -> str:
        return f"EXCLUSION : {_described(schema, self.items)}"

    def to_dsl(self) -> str:
        return f"constraint {self.name} exclusion : {_dsl_items(self.items)}"


@dataclass(frozen=True)
class SubsetConstraint(Constraint):
    """The population of ``subset`` is contained in that of ``superset``."""

    subset: ConstraintItem = field(default=None)  # type: ignore[assignment]
    superset: ConstraintItem = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.subset is None or self.superset is None:
            raise ConstraintError(
                f"subset constraint {self.name!r} needs both ends"
            )
        if self.subset == self.superset:
            raise ConstraintError(
                f"subset constraint {self.name!r} relates an item to itself"
            )

    @property
    def items(self) -> tuple[ConstraintItem, ...]:
        return (self.subset, self.superset)

    def signature(self) -> tuple:
        return ("subset", self.subset, self.superset)

    def check(self, population: Population) -> list[Violation]:
        stray = population.item_ids(self.subset) - population.item_ids(
            self.superset
        )
        return [
            Violation(
                self.name,
                f"instance {population.value(interned)!r} populates "
                f"{self.subset} but not {self.superset}",
            )
            for interned in stray
        ]

    def describe(self, schema: BinarySchema) -> str:
        return (
            f"SUBSET : {describe_item(schema, self.subset)} IN "
            f"{describe_item(schema, self.superset)}"
        )

    def to_dsl(self) -> str:
        return (
            f"constraint {self.name} subset {_dsl_item(self.subset)} in "
            f"{_dsl_item(self.superset)}"
        )


@dataclass(frozen=True)
class EqualityConstraint(Constraint):
    """The populations of all ``items`` are equal (role equality).

    RIDL-M uses role equality to decide which optional roles can be
    grouped into one relation without introducing partial nulls, and
    emits *equal existence* lossless rules (``C_EE$`` in the paper)
    when grouping forces it.
    """

    items: tuple[ConstraintItem, ...] = field(default=())

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.items) < 2:
            raise ConstraintError(
                f"equality constraint {self.name!r} needs at least two items"
            )
        if len(set(self.items)) != len(self.items):
            raise ConstraintError(
                f"equality constraint {self.name!r} lists an item twice"
            )

    def signature(self) -> tuple:
        return ("equality", frozenset(self.items))

    def check(self, population: Population) -> list[Violation]:
        reference = population.item_ids(self.items[0])
        violations = []
        for item in self.items[1:]:
            members = population.item_ids(item)
            if members != reference:
                difference = population.values_of(tuple(members ^ reference))
                violations.append(
                    Violation(
                        self.name,
                        f"populations of {self.items[0]} and {item} "
                        f"differ on {sorted(difference, key=repr)!r}",
                    )
                )
        return violations

    def describe(self, schema: BinarySchema) -> str:
        return f"EQUALITY : {_described(schema, self.items)}"

    def to_dsl(self) -> str:
        return f"constraint {self.name} equality : {_dsl_items(self.items)}"


@dataclass(frozen=True)
class FrequencyConstraint(Constraint):
    """Each participating instance plays ``role`` between ``minimum``
    and ``maximum`` times (``maximum`` may be ``None`` for unbounded).

    The bound ranges over *participating* instances, so ``minimum=1``
    is vacuous on its own.  ``(minimum=0, maximum=0)`` is the legal
    "never plays" form: it forces the role's population empty (the
    implication engine reports the role ``FORCED_EMPTY``).  Any other
    ``maximum < minimum`` is rejected as an empty interval.
    """

    role: RoleId = field(default=None)  # type: ignore[assignment]
    minimum: int = 1
    maximum: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.role is None:
            raise ConstraintError(
                f"frequency constraint {self.name!r} must name a role"
            )
        if self.minimum < 0:
            raise ConstraintError(
                f"frequency constraint {self.name!r}: minimum must be >= 0"
            )
        if self.maximum is not None and self.maximum < self.minimum:
            raise ConstraintError(
                f"frequency constraint {self.name!r}: maximum must be >= "
                "minimum"
            )

    @property
    def items(self) -> tuple[ConstraintItem, ...]:
        return (self.role,)

    def check(self, population: Population) -> list[Violation]:
        violations = []
        minimum, maximum = self.minimum, self.maximum
        for interned, count in population.role_counts(self.role).items():
            if count < minimum or (maximum is not None and count > maximum):
                bound = (
                    f"{minimum}..{maximum}"
                    if maximum is not None
                    else f">={minimum}"
                )
                violations.append(
                    Violation(
                        self.name,
                        f"instance {population.value(interned)!r} plays role "
                        f"{self.role} {count} times (allowed: {bound})",
                    )
                )
        return violations

    def describe(self, schema: BinarySchema) -> str:
        upper = "N" if self.maximum is None else str(self.maximum)
        return (
            f"FREQUENCY ({self.minimum}..{upper}) : "
            f"{describe_role(schema, self.role)}"
        )

    def to_dsl(self) -> str:
        upper = f" .. {self.maximum}" if self.maximum is not None else ""
        return (
            f"constraint {self.name} frequency {_dsl_item(self.role)} "
            f"{self.minimum}{upper}"
        )


@dataclass(frozen=True)
class ValueConstraint(Constraint):
    """The instances of a lexical object type are drawn from an
    enumerated set of values (e.g. an indicator LOT with values
    ``('Y', 'N')``)."""

    object_type: str = ""
    values: tuple[object, ...] = field(default=())

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.object_type:
            raise ConstraintError(
                f"value constraint {self.name!r} must name its object type"
            )
        if not self.values:
            raise ConstraintError(
                f"value constraint {self.name!r} needs at least one value"
            )
        if len(set(self.values)) != len(self.values):
            # Duplicates are harmless semantically but poison domain
            # comparisons and SQL IN-lists: dedupe preserving order.
            # A value duplicates only a value of its own type: True == 1
            # in Python, but not in DDL or the DSL.
            typed = dict.fromkeys((type(v), v) for v in self.values)
            object.__setattr__(self, "values", tuple(v for _t, v in typed))

    # Values compare by type too, for the same reason.  The hash is the
    # dataclass's: equal values hash alike whatever their type.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValueConstraint):
            return NotImplemented
        return (self.name, self.object_type, self.values) == (
            other.name,
            other.object_type,
            other.values,
        ) and [type(v) for v in self.values] == [type(v) for v in other.values]

    def __hash__(self) -> int:
        return hash((self.name, self.object_type, self.values))

    @property
    def items(self) -> tuple[ConstraintItem, ...]:
        return ()

    def check(self, population: Population) -> list[Violation]:
        allowed = {
            interned
            for value in self.values
            if (interned := population.id_of(value)) is not None
        }
        return [
            Violation(
                self.name,
                f"instance {population.value(interned)!r} of "
                f"{self.object_type!r} is not among the allowed values",
            )
            for interned in population.instance_ids(self.object_type) - allowed
        ]

    def describe(self, schema: BinarySchema) -> str:
        values = ", ".join(repr(v) for v in self.values)
        return (
            f"VALUES OF {describe_object_type(schema, self.object_type)} : "
            f"({values})"
        )

    def to_dsl(self) -> str:
        values = ", ".join(map(_dsl_value, self.values))
        return f"constraint {self.name} values {self.object_type} : {values}"
