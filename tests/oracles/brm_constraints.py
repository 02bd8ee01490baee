"""The per-kind ``isinstance`` ladders each BRM constraint class replaced.

Before every class of ``repro.brm.constraints`` carried its own faces,
six functions switched on the constraint classes, and this module
keeps their bodies:

- :func:`items_of` with :data:`SET_ALGEBRAIC_KINDS`, the item ladder of
  ``repro.brm.constraints``;
- :func:`check_constraint` and its per-kind ``_check_*`` bodies,
  ``Population._check_constraint``, with ``self`` now the population
  argument;
- :func:`analyzer_signature` and :func:`mapper_signature`, the two
  duplicate keys of ``repro.analyzer.correctness`` and
  ``repro.mapper.transformations.binary_binary`` (only the mapper's
  keyed uniqueness on ``is_reference``);
- :func:`describe_constraint`, the map report's house-style text of
  ``repro.mapper.concepts``;
- :func:`dsl_constraint`, the DSL printer's statement of
  ``repro.dsl.parser``, which printed every non-string value with
  ``str`` (so booleans, and strings holding a quote, printed DSL that
  did not parse).

``tests/brm/test_constraint_faces.py`` and
``tests/brm/test_constraint_conformance.py`` assert each face equals
its oracle.
"""

from __future__ import annotations

import itertools

from repro.brm.concepts import (
    describe_item,
    describe_object_type,
    describe_role,
)
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
    Violation,
)
from repro.brm.population import Population
from repro.brm.schema import BinarySchema
from repro.brm.sublinks import SublinkRef

# ----------------------------------------------------------------------
# Items


SET_ALGEBRAIC_KINDS = (
    TotalUnionConstraint,
    ExclusionConstraint,
    SubsetConstraint,
    EqualityConstraint,
)


def items_of(constraint: Constraint) -> tuple[ConstraintItem, ...]:
    """All role/sublink items a constraint ranges over."""
    if isinstance(constraint, UniquenessConstraint):
        return constraint.roles
    if isinstance(constraint, TotalUnionConstraint):
        return constraint.items
    if isinstance(constraint, (ExclusionConstraint, EqualityConstraint)):
        return constraint.items
    if isinstance(constraint, SubsetConstraint):
        return (constraint.subset, constraint.superset)
    if isinstance(constraint, FrequencyConstraint):
        return (constraint.role,)
    return ()


# ----------------------------------------------------------------------
# Verdicts


def check_constraint(
    population: Population, constraint: Constraint
) -> list[Violation]:
    """``Population._check_constraint``."""
    if isinstance(constraint, UniquenessConstraint):
        return _check_uniqueness(population, constraint)
    if isinstance(constraint, TotalUnionConstraint):
        return _check_total(population, constraint)
    if isinstance(constraint, ExclusionConstraint):
        return _check_exclusion(population, constraint)
    if isinstance(constraint, SubsetConstraint):
        return _check_subset(population, constraint)
    if isinstance(constraint, EqualityConstraint):
        return _check_equality(population, constraint)
    if isinstance(constraint, FrequencyConstraint):
        return _check_frequency(population, constraint)
    if isinstance(constraint, ValueConstraint):
        return _check_value(population, constraint)
    return []


def check(population: Population) -> list[Violation]:
    """``Population.check`` as it was: conformance, then the ladder
    over every constraint in schema order."""
    violations = list(population._check_conformance())
    for constraint in population.schema.constraints:
        violations.extend(check_constraint(population, constraint))
    return violations


def _check_uniqueness(
    self: Population, constraint: UniquenessConstraint
) -> list[Violation]:
    values = self._values
    if constraint.is_simple:
        role_id = constraint.roles[0]
        return [
            Violation(
                constraint.name,
                f"instance {values[interned]!r} plays role {role_id} "
                "more than once",
            )
            for interned, count in self.role_counts(role_id).items()
            if count > 1
        ]
    if not constraint.is_external:
        # Spanning both roles of one fact type: pair sets satisfy
        # it by construction.
        return []
    return _check_external_uniqueness(self, constraint)


def _check_external_uniqueness(
    self: Population, constraint: UniquenessConstraint
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


def _check_total(
    self: Population, constraint: TotalUnionConstraint
) -> list[Violation]:
    covered: set[int] = set()
    for item in constraint.items:
        covered |= self.item_ids(item)
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


def _check_exclusion(
    self: Population, constraint: ExclusionConstraint
) -> list[Violation]:
    violations = []
    values = self._values
    populations = [(item, self.item_ids(item)) for item in constraint.items]
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


def _check_subset(
    self: Population, constraint: SubsetConstraint
) -> list[Violation]:
    stray = self.item_ids(constraint.subset) - self.item_ids(
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


def _check_equality(
    self: Population, constraint: EqualityConstraint
) -> list[Violation]:
    reference = self.item_ids(constraint.items[0])
    values = self._values
    violations = []
    for item in constraint.items[1:]:
        population = self.item_ids(item)
        if population != reference:
            difference = [values[i] for i in population ^ reference]
            violations.append(
                Violation(
                    constraint.name,
                    f"populations of {constraint.items[0]} and {item} "
                    f"differ on {sorted(difference, key=repr)!r}",
                )
            )
    return violations


def _check_frequency(
    self: Population, constraint: FrequencyConstraint
) -> list[Violation]:
    violations = []
    values = self._values
    for interned, count in self.role_counts(constraint.role).items():
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


def _check_value(
    self: Population, constraint: ValueConstraint
) -> list[Violation]:
    allowed = {
        interned
        for value in constraint.values
        if (interned := self.id_of(value)) is not None
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


# ----------------------------------------------------------------------
# Duplicate keys


def analyzer_signature(constraint: object) -> tuple[object, ...]:
    """``repro.analyzer.correctness._signature``."""
    if isinstance(constraint, UniquenessConstraint):
        return ("uniqueness", frozenset(constraint.roles))
    if isinstance(constraint, ExclusionConstraint):
        return ("exclusion", frozenset(constraint.items))
    if isinstance(constraint, EqualityConstraint):
        return ("equality", frozenset(constraint.items))
    if isinstance(constraint, SubsetConstraint):
        return ("subset", constraint.subset, constraint.superset)
    if isinstance(constraint, TotalUnionConstraint):
        return (
            "total",
            constraint.object_type,
            frozenset(constraint.items),
        )
    return ("other", id(constraint))


def mapper_signature(constraint: Constraint) -> tuple:
    """``repro.mapper.transformations.binary_binary._signature``."""
    if isinstance(constraint, UniquenessConstraint):
        return ("uniqueness", frozenset(constraint.roles), constraint.is_reference)
    if isinstance(constraint, TotalUnionConstraint):
        return ("total", constraint.object_type, frozenset(constraint.items))
    if isinstance(constraint, ExclusionConstraint):
        return ("exclusion", frozenset(constraint.items))
    if isinstance(constraint, EqualityConstraint):
        return ("equality", frozenset(constraint.items))
    if isinstance(constraint, SubsetConstraint):
        return ("subset", constraint.subset, constraint.superset)
    return ("unique-name", constraint.name)


def duplicate_pairs(constraints, signature) -> list[tuple[str, str]]:
    """(duplicate, original) names under one of the signatures above,
    scanned in order as both old callers scanned."""
    seen: dict[tuple, str] = {}
    pairs = []
    for constraint in constraints:
        key = signature(constraint)
        if key in seen:
            pairs.append((constraint.name, seen[key]))
        else:
            seen[key] = constraint.name
    return pairs


# ----------------------------------------------------------------------
# Descriptions


def describe_constraint(schema: BinarySchema, constraint: Constraint) -> str:
    """The house-style description of a binary constraint."""
    if isinstance(constraint, UniquenessConstraint):
        if constraint.is_simple:
            role_id = constraint.roles[0]
            co_player = schema.co_player_name(role_id)
            label = "IDENTIFIER" if constraint.is_reference else "UNIQUE"
            return (
                f"{label} : {describe_role(schema, role_id)} AND "
                f"{describe_object_type(schema, co_player)}"
            )
        roles = " , ".join(describe_role(schema, r) for r in constraint.roles)
        return f"UNIQUE OVER : {roles}"
    if isinstance(constraint, TotalUnionConstraint):
        if constraint.is_total_role:
            role_id = constraint.items[0]
            co_player = schema.co_player_name(role_id)
            return (
                f"TOTAL : {describe_role(schema, role_id)} AND "
                f"{describe_object_type(schema, co_player)}"
            )
        items = " , ".join(describe_item(schema, i) for i in constraint.items)
        return (
            f"TOTAL UNION ON "
            f"{describe_object_type(schema, constraint.object_type)} : {items}"
        )
    if isinstance(constraint, ExclusionConstraint):
        items = " , ".join(describe_item(schema, i) for i in constraint.items)
        return f"EXCLUSION : {items}"
    if isinstance(constraint, EqualityConstraint):
        items = " , ".join(describe_item(schema, i) for i in constraint.items)
        return f"EQUALITY : {items}"
    if isinstance(constraint, SubsetConstraint):
        return (
            f"SUBSET : {describe_item(schema, constraint.subset)} IN "
            f"{describe_item(schema, constraint.superset)}"
        )
    if isinstance(constraint, FrequencyConstraint):
        upper = "N" if constraint.maximum is None else str(constraint.maximum)
        return (
            f"FREQUENCY ({constraint.minimum}..{upper}) : "
            f"{describe_role(schema, constraint.role)}"
        )
    if isinstance(constraint, ValueConstraint):
        values = ", ".join(repr(v) for v in constraint.values)
        return (
            f"VALUES OF "
            f"{describe_object_type(schema, constraint.object_type)} : "
            f"({values})"
        )
    return f"CONSTRAINT {constraint.name}"


# ----------------------------------------------------------------------
# DSL statements


def _item(item) -> str:
    if isinstance(item, SublinkRef):
        return f"sublink {item.sublink}"
    return f"{item.fact}.{item.role}"


def dsl_constraint(constraint) -> str:
    """``repro.dsl.parser._constraint``."""
    name = constraint.name
    if isinstance(constraint, UniquenessConstraint):
        roles = ", ".join(_item(r) for r in constraint.roles)
        suffix = " reference" if constraint.is_reference else ""
        return f"constraint {name} unique {roles}{suffix}"
    if isinstance(constraint, TotalUnionConstraint):
        if constraint.is_total_role:
            return f"constraint {name} total {_item(constraint.items[0])}"
        items = ", ".join(_item(i) for i in constraint.items)
        return (
            f"constraint {name} total-union {constraint.object_type} : {items}"
        )
    if isinstance(constraint, ExclusionConstraint):
        items = ", ".join(_item(i) for i in constraint.items)
        return f"constraint {name} exclusion : {items}"
    if isinstance(constraint, EqualityConstraint):
        items = ", ".join(_item(i) for i in constraint.items)
        return f"constraint {name} equality : {items}"
    if isinstance(constraint, SubsetConstraint):
        return (
            f"constraint {name} subset {_item(constraint.subset)} in "
            f"{_item(constraint.superset)}"
        )
    if isinstance(constraint, FrequencyConstraint):
        upper = (
            f" .. {constraint.maximum}"
            if constraint.maximum is not None
            else ""
        )
        return (
            f"constraint {name} frequency {_item(constraint.role)} "
            f"{constraint.minimum}{upper}"
        )
    if isinstance(constraint, ValueConstraint):
        values = ", ".join(
            f"'{v}'" if isinstance(v, str) else str(v) for v in constraint.values
        )
        return f"constraint {name} values {constraint.object_type} : {values}"
    raise TypeError(f"cannot serialize constraint {constraint!r}")
