"""RIDL-A function 1 — correctness against the rules of the BRM.

RIDL-G enforces some rules at construction time (reference validity,
acyclic sublinks, LOT-free sublinks); the checks here are the
on-demand ones: lexical objects may not relate directly to each
other, constraint items must range over population-compatible types,
uniqueness and frequency constraints must not contradict each other,
and external uniqueness constraints must converge on a common player.
"""

from __future__ import annotations

from repro.analyzer.cache import memoized_on_schema_version
from repro.analyzer.diagnostics import Diagnostic, Severity
from repro.brm.constraints import (
    ConstraintItem,
    EqualityConstraint,
    ExclusionConstraint,
    FrequencyConstraint,
    SubsetConstraint,
    duplicate_constraints,
)
from repro.brm.facts import RoleId
from repro.brm.schema import BinarySchema


@memoized_on_schema_version()
def check_correctness(schema: BinarySchema) -> list[Diagnostic]:
    """All correctness findings for the schema.

    Memoized on the schema's ``(name, version)`` stamp — the per-step
    guards hit this after every rule firing, and most firings leave
    the schema untouched.  ``check_correctness.uncached(schema)``
    bypasses the memo (the guards use it when they suspect the schema
    was corrupted without a version bump).
    """
    diagnostics: list[Diagnostic] = []
    diagnostics.extend(_check_lexical_facts(schema))
    diagnostics.extend(_check_item_compatibility(schema))
    diagnostics.extend(_check_external_uniqueness_shape(schema))
    diagnostics.extend(_check_frequency_conflicts(schema))
    diagnostics.extend(_check_duplicate_constraints(schema))
    return diagnostics


def _check_lexical_facts(schema: BinarySchema) -> list[Diagnostic]:
    """LOTs carry representations; they do not relate to each other.

    A LOT-NOLOT has a non-lexical face, so only pure LOT-to-LOT fact
    types are illegal.
    """
    from repro.brm.objects import ObjectKind

    diagnostics = []
    for fact in schema.fact_types:
        first = schema.object_type(fact.first.player)
        second = schema.object_type(fact.second.player)
        if first.kind is ObjectKind.LOT and second.kind is ObjectKind.LOT:
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "LEXICAL_FACT",
                    fact.name,
                    f"fact type relates two LOTs ({first.name!r}, "
                    f"{second.name!r}); lexical object types may only "
                    "relate to non-lexical ones",
                )
            )
    return diagnostics


def _base_type(schema: BinarySchema, item: ConstraintItem) -> str:
    """The root supertype family an item's population lives in."""
    if isinstance(item, RoleId):
        type_name = schema.player_name(item)
    else:
        type_name = schema.sublink(item.sublink).supertype
    roots = schema.root_supertypes_of(type_name)
    return min(roots)  # deterministic representative


def _check_item_compatibility(schema: BinarySchema) -> list[Diagnostic]:
    """Set-algebraic items must range over comparable populations."""
    diagnostics = []
    for constraint in schema.constraints:
        if isinstance(
            constraint, (ExclusionConstraint, EqualityConstraint, SubsetConstraint)
        ):
            families = {_base_type(schema, item) for item in constraint.items}
            if len(families) > 1:
                diagnostics.append(
                    Diagnostic(
                        Severity.ERROR,
                        "INCOMPATIBLE_ITEMS",
                        constraint.name,
                        "constraint items range over unrelated object "
                        f"types (families {sorted(families)!r}); their "
                        "populations can never be compared",
                    )
                )
    return diagnostics


def _check_external_uniqueness_shape(schema: BinarySchema) -> list[Diagnostic]:
    """External uniqueness roles must share a common co-role player."""
    diagnostics = []
    for constraint in schema.uniqueness_constraints():
        if not constraint.is_external:
            continue
        co_players = {
            schema.co_player_name(role_id) for role_id in constraint.roles
        }
        if len(co_players) > 1:
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "EXTERNAL_UNIQUENESS_SHAPE",
                    constraint.name,
                    "external uniqueness must identify one common object "
                    f"type, but the co-roles are played by {sorted(co_players)!r}",
                )
            )
    return diagnostics


def _check_frequency_conflicts(schema: BinarySchema) -> list[Diagnostic]:
    """A frequency minimum above 1 contradicts a uniqueness bar."""
    diagnostics = []
    for constraint in schema.constraints:
        if isinstance(constraint, FrequencyConstraint):
            if constraint.minimum > 1 and schema.is_unique(constraint.role):
                diagnostics.append(
                    Diagnostic(
                        Severity.ERROR,
                        "FREQUENCY_CONFLICT",
                        constraint.name,
                        f"role {constraint.role} must occur at least "
                        f"{constraint.minimum} times but also carries a "
                        "uniqueness bar (at most once)",
                    )
                )
    return diagnostics


def _check_duplicate_constraints(schema: BinarySchema) -> list[Diagnostic]:
    """Constraints restating another under a different name are noise."""
    return [
        Diagnostic(
            Severity.WARNING,
            "DUPLICATE_CONSTRAINT",
            name,
            f"duplicates constraint {original!r}",
        )
        for name, original in duplicate_constraints(schema.constraints)
    ]
