"""Canonical descriptions of BRM concepts.

The map report speaks about binary-schema concepts in a fixed house
style, e.g.::

    FACT WITH ROLE presented_by ON NOLOT Program_Paper AND ROLE
    presenting ON LOT-NOLOT Person

    SUBLINK IS FROM NOLOT Program_Paper TO NOLOT Paper

    IDENTIFIER : ROLE ON NOLOT Paper AND LOT Paper_Id

    TOTAL : ROLE presented_during ON NOLOT Program_Paper AND
    LOT-NOLOT Session

These strings are the vocabulary of the forwards and backwards maps;
they are produced here, and by each constraint's
:meth:`~repro.brm.constraints.Constraint.describe`, so that provenance
records, reports and tests agree on one spelling per concept.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.brm.facts import FactType, RoleId
from repro.brm.sublinks import SublinkRef, SublinkType

if TYPE_CHECKING:  # the schema imports the constraints, which import this
    from repro.brm.schema import BinarySchema


def describe_object_type(schema: BinarySchema, name: str) -> str:
    """``NOLOT Paper`` / ``LOT Paper_Id`` / ``LOT-NOLOT Person``."""
    object_type = schema.object_type(name)
    return f"{object_type.kind.value} {name}"


def describe_fact(schema: BinarySchema, fact: FactType | str) -> str:
    """The house-style description of a fact type."""
    if isinstance(fact, str):
        fact = schema.fact_type(fact)
    return (
        f"FACT WITH ROLE {fact.first.name} ON "
        f"{describe_object_type(schema, fact.first.player)} AND ROLE "
        f"{fact.second.name} ON "
        f"{describe_object_type(schema, fact.second.player)}"
    )


def describe_role(schema: BinarySchema, role_id: RoleId) -> str:
    """``ROLE presenting ON LOT-NOLOT Person``."""
    role = schema.role(role_id)
    return (
        f"ROLE {role.name} ON {describe_object_type(schema, role.player)}"
    )


def describe_sublink(schema: BinarySchema, sublink: SublinkType | str) -> str:
    """``SUBLINK IS FROM NOLOT Program_Paper TO NOLOT Paper``."""
    if isinstance(sublink, str):
        sublink = schema.sublink(sublink)
    return (
        f"SUBLINK IS FROM {describe_object_type(schema, sublink.subtype)} "
        f"TO {describe_object_type(schema, sublink.supertype)}"
    )


def describe_item(schema: BinarySchema, item: object) -> str:
    """A constraint item: its role or its sublink."""
    if isinstance(item, RoleId):
        return describe_role(schema, item)
    if isinstance(item, SublinkRef):
        return describe_sublink(schema, item.sublink)
    return str(item)
