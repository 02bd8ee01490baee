"""Data-dictionary views over the meta-database.

"Its design is partly 'open', meaning that a comprehensive set of
views is available to the RIDL* user to allow him to prepare his own
style of data-dictionary and query meta-information for use in his
particular project environment" (section 3.1).  Each view returns
plain row dictionaries, so users can filter and join them freely.
"""

from __future__ import annotations

from repro.brm.facts import RoleId
from repro.brm.schema import BinarySchema
from repro.brm.sublinks import SublinkRef


def object_types_view(schema: BinarySchema) -> list[dict[str, object]]:
    """One row per object type: name, kind, data type, fan-out."""
    rows = []
    for object_type in schema.object_types:
        rows.append(
            {
                "schema": schema.name,
                "object_type": object_type.name,
                "kind": object_type.kind.value,
                "datatype": (
                    object_type.datatype.render()
                    if object_type.datatype is not None
                    else None
                ),
                "roles_played": len(schema.roles_played_by(object_type.name)),
                "supertypes": sorted(schema.supertypes_of(object_type.name)),
                "subtypes": sorted(schema.subtypes_of(object_type.name)),
            }
        )
    return rows


def roles_view(schema: BinarySchema) -> list[dict[str, object]]:
    """One row per role: fact, role, player, uniqueness, totality."""
    rows = []
    for fact in schema.fact_types:
        for role in fact.roles:
            role_id = RoleId(fact.name, role.name)
            rows.append(
                {
                    "schema": schema.name,
                    "fact_type": fact.name,
                    "role": role.name,
                    "player": role.player,
                    "co_player": fact.co_role(role.name).player,
                    "unique": schema.is_unique(role_id),
                    "total": schema.is_total(role_id),
                }
            )
    return rows


def constraints_view(schema: BinarySchema) -> list[dict[str, object]]:
    """One row per constraint: name, kind, the items it ranges over."""
    rows = []
    for constraint in schema.constraints:
        rows.append(
            {
                "schema": schema.name,
                "constraint": constraint.name,
                "kind": constraint.kind,
                "items": [
                    str(item) if isinstance(item, (RoleId, SublinkRef)) else item
                    for item in constraint.items
                ],
            }
        )
    return rows


def sublinks_view(schema: BinarySchema) -> list[dict[str, object]]:
    """One row per sublink type."""
    return [
        {
            "schema": schema.name,
            "sublink": sublink.name,
            "subtype": sublink.subtype,
            "supertype": sublink.supertype,
        }
        for sublink in schema.sublinks
    ]
