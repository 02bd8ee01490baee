"""Graphviz DOT rendering of the NIAM notation.

Substitutes RIDL-G's diagram view: LOTs are dashed ellipses (the
dotted circle of the notation), NOLOTs solid ellipses, LOT-NOLOTs a
double outline, fact types two-celled boxes (the roles), sublinks
bold arrows, and the graphical constraint glyphs appear as edge/node
decorations — the identifier bar as ``u`` on the key role, the total
role "V" sign, total unions, exclusions and other set-algebraic
constraints as dashed hyper-edges to a small glyph node.
"""

from __future__ import annotations

from repro.brm.constraints import (
    EqualityConstraint,
    ExclusionConstraint,
    SubsetConstraint,
    TotalUnionConstraint,
)
from repro.brm.facts import RoleId
from repro.brm.objects import ObjectKind
from repro.brm.schema import BinarySchema
from repro.brm.sublinks import SublinkRef


def _object_node(object_type) -> str:
    name = object_type.name
    if object_type.kind is ObjectKind.LOT:
        label = f"{name}\\n({object_type.datatype.render()})"
        return (
            f'  "{name}" [shape=ellipse, style=dashed, label="{label}"];'
        )
    if object_type.kind is ObjectKind.LOT_NOLOT:
        label = f"{name}\\n({object_type.datatype.render()})"
        return (
            f'  "{name}" [shape=doublecircle, label="{label}"];'
        )
    return f'  "{name}" [shape=ellipse, label="{name}"];'


def render_dot(schema: BinarySchema) -> str:
    """The schema as a Graphviz digraph source string."""
    lines = [
        f'digraph "{schema.name}" {{',
        "  rankdir=LR;",
        '  node [fontname="Helvetica", fontsize=10];',
        '  edge [fontname="Helvetica", fontsize=9];',
    ]
    for object_type in schema.object_types:
        lines.append(_object_node(object_type))
    for fact in schema.fact_types:
        first_mark = _role_marks(schema, RoleId(fact.name, fact.first.name))
        second_mark = _role_marks(schema, RoleId(fact.name, fact.second.name))
        label = (
            f"{{ <f> {fact.first.name}{first_mark} | "
            f"<s> {fact.second.name}{second_mark} }}"
        )
        lines.append(
            f'  "fact:{fact.name}" [shape=record, label="{label}", '
            f'xlabel="{fact.name}"];'
        )
        lines.append(
            f'  "{fact.first.player}" -> "fact:{fact.name}":f '
            "[arrowhead=none];"
        )
        lines.append(
            f'  "fact:{fact.name}":s -> "{fact.second.player}" '
            "[arrowhead=none];"
        )
    for sublink in schema.sublinks:
        lines.append(
            f'  "{sublink.subtype}" -> "{sublink.supertype}" '
            f'[style=bold, arrowhead=normal, label="{sublink.name}"];'
        )
    for constraint in schema.constraints:
        glyph = _constraint_glyph(constraint)
        if glyph is None:
            continue
        node = f"constraint:{constraint.name}"
        lines.append(
            f'  "{node}" [shape=circle, width=0.25, fixedsize=true, '
            f'label="{glyph}", color=gray40, fontcolor=gray20];'
        )
        for item in constraint.items:
            anchor = (
                f"fact:{item.fact}"
                if isinstance(item, RoleId)
                else _sublink_anchor(schema, item)
            )
            lines.append(
                f'  "{node}" -> "{anchor}" [style=dashed, color=gray40, '
                "arrowhead=none];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _role_marks(schema: BinarySchema, role_id: RoleId) -> str:
    marks = ""
    if schema.is_unique(role_id):
        marks += " \\[u\\]"
    if schema.is_total(role_id):
        marks += " V"
    return marks


def _constraint_glyph(constraint) -> str | None:
    if isinstance(constraint, ExclusionConstraint):
        return "X"
    if isinstance(constraint, EqualityConstraint):
        return "="
    if isinstance(constraint, SubsetConstraint):
        return "⊆"
    if isinstance(constraint, TotalUnionConstraint) and not (
        constraint.is_total_role
    ):
        return "∪"
    return None


def _sublink_anchor(schema: BinarySchema, item: SublinkRef) -> str:
    return schema.sublink(item.sublink).subtype
