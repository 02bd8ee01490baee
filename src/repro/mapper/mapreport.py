"""The map report (section 4.3).

"RIDL-M provides a detailed so-called *map report* ... divided into
two parts, the forwards map and the backwards map.  The forwards map
describes how each of the binary schema concepts (LOTS, NOLOTS,
facts, roles, sublinks and constraints) are expressed in the
relational schema.  The backwards map tells how the relational schema
concepts are derived from the binary schema concepts."

The report is "essential for application programmers": it is what
lets them translate process specifications on the conceptual schema
into programs against the generated data schema, and interpret
results back in conceptual terms.
"""

from __future__ import annotations

import re


_RULE = "-" * 68

_FROM_TARGET = re.compile(r"\bFROM\s+([A-Za-z_][A-Za-z0-9_$]*)")


def select_from_targets(mapping_text: str) -> tuple[str, ...]:
    """Relation names a forwards-map SELECT expression reads from.

    Only texts that *are* SELECT expressions are parsed; prose
    entries (e.g. exclusion-constraint pseudo specifications) mention
    ``FROM NOLOT ...`` in free text and carry no resolvable relation
    references.  Used by the cross-artifact lint pass.
    """
    if not mapping_text.lstrip().upper().startswith("SELECT"):
        return ()
    return tuple(_FROM_TARGET.findall(mapping_text))


def render_forwards_map(result) -> str:
    """BRM concept -> relational expression, one block per concept."""
    lines = [
        f"FORWARDS MAP for schema {result.source.name!r}",
        _RULE,
    ]
    for concept, text in result.provenance.forward:
        lines.append(concept)
        lines.append("    MAPPED TO")
        for row in text.splitlines():
            lines.append(f"    {row}")
        lines.append(_RULE)
    return "\n".join(lines)


def render_backwards_map(result) -> str:
    """Relational concept -> deriving BRM concepts."""
    provenance = result.provenance
    lines = [
        f"BACKWARDS MAP for schema {result.source.name!r}",
        _RULE,
    ]
    for relation in result.relational.relations:
        concepts = provenance.tables.get(relation.name, [])
        lines.append(f"TABLE {relation.name}")
        lines.append("    DERIVED FROM")
        lines.extend(f"    {concept} ," for concept in concepts[:-1])
        if concepts:
            lines.append(f"    {concepts[-1]}")
        lines.append(_RULE)
        for attribute in relation.attributes:
            column_concepts = provenance.columns.get(
                (relation.name, attribute.name), []
            )
            if not column_concepts:
                continue
            lines.append(
                f"COLUMN {attribute.name} IN TABLE {relation.name}"
            )
            lines.append("    DERIVED FROM")
            lines.extend(f"    {concept} ," for concept in column_concepts[:-1])
            lines.append(f"    {column_concepts[-1]}")
            lines.append(_RULE)
    for constraint in result.relational.constraints:
        concepts = provenance.constraints.get(constraint.name, [])
        if not concepts:
            continue
        lines.append(constraint.render())
        lines.append("    DERIVED FROM")
        lines.extend(f"    {concept} ," for concept in concepts[:-1])
        lines.append(f"    {concepts[-1]}")
        lines.append(_RULE)
    return "\n".join(lines)


def render_map_report(result) -> str:
    """The complete bidirectional map report."""
    return (
        render_forwards_map(result)
        + "\n\n"
        + render_backwards_map(result)
        + "\n"
    )
