"""Compiling lossless rules into executable checker queries.

The paper emits the extended constraints as pseudo-SQL comments — "a
formal specification for a program segment to enforce this
constraint" (section 4.2.2).  Every constraint of the generic
relational schema, plus one NOT NULL constraint per mandatory
attribute, becomes one rule whose SQL query (the constraint's own
:meth:`~repro.relational.constraints.RelationalConstraint.checker_sql`)
returns the *violating* rows (or tuples), so a rule holds exactly
when its checker query returns an empty result.  The queries agree
with the in-memory engine under NULLs because predicates compile
two-valued (:meth:`repro.relational.predicates.Predicate.sql`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnknownElementError
from repro.relational.constraints import NotNullConstraint, RelationalConstraint


@dataclass(frozen=True)
class CompiledRule:
    """One lossless rule compiled to an executable checker query.

    ``sql`` returns the violating rows/tuples; the rule holds iff the
    query result is empty.  Name, kind and relation are the
    constraint's; ``relation`` is the relation whose rows the rule
    constrains (for view constraints: the first side's).
    """

    constraint: RelationalConstraint
    sql: str

    @property
    def name(self) -> str:
        return self.constraint.name

    @property
    def kind(self) -> str:
        return self.constraint.kind

    @property
    def relation(self) -> str:
        return self.constraint.relation

    @property
    def relations(self) -> frozenset[str]:
        """Every relation this rule's verdict depends on.

        The injection matrix's incremental replay re-runs a rule only
        when one of its dependency relations changed; a rule whose
        dependencies are untouched keeps its baseline verdict.
        """
        return self.constraint.relations_used()


def compile_rules(
    schema, *, prune_implied: bool = False, mapping=None
) -> tuple[CompiledRule, ...]:
    """Every lossless rule of a relational schema, compiled.

    One ``not-null`` rule per mandatory attribute, then one rule per
    declared constraint, in schema order.

    With ``prune_implied=True`` (requires the producing
    :class:`~repro.mapper.result.MappingResult` as ``mapping``),
    checker rules for constraints the implication engine proved
    implied — and whose proofs' premises are themselves relationally
    enforced — are skipped; see :func:`prunable_rules` for the
    soundness argument.
    """
    pruned: dict[str, str] = {}
    if prune_implied:
        if mapping is None:
            raise ValueError(
                "prune_implied=True needs the MappingResult (mapping=...) "
                "to relate relational rules back to BRM constraints"
            )
        pruned = prunable_rules(mapping)
    not_null = [
        NotNullConstraint(
            f"NN$_{relation.name}_{attribute.name}", relation.name, attribute.name
        )
        for relation in schema.relations
        for attribute in relation.attributes
        if not attribute.nullable
    ]
    declared = [c for c in schema.constraints if c.name not in pruned]
    return tuple(
        CompiledRule(constraint, constraint.checker_sql())
        for constraint in not_null + declared
    )


def prunable_rules(mapping) -> dict[str, str]:
    """Relational rules whose checks are redundant, with the reason.

    A relational rule may be skipped when (a) it enforces exactly one
    BRM constraint that the implication engine proved ``IMPLIED``,
    (b) every premise of the proof is itself *relationally enforced*
    (it survives as a relational constraint of its own — a premise
    that only became a pseudo-SQL specification, e.g. any frequency
    bound, guarantees nothing at data level), and (c) no premise was
    itself pruned in this pass (mutually-implied pairs — an equality
    and the two subsets it implies — must not vanish together).
    Premise-free (purely structural) proofs are always enforced: the
    mapped schema realises the structure by construction.

    Greedy over implied verdicts in constraint-name order, so the
    pruned set is deterministic.  Returns ``{rule_name: reason}``.
    """
    from repro.analyzer.implication import check_implications
    from repro.mapper.trace import KIND_RELATIONAL

    canonical = mapping.canonical
    implications = check_implications(canonical)
    if not implications.implied:
        return {}

    # relational rule -> the BRM concept descriptions it enforces
    concepts = mapping.provenance.constraints
    enforced_concepts = {
        concept for described in concepts.values() for concept in described
    }
    # BRM constraint name -> the relational rules generated for it
    rules_for: dict[str, set[str]] = {}
    for step in mapping.steps:
        if step.kind != KIND_RELATIONAL:
            continue
        rules_for.setdefault(step.target, set()).update(step.lossless_rules)

    pruned: dict[str, str] = {}
    pruned_constraints: set[str] = set()
    for verdict in sorted(implications.implied, key=lambda v: v.subject):
        try:
            constraint = canonical.constraint(verdict.subject)
        except UnknownElementError:
            continue  # implied constraint did not reach the canonical form
        description = constraint.describe(canonical)
        premises_enforced = True
        for premise in verdict.proof.premises:
            if premise in pruned_constraints:
                premises_enforced = False
                break
            try:
                premise_constraint = canonical.constraint(premise)
            except UnknownElementError:
                premises_enforced = False
                break
            premise_description = premise_constraint.describe(canonical)
            if premise_description not in enforced_concepts:
                premises_enforced = False
                break
        if not premises_enforced:
            continue
        candidate_rules = sorted(rules_for.get(verdict.subject, ()))
        took_any = False
        for rule_name in candidate_rules:
            # A rule shared with another concept (e.g. a candidate key
            # standing in for several identifiers) must keep running.
            if any(c != description for c in concepts.get(rule_name, ())):
                continue
            pruned[rule_name] = verdict.proof.render_inline()
            took_any = True
        if took_any:
            pruned_constraints.add(verdict.subject)
    return pruned
