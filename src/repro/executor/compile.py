"""Compiling lossless rules into executable checker queries.

The paper emits the extended constraints as pseudo-SQL comments — "a
formal specification for a program segment to enforce this
constraint" (section 4.2.2).  This module writes those program
segments: every constraint of the generic relational schema becomes
one SQL query that returns the *violating* rows (or tuples), so a
rule holds exactly when its checker query returns an empty result.

Two-valued NULL semantics
-------------------------

The in-memory engine evaluates predicates two-valued: a comparison
against NULL is simply *false* (:mod:`repro.relational.predicates`).
Plain SQL is three-valued, and the difference is observable once a
checker query negates a predicate: ``NOT (flag = 'Y')`` is *unknown*
for a NULL flag in SQL (row not returned — violation missed) but
*true* in the engine (violation reported).  To keep every backend's
verdict identical, :func:`sql_predicate` wraps each comparison atom
in ``COALESCE((...), FALSE)``, collapsing *unknown* to *false* before
any negation — the same collapse the engine's ``evaluate`` performs.
The ``IS [NOT] NULL`` guards of the view-constraint sides are already
two-valued in SQL and are rendered verbatim, matching the pseudo-SQL
of :mod:`repro.sql.pseudo` guard for guard.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import UnknownElementError
from repro.relational.constraints import (
    CandidateKey,
    CheckConstraint,
    EqualityViewConstraint,
    ForeignKey,
    PrimaryKey,
    RelationalConstraint,
    SelectSpec,
    SubsetViewConstraint,
)
from repro.relational.predicates import (
    And,
    Compare,
    InValues,
    IsNull,
    Not,
    NotNull,
    Or,
    Predicate,
    render_literal,
)

#: The rule kinds a compiled checker can have, in report order.
RULE_KINDS = (
    "not-null",
    "primary-key",
    "candidate-key",
    "foreign-key",
    "check",
    "equality-view",
    "subset-view",
)


@dataclass(frozen=True)
class CompiledRule:
    """One lossless rule compiled to an executable checker query.

    ``sql`` returns the violating rows/tuples; the rule holds iff the
    query result is empty.  ``relation`` is the relation whose rows
    the rule constrains (for view constraints: the first side's).
    """

    name: str
    kind: str
    relation: str
    sql: str
    constraint: RelationalConstraint | None = None
    #: For ``not-null`` rules: the guarded column.
    column: str | None = None

    @property
    def relations(self) -> frozenset[str]:
        """Every relation this rule's verdict depends on.

        The incremental replay paths (injection matrix, delta
        verifier) re-run a rule only when one of its dependency
        relations changed; a rule whose dependencies are untouched
        keeps its baseline verdict.
        """
        if self.constraint is None:
            return frozenset((self.relation,))
        return self.constraint.relations_used()

    def __post_init__(self) -> None:
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")


def sql_predicate(predicate: Predicate) -> str:
    """Render a predicate to SQL with two-valued semantics.

    Comparison and IN atoms — the only atoms that can evaluate to
    *unknown* — are wrapped in ``COALESCE((...), FALSE)`` so that SQL
    agrees with :meth:`Predicate.evaluate` on every row, including
    under negation (see the module docstring).
    """
    if isinstance(predicate, IsNull):
        return f"( {predicate.column} IS NULL )"
    if isinstance(predicate, NotNull):
        return f"( {predicate.column} IS NOT NULL )"
    if isinstance(predicate, Compare):
        atom = (
            f"{predicate.column} {predicate.op} "
            f"{render_literal(predicate.value)}"
        )
        return f"COALESCE(( {atom} ), FALSE)"
    if isinstance(predicate, InValues):
        rendered = ", ".join(render_literal(v) for v in predicate.values)
        return f"COALESCE(( {predicate.column} IN ({rendered}) ), FALSE)"
    if isinstance(predicate, And):
        return (
            "( "
            + " AND ".join(sql_predicate(p) for p in predicate.operands)
            + " )"
        )
    if isinstance(predicate, Or):
        return (
            "( "
            + " OR ".join(sql_predicate(p) for p in predicate.operands)
            + " )"
        )
    if isinstance(predicate, Not):
        return f"( NOT {sql_predicate(predicate.operand)} )"
    raise TypeError(f"cannot compile predicate {predicate!r}")


def sql_select(spec: SelectSpec, aliases: tuple[str, ...]) -> str:
    """One side of a view constraint as a SQL subquery.

    Both sides of a view constraint are projected onto the same
    ``aliases`` so EXCEPT/UNION see union-compatible column lists
    even when the underlying column names differ.
    """
    columns = ", ".join(
        f"{column} AS {alias}" if column != alias else column
        for column, alias in zip(spec.columns, aliases)
    )
    sql = f"SELECT DISTINCT {columns} FROM {spec.relation}"
    if spec.where is not None:
        sql += f" WHERE {sql_predicate(spec.where)}"
    return sql


def view_aliases(count: int) -> tuple[str, ...]:
    """Neutral output column names shared by both sides."""
    return tuple(f"v{i + 1}" for i in range(count))


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
    rules: list[CompiledRule] = []
    for relation in schema.relations:
        for attribute in relation.attributes:
            if attribute.nullable:
                continue
            rules.append(
                CompiledRule(
                    name=f"NN$_{relation.name}_{attribute.name}",
                    kind="not-null",
                    relation=relation.name,
                    sql=(
                        f"SELECT * FROM {relation.name} "
                        f"WHERE {attribute.name} IS NULL"
                    ),
                    column=attribute.name,
                )
            )
    for constraint in schema.constraints:
        if constraint.name in pruned:
            continue
        rules.append(_compile_constraint(constraint))
    return tuple(rules)


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
    from repro.mapper.concepts import describe_constraint
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
        description = describe_constraint(canonical, constraint)
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
            premise_description = describe_constraint(
                canonical, premise_constraint
            )
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


def _compile_constraint(constraint: RelationalConstraint) -> CompiledRule:
    if isinstance(constraint, (PrimaryKey, CandidateKey)):
        kind = (
            "primary-key"
            if isinstance(constraint, PrimaryKey)
            else "candidate-key"
        )
        columns = ", ".join(constraint.columns)
        # NULL keys are skipped, matching the engine's
        # ``duplicates(..., ignore_null=True)`` — entity integrity for
        # non-nullable key columns is the not-null rules' job.
        guards = " AND ".join(
            f"{column} IS NOT NULL" for column in constraint.columns
        )
        sql = (
            f"SELECT {columns}, COUNT(*) AS occurrences "
            f"FROM {constraint.relation} WHERE {guards} "
            f"GROUP BY {columns} HAVING COUNT(*) > 1"
        )
        return CompiledRule(constraint.name, kind, constraint.relation, sql,
                            constraint)
    if isinstance(constraint, ForeignKey):
        guards = " AND ".join(
            f"s.{column} IS NOT NULL" for column in constraint.columns
        )
        match = " AND ".join(
            f"t.{target} = s.{source}"
            for source, target in zip(
                constraint.columns, constraint.referenced_columns
            )
        )
        sql = (
            f"SELECT * FROM {constraint.relation} AS s "
            f"WHERE {guards} AND NOT EXISTS ("
            f"SELECT 1 FROM {constraint.referenced_relation} AS t "
            f"WHERE {match})"
        )
        return CompiledRule(
            constraint.name, "foreign-key", constraint.relation, sql,
            constraint,
        )
    if isinstance(constraint, CheckConstraint):
        sql = (
            f"SELECT * FROM {constraint.relation} "
            f"WHERE NOT {sql_predicate(constraint.predicate)}"
        )
        return CompiledRule(
            constraint.name, "check", constraint.relation, sql, constraint
        )
    if isinstance(constraint, EqualityViewConstraint):
        aliases = view_aliases(len(constraint.left.columns))
        left = sql_select(constraint.left, aliases)
        right = sql_select(constraint.right, aliases)
        names = ", ".join(aliases)
        sql = (
            f"SELECT 'only-left' AS side, {names} "
            f"FROM ( {left} EXCEPT {right} ) "
            f"UNION ALL "
            f"SELECT 'only-right' AS side, {names} "
            f"FROM ( {right} EXCEPT {left} )"
        )
        return CompiledRule(
            constraint.name,
            "equality-view",
            constraint.left.relation,
            sql,
            constraint,
        )
    if isinstance(constraint, SubsetViewConstraint):
        aliases = view_aliases(len(constraint.subset.columns))
        subset = sql_select(constraint.subset, aliases)
        superset = sql_select(constraint.superset, aliases)
        sql = f"{subset} EXCEPT {superset}"
        return CompiledRule(
            constraint.name,
            "subset-view",
            constraint.subset.relation,
            sql,
            constraint,
        )
    raise TypeError(f"cannot compile constraint {constraint!r}")
