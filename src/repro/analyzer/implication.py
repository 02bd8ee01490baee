"""The constraint implication & satisfiability engine.

RIDL-A's consistency function (:mod:`repro.analyzer.consistency`)
owns the population-inclusion graph and the emptiness solver, and
seeds the solver with exclusions.  This pass reads the same graph
(memoized per schema version) and runs the same solver, seeded with
frequency, value and exclusion conflicts, and goes further: a
saturation pass over the full constraint vocabulary produces typed
verdicts

* ``IMPLIED`` — a declared constraint already follows from the rest
  of the schema (subset/equality paths through the population-
  inclusion preorder, uniqueness from a ``FrequencyConstraint`` with
  ``maximum <= 1``, frequency bounds subsumed by tighter bounds or by
  uniqueness, value domains containing another value domain);
* ``CONTRADICTION`` — the constraint set admits no valid non-empty
  state (disjoint frequency intervals on one role, uniqueness against
  ``minimum > 1``, disjoint value domains on one lexical type, an
  object type forced empty by exclusion + totality);
* ``FORCED_EMPTY`` — a role or sublink that can never be populated
  (the constraint machinery over it is dead weight).

Every verdict carries a :class:`~repro.analyzer.proofs.Proof`: the
minimal chain of structural facts and implying constraints it follows
from, reconstructable as an unsat-core-style witness.  Consumers:
the ``IMP4xx`` lint family renders the chains, the executor prunes
checker queries for proven-implied rules, the workload generators
fail fast on contradictions, and the advisor reports implied counts
per candidate design.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from repro.analyzer.cache import memoized_on_schema_version
from repro.analyzer.consistency import (
    Emptiness,
    Node,
    _dedupe,
    _item_node,
    _render_node,
    _role_node,
    _type_node,
    exclusion_seeds,
    inclusion_graph_for,
    propagate_emptiness,
)
from repro.analyzer.proofs import Proof, ProofStep
from repro.brm.constraints import (
    EqualityConstraint,
    FrequencyConstraint,
    SubsetConstraint,
    UniquenessConstraint,
    ValueConstraint,
)
from repro.brm.facts import RoleId
from repro.brm.schema import BinarySchema
from repro.errors import PopulationError
from repro.observability.tracer import span as _obs_span


class VerdictKind(Enum):
    """The three verdict types of the saturation pass."""

    IMPLIED = "implied"
    CONTRADICTION = "contradiction"
    FORCED_EMPTY = "forced-empty"


@dataclass(frozen=True)
class Verdict:
    """One proven fact about the schema's constraint set.

    ``subject`` is the constraint name for ``IMPLIED``, the object
    type / ``fact.role`` / sublink name for emptiness verdicts, and
    the conflicting site for ``CONTRADICTION``.  ``category`` is the
    fine-grained finding class the lint rules dispatch on.
    """

    kind: VerdictKind
    category: str
    subject: str
    proof: Proof

    def sort_key(self) -> tuple[str, str, str, str]:
        return (
            self.kind.value,
            self.category,
            self.subject,
            self.proof.conclusion,
        )


#: ``category`` values, by verdict kind (the lint family's dispatch).
IMPLIED_CATEGORIES = (
    "subset", "equality", "uniqueness", "frequency", "value",
)
CONTRADICTION_CATEGORIES = (
    "frequency-conflict", "value-conflict", "empty-type",
)
FORCED_EMPTY_CATEGORIES = ("empty-role", "empty-sublink")


@dataclass(frozen=True)
class ImplicationResult:
    """Everything the saturation pass proved, in deterministic order."""

    schema_name: str
    verdicts: tuple[Verdict, ...]

    def of_kind(self, kind: VerdictKind) -> tuple[Verdict, ...]:
        return tuple(v for v in self.verdicts if v.kind is kind)

    @property
    def implied(self) -> tuple[Verdict, ...]:
        """Constraints that follow from the rest of the schema."""
        return self.of_kind(VerdictKind.IMPLIED)

    @property
    def contradictions(self) -> tuple[Verdict, ...]:
        """Verdicts that make the constraint set unsatisfiable."""
        return self.of_kind(VerdictKind.CONTRADICTION)

    @property
    def forced_empty(self) -> tuple[Verdict, ...]:
        """Roles/sublinks that can never be populated."""
        return self.of_kind(VerdictKind.FORCED_EMPTY)

    @property
    def is_satisfiable(self) -> bool:
        """True when no contradiction was proven."""
        return not self.contradictions

    def implied_for(self, constraint_name: str) -> Verdict | None:
        """The ``IMPLIED`` verdict on a constraint, if one was proven."""
        for verdict in self.implied:
            if verdict.subject == constraint_name:
                return verdict
        return None


def _role_subject(role_id: RoleId) -> str:
    return f"{role_id.fact}.{role_id.role}"


def _node_subject(node: Node) -> str:
    if node[0] == "role":
        return f"{node[1]}.{node[2]}"
    return node[1]


def _effective_interval(
    constraint: FrequencyConstraint,
) -> tuple[int, int | None] | None:
    """The play-count interval over *participating* instances.

    Clipped to ``>= 1`` (an instance that plays at all plays at least
    once); ``None`` when the bound admits no participation at all —
    the ``maximum == 0`` "never plays" form.
    """
    low = max(constraint.minimum, 1)
    if constraint.maximum is not None and constraint.maximum < low:
        return None
    return (low, constraint.maximum)


def _interval_text(constraint: FrequencyConstraint) -> str:
    upper = "N" if constraint.maximum is None else str(constraint.maximum)
    return f"[{constraint.minimum}..{upper}]"


# ----------------------------------------------------------------------
# The saturation pass
# ----------------------------------------------------------------------


@memoized_on_schema_version()
def check_implications(schema: BinarySchema) -> ImplicationResult:
    """Prove implication, contradiction and forced-emptiness verdicts.

    Memoized on the schema version stamp — consumers (lint, executor
    pruning, generator guards, advisor) share one saturation run per
    schema state.
    """
    with _obs_span("analyzer.implication", schema=schema.name):
        return _saturate(schema)


def _saturate(schema: BinarySchema) -> ImplicationResult:
    graph = inclusion_graph_for(schema)
    verdicts: list[Verdict] = []

    freq_by_role: dict[RoleId, list[FrequencyConstraint]] = {}
    unique_by_role: dict[RoleId, UniquenessConstraint] = {}
    values_by_type: dict[str, list[ValueConstraint]] = {}
    for constraint in schema.constraints:
        if isinstance(constraint, FrequencyConstraint):
            freq_by_role.setdefault(constraint.role, []).append(constraint)
        elif isinstance(constraint, UniquenessConstraint):
            if constraint.is_simple:
                unique_by_role.setdefault(constraint.roles[0], constraint)
        elif isinstance(constraint, ValueConstraint):
            values_by_type.setdefault(
                constraint.object_type, []
            ).append(constraint)

    verdicts.extend(
        _implied_verdicts(
            schema, graph, freq_by_role, unique_by_role, values_by_type
        )
    )

    # Frequency and value seeds, in conflict order; the consistency
    # check never sees them, so the proof's conclusion is their reason.
    seeds: list[tuple[Node, Emptiness]] = []

    def seed(node: Node, proof: Proof) -> None:
        seeds.append((node, Emptiness(proof, proof.conclusion)))

    verdicts.extend(
        _frequency_conflicts(freq_by_role, unique_by_role, seed)
    )
    verdicts.extend(_value_conflicts(values_by_type, seed))
    empty = propagate_emptiness(
        schema, graph,
        itertools.chain(seeds, exclusion_seeds(schema, graph)),
    )

    for node, emptiness in sorted(empty.items(), key=lambda kv: repr(kv[0])):
        proof = emptiness.proof
        if node[0] == "type":
            verdicts.append(
                Verdict(
                    VerdictKind.CONTRADICTION, "empty-type",
                    node[1], proof,
                )
            )
        elif node[0] == "role":
            verdicts.append(
                Verdict(
                    VerdictKind.FORCED_EMPTY, "empty-role",
                    _node_subject(node), proof,
                )
            )
        else:
            verdicts.append(
                Verdict(
                    VerdictKind.FORCED_EMPTY, "empty-sublink",
                    node[1], proof,
                )
            )

    return ImplicationResult(
        schema_name=schema.name,
        verdicts=tuple(sorted(verdicts, key=Verdict.sort_key)),
    )


def _implied_verdicts(
    schema, graph, freq_by_role, unique_by_role, values_by_type
):
    """IMPLIED verdicts, one pass over the declared constraints."""
    for constraint in schema.constraints:
        if isinstance(constraint, SubsetConstraint):
            sub = _item_node(constraint.subset)
            sup = _item_node(constraint.superset)
            steps = graph.find_path(sub, sup, exclude=constraint.name)
            if steps is not None:
                yield Verdict(
                    VerdictKind.IMPLIED, "subset", constraint.name,
                    Proof(
                        f"subset constraint {constraint.name!r} "
                        f"({_render_node(sub)} in {_render_node(sup)}) is "
                        "implied by the rest of the schema",
                        _dedupe(steps),
                    ),
                )
        elif isinstance(constraint, EqualityConstraint):
            nodes = [_item_node(item) for item in constraint.items]
            collected: list[ProofStep] = []
            complete = True
            # A cycle through every item proves pairwise equality.
            for left, right in zip(nodes, nodes[1:] + nodes[:1]):
                steps = graph.find_path(left, right, exclude=constraint.name)
                if steps is None:
                    complete = False
                    break
                collected.extend(steps)
            if complete:
                yield Verdict(
                    VerdictKind.IMPLIED, "equality", constraint.name,
                    Proof(
                        f"equality constraint {constraint.name!r} is "
                        "implied: its items form an inclusion cycle "
                        "without it",
                        _dedupe(collected),
                    ),
                )
        elif isinstance(constraint, UniquenessConstraint):
            if not constraint.is_simple:
                continue
            role_id = constraint.roles[0]
            for frequency in freq_by_role.get(role_id, ()):
                if frequency.maximum is not None and frequency.maximum <= 1:
                    yield Verdict(
                        VerdictKind.IMPLIED, "uniqueness", constraint.name,
                        Proof(
                            f"uniqueness constraint {constraint.name!r} on "
                            f"role {_role_subject(role_id)} is implied",
                            (
                                ProofStep(
                                    "each participating instance plays "
                                    f"role {_role_subject(role_id)} at most "
                                    f"{frequency.maximum} time(s) "
                                    f"({_interval_text(frequency)})",
                                    frequency.name,
                                ),
                            ),
                        ),
                    )
                    break
        elif isinstance(constraint, FrequencyConstraint):
            verdict = _implied_frequency(
                constraint, freq_by_role, unique_by_role
            )
            if verdict is not None:
                yield verdict
        elif isinstance(constraint, ValueConstraint):
            domain = set(constraint.values)
            for other in values_by_type.get(constraint.object_type, ()):
                if other.name == constraint.name:
                    continue
                if set(other.values) <= domain:
                    yield Verdict(
                        VerdictKind.IMPLIED, "value", constraint.name,
                        Proof(
                            f"value constraint {constraint.name!r} on "
                            f"{constraint.object_type!r} is implied",
                            (
                                ProofStep(
                                    f"{other.name!r} already restricts "
                                    f"{constraint.object_type!r} to a "
                                    "subset of these values",
                                    other.name,
                                ),
                            ),
                        ),
                    )
                    break


def _implied_frequency(constraint, freq_by_role, unique_by_role):
    role_id = constraint.role
    subject = _role_subject(role_id)
    if constraint.minimum <= 1 and constraint.maximum is None:
        return Verdict(
            VerdictKind.IMPLIED, "frequency", constraint.name,
            Proof(
                f"frequency constraint {constraint.name!r} "
                f"({_interval_text(constraint)} on role {subject}) is "
                "vacuous",
                (
                    ProofStep(
                        "every participating instance plays the role at "
                        "least once by definition, and no upper bound is "
                        "declared",
                    ),
                ),
            ),
        )
    for other in freq_by_role.get(role_id, ()):
        if other.name == constraint.name:
            continue
        tighter_low = other.minimum >= constraint.minimum
        tighter_high = constraint.maximum is None or (
            other.maximum is not None
            and other.maximum <= constraint.maximum
        )
        if tighter_low and tighter_high:
            return Verdict(
                VerdictKind.IMPLIED, "frequency", constraint.name,
                Proof(
                    f"frequency constraint {constraint.name!r} "
                    f"({_interval_text(constraint)} on role {subject}) is "
                    "implied by a tighter bound",
                    (
                        ProofStep(
                            f"{other.name!r} bounds the same role to "
                            f"{_interval_text(other)}, inside "
                            f"{_interval_text(constraint)}",
                            other.name,
                        ),
                    ),
                ),
            )
    unique = unique_by_role.get(role_id)
    if (
        unique is not None
        and constraint.minimum <= 1
        and constraint.maximum is not None
        and constraint.maximum >= 1
    ):
        return Verdict(
            VerdictKind.IMPLIED, "frequency", constraint.name,
            Proof(
                f"frequency constraint {constraint.name!r} "
                f"({_interval_text(constraint)} on role {subject}) is "
                "implied by uniqueness",
                (
                    ProofStep(
                        f"{unique.name!r} makes each instance play role "
                        f"{subject} at most once",
                        unique.name,
                    ),
                ),
            ),
        )
    return None


def _frequency_conflicts(freq_by_role, unique_by_role, seed):
    """Disjoint frequency intervals and uniqueness-vs-minimum clashes.

    Each conflict is a ``CONTRADICTION`` (no instance can play the
    role at all) and seeds the role's forced emptiness; the lone
    ``maximum == 0`` "never plays" bound only seeds emptiness — it is
    a legal way to retire a role, not a modeling clash.
    """
    for role_id in sorted(freq_by_role, key=str):
        constraints = freq_by_role[role_id]
        subject = _role_subject(role_id)
        node = _role_node(role_id)
        live = []
        for constraint in constraints:
            if _effective_interval(constraint) is None:
                seed(
                    node,
                    Proof(
                        f"pop(role {subject}) is forced empty: the role "
                        "is never played",
                        (
                            ProofStep(
                                f"{constraint.name!r} bounds the role to "
                                f"{_interval_text(constraint)} — no "
                                "instance may play it",
                                constraint.name,
                            ),
                        ),
                    ),
                )
            else:
                live.append(constraint)
        for first, second in itertools.combinations(live, 2):
            low_a, high_a = _effective_interval(first)
            low_b, high_b = _effective_interval(second)
            low = max(low_a, low_b)
            high = high_a if high_b is None else (
                high_b if high_a is None else min(high_a, high_b)
            )
            if high is not None and low > high:
                proof = Proof(
                    f"frequency constraints on role {subject} admit no "
                    "common play count",
                    (
                        ProofStep(
                            f"{first.name!r} requires "
                            f"{_interval_text(first)} plays",
                            first.name,
                        ),
                        ProofStep(
                            f"{second.name!r} requires "
                            f"{_interval_text(second)} plays",
                            second.name,
                        ),
                    ),
                )
                yield Verdict(
                    VerdictKind.CONTRADICTION, "frequency-conflict",
                    subject, proof,
                )
                seed(
                    node,
                    proof.extended(
                        f"pop(role {subject}) is forced empty: no play "
                        "count satisfies both bounds",
                    ),
                )
        unique = unique_by_role.get(role_id)
        if unique is None:
            continue
        for constraint in live:
            if constraint.minimum > 1:
                proof = Proof(
                    f"role {subject} cannot satisfy both its uniqueness "
                    "bar and its frequency minimum",
                    (
                        ProofStep(
                            f"{unique.name!r} makes each instance play "
                            "the role at most once",
                            unique.name,
                        ),
                        ProofStep(
                            f"{constraint.name!r} requires at least "
                            f"{constraint.minimum} plays",
                            constraint.name,
                        ),
                    ),
                )
                yield Verdict(
                    VerdictKind.CONTRADICTION, "frequency-conflict",
                    subject, proof,
                )
                seed(
                    node,
                    proof.extended(
                        f"pop(role {subject}) is forced empty: no play "
                        "count satisfies both constraints",
                    ),
                )


def _value_conflicts(values_by_type, seed):
    """Disjoint enumerated domains on one lexical type."""
    for type_name in sorted(values_by_type):
        for first, second in itertools.combinations(
            values_by_type[type_name], 2
        ):
            if set(first.values) & set(second.values):
                continue
            proof = Proof(
                f"value constraints on {type_name!r} enumerate disjoint "
                "domains — no instance satisfies both",
                (
                    ProofStep(
                        f"{first.name!r} restricts {type_name!r} to "
                        f"{tuple(first.values)!r}",
                        first.name,
                    ),
                    ProofStep(
                        f"{second.name!r} restricts {type_name!r} to "
                        f"{tuple(second.values)!r}",
                        second.name,
                    ),
                ),
            )
            yield Verdict(
                VerdictKind.CONTRADICTION, "value-conflict",
                type_name, proof,
            )
            seed(
                _type_node(type_name),
                proof.extended(
                    f"pop(object type {type_name}) is forced empty: its "
                    "value domain is empty",
                ),
            )


def require_satisfiable(schema: BinarySchema) -> ImplicationResult:
    """Raise :class:`~repro.errors.PopulationError` on contradictions.

    The workload generators call this before entering their fill
    fixpoint: an unsatisfiable schema fails fast with the rendered
    contradiction proofs instead of producing a population that can
    never validate.
    """
    result = check_implications(schema)
    if not result.is_satisfiable:
        proofs = "\n".join(
            verdict.proof.render() for verdict in result.contradictions
        )
        raise PopulationError(
            f"schema {schema.name!r} admits no valid population; "
            f"{len(result.contradictions)} contradiction(s) proven:\n"
            f"{proofs}"
        )
    return result
