"""RIDL-A function 3 — consistency of the set-algebraic constraints.

"It verifies the consistency of the set-algebraic constraints defined
in the binary schema on the populations of roles and object types"
(section 3.2).

The notion checked is *strong satisfiability*: every object type must
admit a non-empty population in some model of the schema.  The solver
works on the population-inclusion preorder induced by the schema:

* a role's population is included in its player's population;
* a subtype's population is included in its supertype's;
* a sublink's population equals its subtype's;
* subset constraints give inclusions, equality constraints give
  inclusions both ways;
* a total role on T (single-item total union) makes pop(T) a subset
  of the role's population.

This module holds the one graph of that preorder,
:class:`InclusionGraph`, where every edge remembers the constraint or
structural fact that justifies it, and the one emptiness solver,
:func:`propagate_emptiness`, which closes a set of seeded empty nodes
and composes a proof for each.  Both are shared with the implication
pass (:mod:`repro.analyzer.implication`): the graph is memoized per
schema version, and each pass brings its own seeds.

Consistency seeds the solver with exclusions only: an exclusion
constraint empties every *common lower bound* of two of its items —
any population included in two disjoint populations must be empty.
Forced emptiness then propagates downward through the inclusion
preorder, across a fact type (one empty role empties the other), and
through total unions (a type whose covering items are all empty is
empty).  A forced-empty object type is an inconsistency; a
forced-empty role is reported as a warning (the constraint can never
be exercised).
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

from repro.analyzer.cache import memoized_on_schema_version
from repro.analyzer.diagnostics import Diagnostic, Severity
from repro.analyzer.proofs import Proof, ProofStep
from repro.brm.constraints import (
    ConstraintItem,
    EqualityConstraint,
    SubsetConstraint,
    TotalUnionConstraint,
)
from repro.brm.facts import RoleId
from repro.brm.schema import BinarySchema

# Node encodings: ("role", fact, role), ("type", name), ("sublink", name)
Node = tuple


def _role_node(role_id: RoleId) -> Node:
    return ("role", role_id.fact, role_id.role)


def _type_node(name: str) -> Node:
    return ("type", name)


def _sublink_node(name: str) -> Node:
    return ("sublink", name)


def _item_node(item: ConstraintItem) -> Node:
    if isinstance(item, RoleId):
        return _role_node(item)
    return _sublink_node(item.sublink)


def _render_node(node: Node) -> str:
    if node[0] == "role":
        return f"role {node[1]}.{node[2]}"
    if node[0] == "sublink":
        return f"sublink {node[1]}"
    return f"object type {node[1]}"


def _dedupe(steps) -> tuple[ProofStep, ...]:
    """Steps deduplicated preserving first occurrence."""
    seen: dict[ProofStep, None] = {}
    for step in steps:
        seen.setdefault(step)
    return tuple(seen)


@dataclass
class ConsistencyResult:
    """Everything the solver derived."""

    forced_empty: dict[Node, str]  # node -> human-readable reason
    diagnostics: list[Diagnostic]

    @property
    def is_consistent(self) -> bool:
        """True when no object type is forced empty."""
        return not any(node[0] == "type" for node in self.forced_empty)


# ----------------------------------------------------------------------
# The labeled population-inclusion graph
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Edge:
    """One inclusion ``source <= target`` with its justification."""

    target: Node
    statement: str
    premise: str | None  # constraint name; None for structural facts

    def step(self) -> ProofStep:
        return ProofStep(self.statement, self.premise)


def _inc(sub: Node, sup: Node, why: str) -> str:
    return f"pop({_render_node(sub)}) <= pop({_render_node(sup)}): {why}"


class InclusionGraph:
    """The inclusion preorder with per-edge origins.

    Every edge remembers *which* constraint or structural fact
    justifies it, so path searches reconstruct proof chains and can
    exclude one constraint's own edges (the implication test: does
    the inclusion still hold without the constraint under test?).
    Instances are read-only once built, apart from the lazily built
    reverse adjacency and lower-bound cache, which is what lets
    :func:`inclusion_graph_for` share one graph between the
    consistency check and the implication pass.
    """

    def __init__(self, schema: BinarySchema) -> None:
        self.edges: dict[Node, list[_Edge]] = {}
        # empties[y] = [(x, statement, premise)]: empty(y) empties x.
        self.empties: dict[Node, list[tuple[Node, str, str | None]]] = {}
        self._lower_cache: dict[Node, dict[Node, tuple[ProofStep, ...]]] = {}
        self._build(schema)

    def _add_edge(
        self, sub: Node, sup: Node, statement: str, premise: str | None
    ) -> None:
        self.edges.setdefault(sub, []).append(_Edge(sup, statement, premise))
        # Inclusion implies downward emptiness propagation.
        self.empties.setdefault(sup, []).append((sub, statement, premise))

    def _build(self, schema: BinarySchema) -> None:
        for fact in schema.fact_types:
            first, second = fact.role_ids
            for role_id, player in (
                (first, fact.first.player),
                (second, fact.second.player),
            ):
                node = _role_node(role_id)
                self._add_edge(
                    node,
                    _type_node(player),
                    _inc(node, _type_node(player),
                         "a role's population is included in its player's"),
                    None,
                )
            both = (
                f"one empty role of fact type {fact.name!r} empties the "
                "other (every fact instance populates both roles)"
            )
            self.empties.setdefault(_role_node(first), []).append(
                (_role_node(second), both, None)
            )
            self.empties.setdefault(_role_node(second), []).append(
                (_role_node(first), both, None)
            )
        for sublink in schema.sublinks:
            sub_type = _type_node(sublink.subtype)
            super_type = _type_node(sublink.supertype)
            link = _sublink_node(sublink.name)
            self._add_edge(
                sub_type, super_type,
                _inc(sub_type, super_type,
                     f"subtype inclusion via sublink {sublink.name!r}"),
                None,
            )
            equal = "a sublink's population equals its subtype's"
            self._add_edge(link, sub_type, _inc(link, sub_type, equal), None)
            self._add_edge(sub_type, link, _inc(sub_type, link, equal), None)
        for constraint in schema.constraints:
            if isinstance(constraint, SubsetConstraint):
                sub = _item_node(constraint.subset)
                sup = _item_node(constraint.superset)
                self._add_edge(
                    sub, sup,
                    _inc(sub, sup, "declared subset"),
                    constraint.name,
                )
            elif isinstance(constraint, EqualityConstraint):
                nodes = [_item_node(item) for item in constraint.items]
                for left, right in itertools.combinations(nodes, 2):
                    why = "declared equal"
                    self._add_edge(
                        left, right, _inc(left, right, why), constraint.name
                    )
                    self._add_edge(
                        right, left, _inc(right, left, why), constraint.name
                    )
            elif isinstance(constraint, TotalUnionConstraint):
                if len(constraint.items) == 1:
                    type_node = _type_node(constraint.object_type)
                    item = _item_node(constraint.items[0])
                    self._add_edge(
                        type_node, item,
                        _inc(type_node, item,
                             "total role: every instance participates"),
                        constraint.name,
                    )

    def find_path(
        self, start: Node, goal: Node, *, exclude: str | None = None
    ) -> tuple[ProofStep, ...] | None:
        """A shortest inclusion chain ``start <= ... <= goal``.

        Edges justified *only* by the ``exclude`` constraint are
        unusable — the implication test must not assume the constraint
        under test.  Returns the proof steps, or ``None``.
        """
        if start == goal:
            return ()
        parent: dict[Node, tuple[Node, _Edge] | None] = {start: None}
        queue: deque[Node] = deque((start,))
        while queue:
            node = queue.popleft()
            for edge in self.edges.get(node, ()):
                if exclude is not None and edge.premise == exclude:
                    continue
                if edge.target in parent:
                    continue
                parent[edge.target] = (node, edge)
                if edge.target == goal:
                    steps: list[ProofStep] = []
                    cursor: Node = goal
                    while True:
                        entry = parent[cursor]
                        if entry is None:
                            break
                        previous, used = entry
                        steps.append(used.step())
                        cursor = previous
                    return tuple(reversed(steps))
                queue.append(edge.target)
        return None

    @cached_property
    def into(self) -> dict[Node, list[tuple[Node, _Edge]]]:
        """The reverse adjacency: ``into[y]`` lists every ``(x, edge)``
        with ``x <= y``, grouped by source in edge order (the order
        decides which of several shortest chains a proof names)."""
        into: dict[Node, list[tuple[Node, _Edge]]] = {}
        for source, edges in self.edges.items():
            for edge in edges:
                into.setdefault(edge.target, []).append((source, edge))
        return into

    def lower_bound_paths(
        self, node: Node
    ) -> dict[Node, tuple[ProofStep, ...]]:
        """Every ``x`` with ``pop(x) <= pop(node)``, with its chain.

        Reverse BFS over the inclusion edges; the node itself is a
        lower bound with an empty chain.  Cached per node (the
        exclusion seeding probes the same items repeatedly).
        """
        cached = self._lower_cache.get(node)
        if cached is not None:
            return cached
        paths: dict[Node, tuple[ProofStep, ...]] = {node: ()}
        queue: deque[Node] = deque((node,))
        while queue:
            current = queue.popleft()
            for source, edge in self.into.get(current, ()):
                if source in paths:
                    continue
                paths[source] = (edge.step(),) + paths[current]
                queue.append(source)
        self._lower_cache[node] = paths
        return paths


@memoized_on_schema_version()
def inclusion_graph_for(schema: BinarySchema) -> InclusionGraph:
    """The (shared, read-only) inclusion graph for this schema version."""
    return InclusionGraph(schema)


# ----------------------------------------------------------------------
# The emptiness solver
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Emptiness:
    """Why one node's population is forced empty."""

    proof: Proof
    #: The one-step reason the consistency check reports.
    reason: str


def exclusion_seeds(
    schema: BinarySchema, graph: InclusionGraph
) -> Iterator[tuple[Node, Emptiness]]:
    """Exclusion empties every common lower bound of two items."""
    for constraint in schema.exclusions():
        nodes = [_item_node(item) for item in constraint.items]
        for left, right in itertools.combinations(nodes, 2):
            left_paths = graph.lower_bound_paths(left)
            right_paths = graph.lower_bound_paths(right)
            common = sorted(left_paths.keys() & right_paths.keys(), key=repr)
            if not common:
                continue
            disjoint = ProofStep(
                f"pop({_render_node(left)}) and "
                f"pop({_render_node(right)}) are disjoint",
                constraint.name,
            )
            reason = (
                f"included in both sides of exclusion {constraint.name!r} "
                f"({_render_node(left)} vs {_render_node(right)})"
            )
            for node in common:
                proof = Proof(
                    f"pop({_render_node(node)}) is forced empty: "
                    f"included in both sides of exclusion {constraint.name!r}",
                    _dedupe(left_paths[node] + right_paths[node] + (disjoint,)),
                )
                yield node, Emptiness(proof, reason)


def propagate_emptiness(
    schema: BinarySchema,
    graph: InclusionGraph,
    seeds: Iterable[tuple[Node, Emptiness]],
) -> dict[Node, Emptiness]:
    """Close the seeded emptiness over the schema, composing proofs.

    The first seed of a node wins.  Emptiness then flows along
    ``graph.empties`` (downward through inclusions, across fact
    types) and through the total-union hyper-rule, to a fixed point.
    """
    empty: dict[Node, Emptiness] = {}
    worklist: list[Node] = []
    for node, emptiness in seeds:
        if node not in empty:
            empty[node] = emptiness
            worklist.append(node)
    totals = [c for c in schema.totals() if len(c.items) > 1]
    while True:
        while worklist:
            node = worklist.pop()
            cause = empty[node].proof
            reason = (
                f"population is forced empty because {_render_node(node)} "
                "is empty"
            )
            for affected, statement, premise in graph.empties.get(node, ()):
                if affected in empty:
                    continue
                empty[affected] = Emptiness(
                    cause.extended(
                        f"pop({_render_node(affected)}) is forced empty "
                        f"because pop({_render_node(node)}) is",
                        ProofStep(statement, premise),
                    ),
                    reason,
                )
                worklist.append(affected)
        # Hyper-rule: a total union whose covering items are all empty
        # empties the constrained object type.
        progressed = False
        for constraint in totals:
            type_node = _type_node(constraint.object_type)
            if type_node in empty:
                continue
            item_nodes = [_item_node(item) for item in constraint.items]
            if not all(node in empty for node in item_nodes):
                continue
            steps: list[ProofStep] = []
            for node in item_nodes:
                steps.extend(empty[node].proof.steps)
            steps.append(
                ProofStep(
                    f"total union {constraint.name!r} covers "
                    f"{constraint.object_type!r} with only empty items",
                    constraint.name,
                )
            )
            covers = (
                f"total union {constraint.name!r} covers only empty "
                "roles/subtypes"
            )
            empty[type_node] = Emptiness(
                Proof(
                    f"pop(object type {constraint.object_type}) is forced "
                    f"empty: {covers}",
                    _dedupe(steps),
                ),
                covers,
            )
            worklist.append(type_node)
            progressed = True
        if not worklist and not progressed:
            break
    return empty


def check_consistency(schema: BinarySchema) -> ConsistencyResult:
    """Run the emptiness solver over the schema, seeded by exclusions."""
    graph = inclusion_graph_for(schema)
    empty = propagate_emptiness(schema, graph, exclusion_seeds(schema, graph))
    forced_empty = {node: emptiness.reason for node, emptiness in empty.items()}
    diagnostics = []
    for node, reason in sorted(forced_empty.items(), key=lambda kv: repr(kv[0])):
        if node[0] == "type":
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "FORCED_EMPTY_TYPE",
                    node[1],
                    f"no non-empty population possible: {reason}",
                )
            )
        elif node[0] == "role":
            diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    "FORCED_EMPTY_ROLE",
                    f"{node[1]}.{node[2]}",
                    f"role can never be played: {reason}",
                )
            )
        else:
            diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    "FORCED_EMPTY_SUBLINK",
                    node[1],
                    f"subtype can never have members: {reason}",
                )
            )
    return ConsistencyResult(forced_empty=forced_empty, diagnostics=diagnostics)
