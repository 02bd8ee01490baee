"""The consistency solver that the shared inclusion graph replaced.

RIDL-A's consistency check once built its own population-inclusion
graph, :class:`SubsetGraph`, beside the implication pass's labeled
graph: unlabeled edge sets, condensed into strongly-connected
components by an iterative Tarjan pass, with per-component
reachability bitmasks, so :meth:`SubsetGraph.reaches` was a bit test
and :meth:`SubsetGraph.lower_bounds` a cached mask expansion.
:func:`forced_empty` keeps that check's own propagation: exclusion
seeds over the common lower bounds, then emptiness flowing downward,
across fact types and through total unions, recording a one-step
reason per node.

One thing differs from the old code: its edge and lower-bound sets
iterated in hash order, so when several empty nodes could empty a
node, the one its reason named changed with ``PYTHONHASHSEED``.  Here
the edges are ordered sets (insertion order) and each exclusion
pair's common lower bounds are seeded in ``repr`` order, the order
the shared solver uses; the forced-empty nodes are the same either
way.

``tests/analyzer/test_inclusion_oracle.py`` asserts that
``check_consistency(schema).forced_empty`` equals :func:`forced_empty`,
nodes and reason strings, over thousands of seeded random schemas,
and that the shared graph's paths and lower bounds agree with
:meth:`SubsetGraph.reaches` and :meth:`SubsetGraph.lower_bounds`.
"""

from __future__ import annotations

import itertools

from repro.analyzer.consistency import (
    Node,
    _item_node,
    _render_node,
    _role_node,
    _sublink_node,
    _type_node,
)
from repro.brm.constraints import (
    EqualityConstraint,
    SubsetConstraint,
    TotalUnionConstraint,
)
from repro.brm.schema import BinarySchema


class SubsetGraph:
    """The population-inclusion preorder and emptiness implications.

    After building the raw edges the graph is condensed into its
    strongly-connected components (equality constraints and mutual
    subsets collapse into one component) and per-component
    reachability bitmasks are precomputed.
    """

    def __init__(self, schema: BinarySchema) -> None:
        self.schema = schema
        # subset[x] = the y with pop(x) <= pop(y), as an ordered set
        self.subset: dict[Node, dict[Node, None]] = {}
        # empties[y] = the x with: empty(y) implies empty(x)
        self.empties: dict[Node, dict[Node, None]] = {}
        self._build()
        self._condense()

    def _add_subset(self, sub: Node, sup: Node) -> None:
        self.subset.setdefault(sub, {})[sup] = None
        # Inclusion implies downward emptiness propagation.
        self.empties.setdefault(sup, {})[sub] = None

    def _add_empty_implication(self, cause: Node, effect: Node) -> None:
        self.empties.setdefault(cause, {})[effect] = None

    def _build(self) -> None:
        schema = self.schema
        for fact in schema.fact_types:
            first, second = fact.role_ids
            self._add_subset(_role_node(first), _type_node(fact.first.player))
            self._add_subset(_role_node(second), _type_node(fact.second.player))
            # A fact instance populates both roles: one empty role
            # empties the whole fact type, hence the other role.
            self._add_empty_implication(_role_node(first), _role_node(second))
            self._add_empty_implication(_role_node(second), _role_node(first))
        for sublink in schema.sublinks:
            sub_type = _type_node(sublink.subtype)
            super_type = _type_node(sublink.supertype)
            link = _sublink_node(sublink.name)
            self._add_subset(sub_type, super_type)
            self._add_subset(link, sub_type)
            self._add_subset(sub_type, link)
        for constraint in schema.constraints:
            if isinstance(constraint, SubsetConstraint):
                self._add_subset(
                    _item_node(constraint.subset), _item_node(constraint.superset)
                )
            elif isinstance(constraint, EqualityConstraint):
                nodes = [_item_node(item) for item in constraint.items]
                for left, right in itertools.combinations(nodes, 2):
                    self._add_subset(left, right)
                    self._add_subset(right, left)
            elif isinstance(constraint, TotalUnionConstraint):
                if len(constraint.items) == 1:
                    self._add_subset(
                        _type_node(constraint.object_type),
                        _item_node(constraint.items[0]),
                    )

    def _condense(self) -> None:
        """SCC-condense the subset edges and precompute reachability.

        Tarjan's algorithm (iterative, the schemas are deep enough to
        overflow Python's recursion limit) emits components in reverse
        topological order of the condensation: when a component
        completes, every component it can reach already has its mask,
        so ``reach_mask[c]`` is its own bit OR-ed with the masks of
        its successor components.  ``pred_mask`` is the transpose.
        """
        nodes: set[Node] = set(self.empties)
        for sub, sups in self.subset.items():
            nodes.add(sub)
            nodes.update(sups)
        for effects in self.empties.values():
            nodes.update(effects)

        index_of: dict[Node, int] = {}
        lowlink: dict[Node, int] = {}
        on_stack: set[Node] = set()
        stack: list[Node] = []
        comp_of: dict[Node, int] = {}
        members: list[tuple[Node, ...]] = []
        reach_mask: list[int] = []
        counter = itertools.count()

        for root in nodes:
            if root in index_of:
                continue
            # Each frame is (node, iterator over its successors).
            work = [(root, iter(self.subset.get(root, ())))]
            index_of[root] = lowlink[root] = next(counter)
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for successor in successors:
                    if successor not in index_of:
                        index_of[successor] = lowlink[successor] = next(counter)
                        stack.append(successor)
                        on_stack.add(successor)
                        work.append(
                            (successor, iter(self.subset.get(successor, ())))
                        )
                        advanced = True
                        break
                    if successor in on_stack:
                        lowlink[node] = min(lowlink[node], index_of[successor])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index_of[node]:
                    comp = len(members)
                    component: list[Node] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        comp_of[member] = comp
                        component.append(member)
                        if member == node:
                            break
                    mask = 1 << comp
                    for member in component:
                        for successor in self.subset.get(member, ()):
                            succ_comp = comp_of.get(successor)
                            if succ_comp is not None and succ_comp != comp:
                                mask |= reach_mask[succ_comp]
                    members.append(tuple(component))
                    reach_mask.append(mask)

        pred_mask = [1 << comp for comp in range(len(members))]
        for comp, mask in enumerate(reach_mask):
            bit = 1 << comp
            target = mask & ~bit
            while target:
                low = target & -target
                pred_mask[low.bit_length() - 1] |= bit
                target ^= low

        self._comp_of = comp_of
        self._members = members
        self._reach_mask = reach_mask
        self._pred_mask = pred_mask
        self._lower_bound_cache: dict[int, frozenset[Node]] = {}

    def reaches(self, start: Node, goal: Node) -> bool:
        """True when pop(start) <= pop(goal) follows from the schema."""
        if start == goal:
            return True
        start_comp = self._comp_of.get(start)
        goal_comp = self._comp_of.get(goal)
        if start_comp is None or goal_comp is None:
            return False
        return bool(self._reach_mask[start_comp] >> goal_comp & 1)

    def lower_bounds(self, node: Node) -> frozenset[Node]:
        """All nodes whose population is included in ``node``'s."""
        comp = self._comp_of.get(node)
        if comp is None:
            return frozenset((node,))
        cached = self._lower_bound_cache.get(comp)
        if cached is None:
            bounds: set[Node] = set()
            mask = self._pred_mask[comp]
            while mask:
                low = mask & -mask
                bounds.update(self._members[low.bit_length() - 1])
                mask ^= low
            cached = frozenset(bounds)
            self._lower_bound_cache[comp] = cached
        return cached


def forced_empty(schema: BinarySchema) -> dict[Node, str]:
    """The old ``check_consistency`` propagation: node -> reason."""
    graph = SubsetGraph(schema)
    forced: dict[Node, str] = {}
    worklist: list[Node] = []

    def mark(node: Node, reason: str) -> None:
        if node not in forced:
            forced[node] = reason
            worklist.append(node)

    # Seed: exclusion constraints empty every common lower bound of
    # any two of their items.
    for constraint in schema.exclusions():
        nodes = [_item_node(item) for item in constraint.items]
        for left, right in itertools.combinations(nodes, 2):
            common = graph.lower_bounds(left) & graph.lower_bounds(right)
            for node in sorted(common, key=repr):
                mark(
                    node,
                    f"included in both sides of exclusion {constraint.name!r} "
                    f"({_render_node(left)} vs {_render_node(right)})",
                )

    # Propagate to a fixed point.
    totals = [c for c in schema.totals() if len(c.items) > 1]
    while True:
        while worklist:
            node = worklist.pop()
            for affected in graph.empties.get(node, ()):
                mark(
                    affected,
                    f"population is forced empty because {_render_node(node)} "
                    "is empty",
                )
        # Hyper-rule: a total union whose items are all empty empties
        # the constrained object type.
        progressed = False
        for constraint in totals:
            type_node = _type_node(constraint.object_type)
            if type_node in forced:
                continue
            if all(_item_node(item) in forced for item in constraint.items):
                mark(
                    type_node,
                    f"total union {constraint.name!r} covers only empty "
                    "roles/subtypes",
                )
                progressed = True
        if not worklist and not progressed:
            break
    return forced
