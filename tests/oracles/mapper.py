"""Value-level oracles for the relational state map.

:func:`row_backward` keeps the row-at-a-time reconstruction that
``RelationalStateMap`` ran beside its columnar kernel: it walks the
database row by row and adds instances and facts one at a time to a
:class:`~tests.oracles.brm.RowPopulation`.  The four passes, the
own-identifier resolution index and the defect semantics are those
``backward_columnar`` implements column-at-a-time;
``tests/mapper/test_backward_columnar.py`` asserts the two agree on
every database the forward map produces, across every sublink policy.

:func:`value_canonicalize` keeps the per-instance renaming that
``canonicalize_population`` ran before it moved to id space: a
``rename`` closure called once per instance and fact filler, with the
renamed values re-interned.  ``tests/mapper/test_id_space_oracles.py``
asserts both build identical populations, down to the intern order.

:func:`materialized_workload_cost` keeps the pricing of the serial
expert recommender that the advisor replaced: map the schema in full,
compile each query pattern through ``QueryCompiler(result)`` and price
its relations with ``entity_fetch_cost`` on the materialized
relational schema.  ``tests/mapper/test_queries_expert.py`` asserts
that ``score_plan`` prices every candidate's plan the same, and that
both fail on the same candidates.

:func:`prefix_group_advise` keeps the advisor's one-level grouping:
candidates grouped by ``prefix_key()`` alone, and one whole
``map_prefix`` (gate, binary phase, plan synthesis) per prefix group,
run serially.  ``tests/mapper/test_binary_seam.py`` asserts that
``advise``, which runs the binary phase once per binary group, ranks
and reports every candidate the same.

:func:`eliminate_sublink` keeps the TOGETHER elimination that rebuilt
the whole schema for every eliminated sublink: a fresh
``BinarySchema`` re-adding every object type but the subtype, every
fact replayed onto the supertype, every other sublink and every
rewritten constraint, then the lossless rules.  The rewriting helpers
it calls are the production ones.
``tests/mapper/test_sublink_elimination_oracle.py`` asserts that the
in-place elimination leaves the same elements in the same order, the
same steps, hints and pseudo constraints, and the same population
maps.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.analyzer.implication import check_implications
from repro.brm.constraints import EqualityConstraint, SubsetConstraint
from repro.brm.facts import RoleId
from repro.brm.indexes import indexes_for
from repro.brm.population import Population
from repro.brm.reference import LexicalLeaf
from repro.brm.schema import BinarySchema
from repro.brm.sublinks import SublinkType
from repro.engine.cost import CostModel, TableStatistics, entity_fetch_cost
from repro.engine.database import Database
from repro.errors import MappingError
from repro.mapper.advisor import (
    AdvisorReport,
    CandidateHealth,
    CandidateOutcome,
    ScoreWeights,
    score_plan,
)
from repro.mapper.engine import map_prefix, map_schema, plan_from_prefix
from repro.mapper.options import MappingOptions
from repro.mapper.optionspace import (
    OptionSpace,
    PrunePredicate,
    discover_space,
    enumerate_options,
)
from repro.mapper.rulebase import Rule
from repro.mapper.plan import FactPairs, RelationPlan, RolePlayers
from repro.mapper.state import EliminationRecord, MappingState
from repro.mapper.state_map import RelationalStateMap, _BackwardPrep
from repro.mapper.synthesis import MappingPlan
from repro.mapper.transformations.binary_binary import (
    _indicated,
    _replay_fact,
    _rewrite_constraint,
    _synthesize_indicator,
)
from repro.ridl.queries import ConceptualQuery, FactSelection, QueryCompiler
from repro.workloads.statistics import QueryPattern, WorkloadProfile

from tests.oracles.brm import RowPopulation

Instance = Hashable


def _canon(values: tuple[Instance, ...]) -> Instance:
    """The canonical instance named by a tuple of lexical values."""
    if len(values) == 1:
        return values[0]
    return values


def row_backward(
    state_map: RelationalStateMap, database: Database
) -> RowPopulation:
    """The canonical population of a database state, row at a time."""
    return _RowBackward(state_map).backward(database)


class _RowBackward:
    """The row-at-a-time backward passes over one state map's plan."""

    def __init__(self, state_map: RelationalStateMap) -> None:
        self.plan = state_map.plan
        self.rschema = state_map.rschema
        self._delegate = state_map._delegate

    def backward(self, database: Database) -> RowPopulation:
        """The canonical population corresponding to a database state."""
        population = RowPopulation(self.plan.schema)
        index: dict[tuple[str, tuple], Instance] = {}

        anchors = [p for p in self.plan.plans.values() if p.kind == "anchor"]
        others = [p for p in self.plan.plans.values() if p.kind != "anchor"]

        # Pass 1a: anchor instances, reference chains, sublink columns
        # (builds the own-identifier resolution index top-down).
        rows_cache: dict[str, list[tuple[dict, Instance]]] = {}
        for relation_plan in anchors:
            if not self.rschema.has_relation(relation_plan.relation):
                continue
            prep = _BackwardPrep(relation_plan)
            cached = []
            for row in database.iter_rows(relation_plan.relation):
                instance = self._materialize_instance(
                    population, index, relation_plan, prep, row
                )
                cached.append((row, instance))
            rows_cache[relation_plan.relation] = cached

        # Pass 1b: functional fact columns of the anchors.
        for relation_plan in anchors:
            prep = _BackwardPrep(relation_plan)
            for row, instance in rows_cache.get(relation_plan.relation, ()):
                self._materialize_fact_columns(
                    population, index, prep, row, instance
                )

        # Pass 2: satellites and fact relations.
        for relation_plan in others:
            if not self.rschema.has_relation(relation_plan.relation):
                continue
            prep = _BackwardPrep(relation_plan)
            if isinstance(relation_plan.membership, RolePlayers):
                for row in database.iter_rows(relation_plan.relation):
                    self._materialize_satellite_row(
                        population, index, relation_plan, prep, row
                    )
            elif isinstance(relation_plan.membership, FactPairs):
                for row in database.iter_rows(relation_plan.relation):
                    self._materialize_pair_row(
                        population, index, relation_plan, prep, row
                    )

        # Pass 3: subtype membership carried only by an indicator fact
        # (INDICATOR policy with an omitted factless sub-relation).
        for repr_ in self.plan.sublink_reprs.values():
            if repr_.sub_relation is not None or repr_.indicator_fact is None:
                continue
            for first, second in population.fact_instances(
                repr_.indicator_fact
            ):
                if second == "Y":
                    population.add_instance(repr_.subtype, first)
        return population

    # -- pass 1a -------------------------------------------------------

    def _materialize_instance(
        self,
        population: RowPopulation,
        index: dict,
        relation_plan: RelationPlan,
        prep: "_BackwardPrep",
        row: dict,
    ) -> Instance:
        owner = relation_plan.owner
        assert owner is not None
        if owner in self.plan.disjunctive:
            values = tuple(row.get(u.name) for u in prep.disjunct_units)
            instance = values  # full tuple including absent groups
            population.add_instance(owner, instance)
            return instance
        key_values = tuple(row.get(c) for c in relation_plan.key_columns)
        instance = self._resolve(index, owner, key_values)
        population.add_instance(owner, instance)
        # Reconstruct the owner's reference-fact chain.
        self_legs = [
            (leaf, row.get(name)) for name, leaf in prep.self_legs
        ]
        self._reconstruct_chain(population, index, owner, instance, self_legs)
        # Sublink columns: membership plus the subtype's own reference.
        for sublink_name, subtype, units in prep.sublink_groups:
            legs = [(u.source.leaf, row.get(u.name)) for u in units]
            values = tuple(value for _, value in legs)
            if any(value is None for value in values):
                continue
            population.add_instance(subtype, instance)
            index[(subtype, values)] = instance
            self._reconstruct_chain(
                population,
                index,
                subtype,
                instance,
                [(leaf, value) for (leaf, value) in legs if leaf.path],
            )
        return instance

    def _resolve(
        self, index: dict, type_name: str, values: tuple
    ) -> Instance:
        """An instance for reference values, via the sublink index for
        (types keyed like) own-identifier subtypes."""
        delegate = self._delegate.get(type_name)
        if delegate is not None:
            resolved = index.get((delegate, values))
            if resolved is not None:
                return resolved
            # No matching super row (the C_EQ$ rule is violated);
            # materialize a standalone instance so the defect stays
            # observable rather than crashing.
        return _canon(values)

    def _reconstruct_chain(
        self,
        population: RowPopulation,
        index: dict,
        owner_type: str,
        owner_instance: Instance,
        legs: list,
    ) -> None:
        """Rebuild the reference-fact instances along leaf paths."""
        groups: dict[object, list] = {}
        for leaf, value in legs:
            if value is None:
                return  # incomplete reference; leave unreconstructed
            groups.setdefault(leaf.path[0], []).append((leaf, value))
        schema = self.plan.schema
        for component, group in groups.items():
            values = tuple(value for _, value in group)
            target = self._resolve(index, component.target, values)
            fact = schema.fact_type(component.fact)
            if fact.first.name == component.near_role:
                population.add_fact(component.fact, owner_instance, target)
            else:
                population.add_fact(component.fact, target, owner_instance)
            deeper = [
                (LexicalLeaf(leaf.path[1:], leaf.lot, leaf.datatype), value)
                for leaf, value in group
                if len(leaf.path) > 1
            ]
            if deeper:
                self._reconstruct_chain(
                    population, index, component.target, target, deeper
                )

    # -- pass 1b -------------------------------------------------------

    def _materialize_fact_columns(
        self,
        population: RowPopulation,
        index: dict,
        prep: "_BackwardPrep",
        row: dict,
        instance: Instance,
    ) -> None:
        schema = self.plan.schema
        for fact_name, units in prep.fact_groups:
            values = tuple(row.get(u.name) for u in units)
            if any(value is None for value in values):
                continue
            source = units[0].source
            fact = schema.fact_type(fact_name)
            target_type = fact.player_of(source.far_role)
            target = self._resolve(index, target_type, values)
            if fact.first.name == source.near_role:
                population.add_fact(fact_name, instance, target)
            else:
                population.add_fact(fact_name, target, instance)
            deeper = [
                (
                    LexicalLeaf(
                        u.source.leaf.path,
                        u.source.leaf.lot,
                        u.source.leaf.datatype,
                    ),
                    value,
                )
                for u, value in zip(units, values)
                if u.source.leaf.path
            ]
            if deeper:
                self._reconstruct_chain(
                    population, index, target_type, target, deeper
                )

    # -- pass 2 --------------------------------------------------------

    def _materialize_satellite_row(
        self,
        population: RowPopulation,
        index: dict,
        relation_plan: RelationPlan,
        prep: "_BackwardPrep",
        row: dict,
    ) -> None:
        owner = relation_plan.owner
        assert owner is not None
        key_values = tuple(row.get(c) for c in relation_plan.key_columns)
        instance = self._resolve(index, owner, key_values)
        population.add_instance(owner, instance)
        self._materialize_fact_columns(
            population, index, prep, row, instance
        )

    def _materialize_pair_row(
        self,
        population: RowPopulation,
        index: dict,
        relation_plan: RelationPlan,
        prep: "_BackwardPrep",
        row: dict,
    ) -> None:
        membership = relation_plan.membership
        assert isinstance(membership, FactPairs)
        fillers = []
        for units in prep.pair_sides:
            values = tuple(row.get(u.name) for u in units)
            source = units[0].source
            filler = self._resolve(index, source.player, values)
            fillers.append(filler)
            deeper = [
                (u.source.leaf, value)
                for u, value in zip(units, values)
                if u.source.leaf.path
            ]
            if deeper:
                population.add_instance(source.player, filler)
                self._reconstruct_chain(
                    population, index, source.player, filler, deeper
                )
        population.add_fact(membership.fact, fillers[0], fillers[1])


def _leg_maps(population: Population, path: tuple) -> list[dict[int, int]]:
    """One first-co-filler map per component of a lexical leg.

    Following the leg from an instance id is then a chain of dict
    lookups (with ``None`` propagation), built once per leg instead of
    probing ``facts_of`` and sorting fillers per instance.
    """
    schema = population.schema
    maps = []
    for component in path:
        fact = schema.fact_type(component.fact)
        position = fact.position_of(component.near_role)
        maps.append(population.first_co(fact.name, position))
    return maps


def value_canonicalize(
    plan: MappingPlan, population: Population
) -> Population:
    """Rename abstract instances to their lexical reference values.

    Each non-lexical instance is renamed to the (tuple of) values of
    the chosen reference scheme of its *root* supertype — the identity
    the backwards mapping reconstructs.  LOT and LOT-NOLOT instances
    are their own names already.

    Batch formulation: per root type the reference legs are resolved
    once into chains of first-co-filler maps over interned ids
    (:func:`_leg_maps`), so renaming an instance is a handful of dict
    lookups instead of per-instance ``facts_of`` probes and filler
    sorts.
    """
    schema = plan.schema
    value = population.value

    # root -> ("disjunct", [first_co map per scheme fact]) or
    #         ("legs", [leg map chain per reference leaf])
    resolvers: dict[str, tuple[str, list]] = {}

    def resolver_for(root: str) -> tuple[str, list]:
        resolver = resolvers.get(root)
        if resolver is not None:
            return resolver
        if root in plan.disjunctive:
            scheme = plan.disjunctive[root]
            maps = []
            for fact_name in scheme.facts:
                fact = schema.fact_type(fact_name)
                near = (
                    fact.first if fact.first.player == root else fact.second
                )
                maps.append(
                    population.first_co(fact_name, fact.position_of(near.name))
                )
            resolver = ("disjunct", maps)
        else:
            resolver = (
                "legs",
                [
                    _leg_maps(population, leaf.path)
                    for leaf in plan.resolver.leaves(root)
                ],
            )
        resolvers[root] = resolver
        return resolver

    roots: dict[str, str | None] = {}  # type -> root (None when lexical)
    renames: dict[tuple[str, int], Instance] = {}

    def rename(type_name: str, interned: int) -> Instance:
        root = roots.get(type_name, "")
        if root == "":
            object_type = schema.object_type(type_name)
            root = (
                min(schema.root_supertypes_of(type_name))
                if object_type.is_nolot
                else None
            )
            roots[type_name] = root
        if root is None:
            return value(interned)
        key = (root, interned)
        renamed = renames.get(key)
        if renamed is not None:
            return renamed
        kind, legs = resolver_for(root)
        if kind == "disjunct":
            renamed = tuple(value(m.get(interned)) for m in legs)
        else:
            values = []
            for maps in legs:
                current: int | None = interned
                for mapping in maps:
                    current = mapping.get(current)
                    if current is None:
                        break
                values.append(current)
            if any(v is None for v in values):
                raise MappingError(
                    f"instance {value(interned)!r} of {type_name!r} has no "
                    "complete reference; population is not a valid state"
                )
            renamed = _canon(tuple(value(v) for v in values))
        renames[key] = renamed
        return renamed

    canonical = Population(schema)
    for object_type in schema.object_types:
        name = object_type.name
        canonical.add_instances(
            name,
            (rename(name, i) for i in population.instance_ids(name)),
        )
    for fact in schema.fact_types:
        first_type = fact.first.player
        second_type = fact.second.player
        canonical.add_facts(
            fact.name,
            [
                (rename(first_type, first), rename(second_type, second))
                for first, second in population.pair_ids(fact.name)
            ],
        )
    return canonical


def materialized_workload_cost(
    schema: BinarySchema,
    options: MappingOptions,
    queries: tuple[QueryPattern, ...],
    statistics: TableStatistics,
    model: CostModel = CostModel(),
) -> float:
    """The weighted page reads of a query workload on the mapped design.

    Raises :class:`MappingError` when the options do not map or a
    pattern does not compile against the result.
    """
    result = map_schema(schema, options)
    compiler = QueryCompiler(result)
    total = 0.0
    for pattern in queries:
        query = ConceptualQuery(
            pattern.object_type,
            selections=tuple(
                FactSelection(fact) for fact in pattern.facts
            ),
        )
        compiled = compiler.compile(query)
        cost = entity_fetch_cost(
            result.relational, compiled.relations_touched, statistics, model
        )
        total += cost * pattern.frequency
    return total


def prefix_group_advise(
    schema: BinarySchema,
    space: OptionSpace | None = None,
    *,
    prune: PrunePredicate | None = None,
    profile: WorkloadProfile = WorkloadProfile(),
    weights: ScoreWeights = ScoreWeights(),
    model: CostModel = CostModel(),
    robustness: str | None = None,
    extra_rules: tuple[Rule, ...] = (),
) -> AdvisorReport:
    """``advise(..., workers=1)`` with one ``map_prefix`` per prefix
    group, grouped by ``prefix_key()`` alone."""
    if space is None:
        space = discover_space(schema)
    groups: dict[tuple, list[tuple[int, MappingOptions]]] = {}
    for index, options in enumerate(enumerate_options(space, prune=prune)):
        groups.setdefault(options.prefix_key(), []).append((index, options))
    outcomes = []
    for items in groups.values():
        outcomes.extend(
            _run_group(
                schema,
                items[0][1].prefix_options(),
                items,
                profile=profile,
                weights=weights,
                model=model,
                robustness=robustness,
                extra_rules=extra_rules,
            )
        )
    return AdvisorReport(
        schema_name=schema.name,
        ranked=tuple(sorted(outcomes, key=CandidateOutcome.sort_key)),
        prefix_groups=len(groups),
        profile=profile,
        weights=weights,
    )


def _run_group(
    schema: BinarySchema,
    prefix_options: MappingOptions,
    items: list[tuple[int, MappingOptions]],
    *,
    profile: WorkloadProfile,
    weights: ScoreWeights,
    model: CostModel,
    robustness: str | None,
    extra_rules: tuple[Rule, ...],
) -> list[CandidateOutcome]:
    try:
        prefix = map_prefix(
            schema,
            prefix_options,
            robustness=robustness,
            extra_rules=extra_rules,
        )
    except Exception as exc:  # reported per candidate, never aborts advise
        return [
            CandidateOutcome(
                index=index,
                options=options,
                label=options.describe(),
                score=None,
                health=None,
                error=f"prefix failed: {exc}",
            )
            for index, options in items
        ]
    outcomes = []
    for index, options in items:
        try:
            plan, health = plan_from_prefix(prefix, options)
            outcomes.append(
                CandidateOutcome(
                    index=index,
                    options=options,
                    label=options.describe(),
                    score=score_plan(plan, profile, weights, model),
                    health=CandidateHealth.from_report(health),
                    implied_constraints=len(
                        check_implications(plan.schema).implied
                    ),
                )
            )
        except Exception as exc:  # one failed candidate must not sink the rest
            outcomes.append(
                CandidateOutcome(
                    index=index,
                    options=options,
                    label=options.describe(),
                    score=None,
                    health=None,
                    error=str(exc),
                )
            )
    return outcomes


def eliminate_sublink(state: MappingState, sublink_name: str) -> None:
    """The figure-4 transformation for the TOGETHER policy.

    The subtype's roles are re-played by the supertype; its total
    roles become the membership *anchors*, tied together by equality
    constraints (lossless rules), and each optional former role is
    tied to the anchor by a subset constraint.  A subtype without any
    total role gets a synthesized indicator fact instead.
    """
    old_schema = state.schema
    sublink = old_schema.sublink(sublink_name)
    subtype, supertype = sublink.subtype, sublink.supertype

    if len(old_schema.supertypes_of(subtype)) > 1:
        raise MappingError(
            f"cannot apply TOGETHER to sublink {sublink_name!r}: subtype "
            f"{subtype!r} has multiple supertypes; override this sublink "
            "to SEPARATE or INDICATOR"
        )

    moved_roles = tuple(old_schema.roles_played_by(subtype))
    anchors = [r for r in moved_roles if old_schema.is_total(r)]
    anchor = _preferred_anchor(old_schema, anchors)

    new_schema = BinarySchema(old_schema.name)
    for object_type in old_schema.object_types:
        if object_type.name != subtype:
            new_schema.add_object_type(object_type)
    for fact in old_schema.fact_types:
        new_schema.add_fact_type(_replay_fact(fact, subtype, supertype))
    for other in old_schema.sublinks:
        if other.name == sublink_name:
            continue
        if other.supertype == subtype:
            new_schema.add_sublink(
                SublinkType(other.name, other.subtype, supertype)
            )
        else:
            new_schema.add_sublink(other)

    lossless: list[str] = []
    dropped_totals: list[str] = []
    # The (subset, superset) pairs written so far: asking the schema
    # would rebuild its constraint index after every add.
    subset_pairs: set[tuple[RoleId, RoleId]] = set()
    for constraint in old_schema.constraints:
        rewritten = _rewrite_constraint(
            state, old_schema, constraint, sublink_name, subtype, anchor
        )
        if rewritten is None:
            dropped_totals.append(constraint.name)
            continue
        new_schema.add_constraint(rewritten)
        if isinstance(rewritten, SubsetConstraint):
            subset_pairs.add((rewritten.subset, rewritten.superset))

    # Lossless rules: anchors carry the membership set.
    if anchor is not None:
        if len(anchors) > 1:
            name = new_schema.fresh_name(f"LL_EE_{sublink_name}")
            new_schema.add_constraint(
                EqualityConstraint(name, items=tuple(anchors))
            )
            lossless.append(name)
        for role in moved_roles:
            if role in anchors or role == anchor:
                continue
            if (role, anchor) not in subset_pairs:
                name = new_schema.fresh_name(f"LL_DE_{sublink_name}")
                new_schema.add_constraint(
                    SubsetConstraint(name, subset=role, superset=anchor)
                )
                subset_pairs.add((role, anchor))
                lossless.append(name)

    indicator_fact: str | None = None
    state.schema = new_schema
    if anchor is None:
        indicator_fact = _synthesize_indicator(state, subtype, supertype)
        lossless.append(indicator_fact)
    schema_after = state.schema

    record = EliminationRecord(
        sublink=sublink_name,
        subtype=subtype,
        supertype=supertype,
        anchor=anchor,
        indicator_fact=indicator_fact,
        moved_roles=moved_roles,
    )
    state.hints.eliminations[sublink_name] = record
    state.record(
        "eliminate-sublink",
        "binary-binary",
        sublink_name,
        f"SUBOT & SUPOT TOGETHER: roles of {subtype!r} re-played by "
        f"{supertype!r}"
        + (f", membership anchored on {anchor}" if anchor else
           ", membership via indicator fact")
        + (
            ", folded total constraint(s) "
            + ", ".join(dropped_totals)
            + " into the membership anchor"
            if dropped_totals
            else ""
        ),
        tuple(lossless),
    )

    def forward(population: Population) -> Population:
        if indicator_fact is None:
            return population.project(schema_after)
        return _indicated(
            population, schema_after, indicator_fact, subtype, supertype
        )

    def backward(population: Population) -> Population:
        # ``schema_after`` has no subtype: its members come back from
        # the anchor role or the "Y" side of the indicator fact.
        if anchor is not None:
            members = population.role_population(anchor)
        else:
            members = frozenset(
                first
                for first, second in population.fact_instances(indicator_fact)
                if second == "Y"
            )
        restored = population.project(old_schema)
        restored.add_instances(subtype, members)
        return restored

    state.add_population_maps(forward, backward)


def _preferred_anchor(
    schema: BinarySchema, anchors: list[RoleId]
) -> RoleId | None:
    """The representative total role: the reference fact if possible."""
    if not anchors:
        return None
    reference_roles = indexes_for(schema).reference_roles
    for role in anchors:
        if role in reference_roles:
            return role
    return anchors[0]


def _preferred_anchor(
    schema: BinarySchema, anchors: list[RoleId]
) -> RoleId | None:
    """The representative total role: the reference fact if possible."""
    if not anchors:
        return None
    reference_roles = indexes_for(schema).reference_roles
    for role in anchors:
        if role in reference_roles:
            return role
    return anchors[0]
