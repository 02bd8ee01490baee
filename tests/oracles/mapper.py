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
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.brm.population import Population
from repro.brm.reference import LexicalLeaf
from repro.brm.schema import BinarySchema
from repro.engine.cost import CostModel, TableStatistics, entity_fetch_cost
from repro.engine.database import Database
from repro.errors import MappingError
from repro.mapper.engine import map_schema
from repro.mapper.options import MappingOptions
from repro.mapper.plan import FactPairs, RelationPlan, RolePlayers
from repro.mapper.state_map import RelationalStateMap, _BackwardPrep
from repro.mapper.synthesis import MappingPlan
from repro.ridl.queries import ConceptualQuery, FactSelection, QueryCompiler
from repro.workloads.statistics import QueryPattern

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
