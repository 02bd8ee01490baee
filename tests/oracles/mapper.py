"""Row-path oracle for the relational state map's backward direction.

:func:`row_backward` keeps the row-at-a-time reconstruction that
``RelationalStateMap`` ran beside its columnar kernel: it walks the
database row by row and adds instances and facts one at a time to a
:class:`~tests.oracles.brm.RowPopulation`.  The four passes, the
own-identifier resolution index and the defect semantics are those
``backward_columnar`` implements column-at-a-time;
``tests/mapper/test_backward_columnar.py`` asserts the two agree on
every database the forward map produces, across every sublink policy.
"""

from __future__ import annotations

from collections.abc import Hashable

from repro.brm.reference import LexicalLeaf
from repro.engine.database import Database
from repro.mapper.plan import FactPairs, RelationPlan, RolePlayers
from repro.mapper.state_map import RelationalStateMap, _BackwardPrep, _canon

from tests.oracles.brm import RowPopulation

Instance = Hashable


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
