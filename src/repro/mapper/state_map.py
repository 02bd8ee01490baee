"""The composite state mapping g : STATES(S1) -> STATES(S2).

Definition 1 of the paper: a schema transformation maps every
database state of the source schema to exactly one state of the
target schema; Definition 2: it is *lossless* when it is a bijection.
RIDL-M's composite transformation is made lossless by the generated
constraints ("lossless rules"); this module implements both
directions concretely so the test suite can verify the bijection
empirically:

* :meth:`RelationalStateMap.forward` — interpret the relation plans
  over a population of the canonical binary schema, producing a
  :class:`~repro.engine.database.Database`;
* :meth:`RelationalStateMap.backward_columnar` — reconstruct the
  canonical population from a database state's relation columns,
  resolving own-identifier subtypes through the sublink attributes of
  their super-relations (:meth:`RelationalStateMap.backward` reads the
  columns of an in-memory :class:`~repro.engine.database.Database`).

Both directions are *batch* kernels over the interned
:class:`~repro.brm.population.Population` layout: each lexical leg is
resolved once per relation as a chain of id-to-first-co-filler
dictionaries, and whole columns are zipped into rows (or, backwards,
interned into id columns).  Row order and content are exactly those
of the per-instance semantics (members sorted by ``repr``, first
co-filler by ``repr``).

Instances of non-lexical object types are abstract; the bijection is
exact on *canonical* populations, where each instance is named by its
lexical reference values (:func:`canonicalize_population`).
"""

from __future__ import annotations

from collections.abc import Collection, Hashable, Sequence
from itertools import filterfalse
from operator import itemgetter

from repro.brm.population import Population
from repro.brm.reference import LexicalLeaf
from repro.engine.database import Database
from repro.errors import MappingError
from repro.mapper.plan import (
    AllInstances,
    DisjunctLeaf,
    FactLeaf,
    FactPairs,
    RelationPlan,
    RolePlayers,
    SelfLeaf,
    SublinkLeaf,
)
from repro.mapper.synthesis import MappingPlan, PairLeaf
from repro.relational.schema import RelationalSchema

Instance = Hashable


def _complete_rows(
    instances: list[Instance], columns: list[list]
) -> tuple[list[Instance], list[list]]:
    """The rows whose every column is non-``None``: an incomplete
    reference is left unreconstructed.  When every row is complete
    (the common, mandatory-role case) the inputs come back as they
    are, so the per-list interning cache keeps hitting."""
    # ``None in col`` runs the scan at C speed.
    if not any(None in col for col in columns):
        return instances, columns
    keep = [
        i
        for i in range(len(instances))
        if all(col[i] is not None for col in columns)
    ]
    return (
        [instances[i] for i in keep],
        [[col[i] for i in keep] for col in columns],
    )


def _follow_ids(
    population: Population, ids: Sequence[int | None], path: tuple
) -> Sequence[int | None]:
    """Follow a lexical leg for a whole id column at once: one pass per
    component through its fact's :meth:`Population.first_co` map
    (``None`` propagates, since the maps have int keys)."""
    schema = population.schema
    for component in path:
        fact = schema.fact_type(component.fact)
        first = population.first_co(
            fact.name, fact.position_of(component.near_role)
        )
        ids = list(map(first.get, ids))
    return ids


class RelationalStateMap:
    """Both directions of the composite mapping, plan-driven."""

    def __init__(self, plan: MappingPlan, rschema: RelationalSchema) -> None:
        self.plan = plan
        self.rschema = rschema
        #: subtypes whose anchor key is their own (non-inherited) id
        self._own_ref_subtypes = {
            repr_.subtype
            for repr_ in plan.sublink_reprs.values()
            if repr_.style == "is-columns"
        }
        # A type whose chosen reference is inherited from an
        # own-identifier subtype resolves instances through that
        # subtype's `_Is` index (same lexical legs).
        self._delegate: dict[str, str] = {}
        for object_type in plan.schema.object_types:
            name = object_type.name
            current = name
            seen = set()
            while current not in seen:
                seen.add(current)
                if current in self._own_ref_subtypes:
                    self._delegate[name] = current
                    break
                if current in plan.disjunctive or not (
                    plan.resolver.is_referable(current)
                ):
                    break
                scheme = plan.resolver.chosen_scheme(current)
                if scheme.kind != "inherited":
                    break
                current = plan.schema.sublink(scheme.via_sublink).supertype

    # ------------------------------------------------------------------
    # Forward: population -> database (batch kernel)
    # ------------------------------------------------------------------

    def forward(self, population: Population) -> Database:
        """The database state corresponding to a binary population."""
        database = Database(self.rschema)
        for relation_plan in self.plan.plans.values():
            if not self.rschema.has_relation(relation_plan.relation):
                continue  # omitted by a relational-relational option
            database.load_rows(
                relation_plan.relation,
                self._batch_rows(population, relation_plan),
            )
        return database

    def _batch_rows(
        self, population: Population, relation_plan: RelationPlan
    ) -> list[dict[str, object]]:
        """All rows of one relation, computed column-at-a-time."""
        membership = relation_plan.membership
        if isinstance(membership, FactPairs):
            sides = population.columns(membership.fact)
            width = len(sides[0])
            id_columns = [
                _follow_ids(
                    population, sides[unit.source.side], unit.source.leaf.path
                )
                if isinstance(unit.source, PairLeaf)
                else [None] * width
                for unit in relation_plan.columns
            ]
        else:
            if isinstance(membership, AllInstances):
                ids: list[int] = population.ordered_ids(membership.owner)
            else:
                fact = self.plan.schema.fact_type(membership.fact)
                position = fact.position_of(membership.near_role)
                ids = population.sort_ids(
                    {
                        pair[position]
                        for pair in population.pair_ids(membership.fact)
                    }
                )
            id_columns = [
                self._unit_ids(population, unit.source, ids)
                for unit in relation_plan.columns
            ]
        if not id_columns:
            # A plan with no computed columns still emits one (empty)
            # row per member.
            count = (
                len(population.columns(membership.fact)[0])
                if isinstance(membership, FactPairs)
                else len(ids)
            )
            return [{} for _ in range(count)]
        names = [unit.name for unit in relation_plan.columns]
        value_columns = [population.values_of(column) for column in id_columns]
        return [dict(zip(names, row)) for row in zip(*value_columns)]

    def _unit_ids(
        self,
        population: Population,
        source,
        ids: list[int],
    ) -> Sequence[int | None]:
        """One column of instance-relation ids, whole-column at once."""
        if isinstance(source, SelfLeaf):
            return _follow_ids(population, ids, source.leaf.path)
        if isinstance(source, (FactLeaf, DisjunctLeaf)):
            # The owner's fact is one more leg component (it names a
            # ``fact`` and a ``near_role`` too).
            return _follow_ids(population, ids, (source, *source.leaf.path))
        assert isinstance(source, SublinkLeaf)
        members = population.instance_ids(source.subtype)
        return _follow_ids(
            population,
            [i if i in members else None for i in ids],
            source.leaf.path,
        )

    # ------------------------------------------------------------------
    # Backward: database -> canonical population
    # ------------------------------------------------------------------

    def backward(self, database: Database) -> Population:
        """The canonical population corresponding to a database state."""
        return self.backward_columnar(
            {
                relation.name: database.fetch_columns(relation.name)
                for relation in self.rschema.relations
            }
        )

    def backward_columnar(
        self,
        columns: dict[str, dict[str, list]],
        *,
        intern_like: Population | None = None,
    ) -> Population:
        """The canonical population from bulk relation columns.

        ``columns`` maps each present relation to parallel,
        row-aligned value columns (one list per attribute — the shape
        :meth:`Backend.fetch_columns` and :meth:`Database.fetch_columns`
        return).  Four passes rebuild the state: anchor instances with
        their reference chains and sublink columns (which builds the
        own-identifier resolution index top-down), the anchors'
        functional fact columns, satellites and fact relations, and
        subtype membership carried only by an indicator fact.  Every
        relation is processed column-at-a-time: instances are
        resolved per column, interned in bulk, and the reference
        chains become per-leg batched fact adds.  The row-at-a-time
        reconstruction it replaced is kept as a test oracle
        (``tests/oracles/mapper.py``), property-tested equal on every
        database state the forward map can produce.

        ``intern_like`` pre-seeds the result's intern table from an
        existing population (typically the canonical original the
        caller is about to diff against): identical values then get
        identical ids, so the subsequent ``state_diff`` needs no id
        translation.  Purely an id-space alignment — the value-level
        content is unaffected.
        """
        population = Population(self.plan.schema)
        if intern_like is not None:
            population.seed_intern_from(intern_like)
        index: dict[tuple[str, tuple], Instance] = {}
        # id(column list) -> (column list, interned id column).  The
        # same instance column feeds every fact group of its relation
        # (and deeper chains reuse their targets as owners), so each
        # distinct column is interned exactly once per reconstruction.
        cache: dict[int, tuple[list, list[int]]] = {}

        anchors = [p for p in self.plan.plans.values() if p.kind == "anchor"]
        others = [p for p in self.plan.plans.values() if p.kind != "anchor"]

        # Pass 1a: anchor instance columns, reference chains, sublink
        # columns (builds the own-identifier index top-down).
        instance_columns: dict[str, list[Instance]] = {}
        for relation_plan in anchors:
            if not self.rschema.has_relation(relation_plan.relation):
                continue
            cols = columns.get(relation_plan.relation)
            if cols is None:
                continue
            instance_columns[relation_plan.relation] = self._column_instances(
                population, index, cache, relation_plan,
                _BackwardPrep(relation_plan), cols,
            )

        # Pass 1b: functional fact columns of the anchors.
        for relation_plan in anchors:
            instances = instance_columns.get(relation_plan.relation)
            if instances is None:
                continue
            self._column_fact_groups(
                population, index, cache, _BackwardPrep(relation_plan),
                columns[relation_plan.relation], instances,
            )

        # Pass 2: satellites and fact relations.
        for relation_plan in others:
            if not self.rschema.has_relation(relation_plan.relation):
                continue
            cols = columns.get(relation_plan.relation)
            if cols is None:
                continue
            prep = _BackwardPrep(relation_plan)
            if isinstance(relation_plan.membership, RolePlayers):
                self._column_satellites(
                    population, index, cache, relation_plan, prep, cols
                )
            elif isinstance(relation_plan.membership, FactPairs):
                self._column_pairs(
                    population, index, cache, relation_plan, prep, cols
                )

        # Pass 3: subtype membership carried only by an indicator fact
        # (INDICATOR policy with an omitted factless sub-relation).
        for repr_ in self.plan.sublink_reprs.values():
            if repr_.sub_relation is not None or repr_.indicator_fact is None:
                continue
            y_id = population.id_of("Y")
            if y_id is None:
                continue
            population.add_instance_ids(
                repr_.subtype,
                {
                    first
                    for first, second in population.pair_ids(
                        repr_.indicator_fact
                    )
                    if second == y_id
                },
            )
        return population

    def _column_instances(
        self,
        population: Population,
        index: dict,
        cache: dict[int, tuple[list, list[int]]],
        relation_plan: RelationPlan,
        prep: "_BackwardPrep",
        cols: dict[str, list],
    ) -> list[Instance]:
        """Pass 1a for one anchor relation, whole columns at once."""
        owner = relation_plan.owner
        assert owner is not None
        if owner in self.plan.disjunctive:
            unit_cols = [cols[u.name] for u in prep.disjunct_units]
            if unit_cols:
                instances: list[Instance] = list(zip(*unit_cols))
            else:
                count = len(next(iter(cols.values()), ()))
                instances = [()] * count
            population.add_instance_ids(
                owner, set(self._interned(population, cache, instances))
            )
            return instances
        key_cols = [cols[c] for c in relation_plan.key_columns]
        instances = self._resolve_column(index, owner, key_cols)
        population.add_instance_ids(
            owner, set(self._interned(population, cache, instances))
        )
        if prep.self_legs:
            self._column_chain(
                population,
                index,
                cache,
                owner,
                instances,
                [(leaf, cols[name]) for name, leaf in prep.self_legs],
            )
        for sublink_name, subtype, units in prep.sublink_groups:
            kept_instances, kept_cols = _complete_rows(
                instances, [cols[u.name] for u in units]
            )
            if not kept_instances:
                continue
            population.add_instance_ids(
                subtype, set(self._interned(population, cache, kept_instances))
            )
            for row, instance in zip(zip(*kept_cols), kept_instances):
                index[(subtype, row)] = instance
            deeper = [
                (u.source.leaf, col)
                for u, col in zip(units, kept_cols)
                if u.source.leaf.path
            ]
            if deeper:
                self._column_chain(
                    population, index, cache, subtype, kept_instances, deeper
                )
        return instances

    def _interned(
        self,
        population: Population,
        cache: dict[int, tuple[list, list[int]]],
        column: list[Instance],
    ) -> list[int]:
        """The interned id column of a value column, cached per list.

        Keyed by ``id(column)`` with an identity re-check; the cache
        holds the column itself so the key cannot be recycled while
        the entry lives.
        """
        entry = cache.get(id(column))
        if entry is not None and entry[0] is column:
            return entry[1]
        ids = population.intern_all(column)
        cache[id(column)] = (column, ids)
        return ids

    def _resolve_column(
        self, index: dict, type_name: str, value_columns: list[list]
    ) -> list[Instance]:
        """The instances named by whole key columns.

        A type keyed like an own-identifier subtype resolves through
        that subtype's sublink index; a row with no matching super row
        (its ``C_EQ$`` rule violated) becomes a standalone instance, so
        the defect stays observable instead of crashing.
        """
        delegate = self._delegate.get(type_name)
        if len(value_columns) == 1:
            singles = value_columns[0]
            if delegate is None:
                return list(singles)
            get = index.get
            return [
                value if (hit := get((delegate, (value,)))) is None else hit
                for value in singles
            ]
        rows = list(zip(*value_columns))
        if delegate is None:
            return rows
        get = index.get
        return [
            row if (hit := get((delegate, row))) is None else hit
            for row in rows
        ]

    def _column_chain(
        self,
        population: Population,
        index: dict,
        cache: dict[int, tuple[list, list[int]]],
        owner_type: str,
        owner_column: list[Instance],
        legs: list,
    ) -> None:
        """Rebuild the reference-fact instances along the legs' leaf
        paths, whole columns at once.

        A row with ``None`` in *any* leg at this level is dropped from
        every group of the level.
        """
        owner_column, leg_cols = _complete_rows(
            owner_column, [col for _, col in legs]
        )
        if not owner_column:
            return
        groups: dict[object, list] = {}
        for (leaf, _), col in zip(legs, leg_cols):
            groups.setdefault(leaf.path[0], []).append((leaf, col))
        schema = self.plan.schema
        for component, group in groups.items():
            targets = self._resolve_column(
                index, component.target, [col for _, col in group]
            )
            fact = schema.fact_type(component.fact)
            owner_ids = self._interned(population, cache, owner_column)
            target_ids = self._interned(population, cache, targets)
            if fact.first.name == component.near_role:
                population.add_fact_id_columns(
                    component.fact, owner_ids, target_ids
                )
            else:
                population.add_fact_id_columns(
                    component.fact, target_ids, owner_ids
                )
            deeper = [
                (LexicalLeaf(leaf.path[1:], leaf.lot, leaf.datatype), col)
                for leaf, col in group
                if len(leaf.path) > 1
            ]
            if deeper:
                self._column_chain(
                    population, index, cache, component.target, targets,
                    deeper,
                )

    def _column_fact_groups(
        self,
        population: Population,
        index: dict,
        cache: dict[int, tuple[list, list[int]]],
        prep: "_BackwardPrep",
        cols: dict[str, list],
        instances: list[Instance],
    ) -> None:
        """Passes 1b/2: functional fact columns, whole columns at once."""
        schema = self.plan.schema
        for fact_name, units in prep.fact_groups:
            kept_instances, unit_cols = _complete_rows(
                instances, [cols[u.name] for u in units]
            )
            if not kept_instances:
                continue
            source = units[0].source
            fact = schema.fact_type(fact_name)
            target_type = fact.player_of(source.far_role)
            targets = self._resolve_column(index, target_type, unit_cols)
            owner_ids = self._interned(population, cache, kept_instances)
            target_ids = self._interned(population, cache, targets)
            if fact.first.name == source.near_role:
                population.add_fact_id_columns(fact_name, owner_ids, target_ids)
            else:
                population.add_fact_id_columns(fact_name, target_ids, owner_ids)
            deeper = [
                (u.source.leaf, col)
                for u, col in zip(units, unit_cols)
                if u.source.leaf.path
            ]
            if deeper:
                self._column_chain(
                    population, index, cache, target_type, targets, deeper
                )

    def _column_satellites(
        self,
        population: Population,
        index: dict,
        cache: dict[int, tuple[list, list[int]]],
        relation_plan: RelationPlan,
        prep: "_BackwardPrep",
        cols: dict[str, list],
    ) -> None:
        """Pass 2 for one satellite relation (RolePlayers membership)."""
        owner = relation_plan.owner
        assert owner is not None
        key_cols = [cols[c] for c in relation_plan.key_columns]
        instances = self._resolve_column(index, owner, key_cols)
        population.add_instance_ids(
            owner, set(self._interned(population, cache, instances))
        )
        self._column_fact_groups(
            population, index, cache, prep, cols, instances
        )

    def _column_pairs(
        self,
        population: Population,
        index: dict,
        cache: dict[int, tuple[list, list[int]]],
        relation_plan: RelationPlan,
        prep: "_BackwardPrep",
        cols: dict[str, list],
    ) -> None:
        """Pass 2 for one fact relation (FactPairs membership)."""
        membership = relation_plan.membership
        assert isinstance(membership, FactPairs)
        filler_columns = []
        for units in prep.pair_sides:
            unit_cols = [cols[u.name] for u in units]
            source = units[0].source
            fillers = self._resolve_column(index, source.player, unit_cols)
            filler_columns.append(fillers)
            # Structural condition: any unit with a leaf path means
            # every row's filler is instance-added before its chain is
            # reconstructed.
            deeper = [
                (u.source.leaf, col)
                for u, col in zip(units, unit_cols)
                if u.source.leaf.path
            ]
            if deeper:
                population.add_instance_ids(
                    source.player,
                    set(self._interned(population, cache, fillers)),
                )
                self._column_chain(
                    population, index, cache, source.player, fillers, deeper
                )
        population.add_fact_id_columns(
            membership.fact,
            self._interned(population, cache, filler_columns[0]),
            self._interned(population, cache, filler_columns[1]),
        )


class _BackwardPrep:
    """Per-plan column groupings of the backward map, computed once
    per relation plan instead of re-scanning ``relation_plan.columns``
    with ``isinstance`` filters for every group."""

    __slots__ = (
        "disjunct_units",
        "self_legs",
        "sublink_groups",
        "fact_groups",
        "pair_sides",
    )

    def __init__(self, relation_plan: RelationPlan) -> None:
        self.disjunct_units = [
            u
            for u in relation_plan.columns
            if isinstance(u.source, DisjunctLeaf)
        ]
        self.self_legs = [
            (u.name, u.source.leaf)
            for u in relation_plan.columns
            if isinstance(u.source, SelfLeaf) and u.source.leaf.path
        ]
        sublink_units: dict[str, list] = {}
        fact_units: dict[str, list] = {}
        sides: dict[int, list] = {0: [], 1: []}
        for unit in relation_plan.columns:
            source = unit.source
            if isinstance(source, SublinkLeaf):
                sublink_units.setdefault(source.sublink, []).append(unit)
            elif isinstance(source, (FactLeaf, DisjunctLeaf)):
                fact_units.setdefault(source.fact, []).append(unit)
            elif isinstance(source, PairLeaf):
                sides[source.side].append(unit)
        self.sublink_groups = [
            (name, units[0].source.subtype, units)
            for name, units in sublink_units.items()
        ]
        self.fact_groups = list(fact_units.items())
        self.pair_sides = (
            [sides[0], sides[1]] if sides[0] or sides[1] else []
        )


# ----------------------------------------------------------------------
# Canonical populations
# ----------------------------------------------------------------------


def canonicalize_population(
    plan: MappingPlan, population: Population
) -> Population:
    """Rename abstract instances to their lexical reference values.

    Each non-lexical instance is renamed to the (tuple of) values of
    the chosen reference scheme of its *root* supertype — the identity
    the backwards mapping reconstructs.  LOT and LOT-NOLOT instances
    are their own names already.

    Id-space formulation: one old-id -> new-id table per root.  Each
    object type's id column, in schema order, and then each fact's two
    id columns are translated through their root's table; ids not in
    it yet are named in whole-column passes (:func:`_name_column`) and
    interned in column order.  The per-instance renaming this replaced
    is kept as a test oracle (``tests/oracles/mapper.py``).
    """
    schema = plan.schema
    canonical = Population(schema)
    tables: dict[str, dict[int, int]] = {}  # root -> old id -> new id

    def renamed(type_name: str, ids: Collection[int]) -> list[int]:
        nolot = schema.object_type(type_name).is_nolot
        root = min(schema.root_supertypes_of(type_name)) if nolot else type_name
        table = tables.setdefault(root, {})
        missing = list(filterfalse(table.__contains__, ids))
        if missing:
            names = (
                _name_column(plan, population, root, type_name, missing)
                if nolot
                else population.values_of(missing)
            )
            table.update(zip(missing, canonical.intern_all(names)))
        return list(map(table.__getitem__, ids))

    for object_type in schema.object_types:
        name = object_type.name
        ids = population.instance_ids(name)
        canonical.add_instance_ids(name, set(renamed(name, ids)))
    for fact in schema.fact_types:
        pairs = population.pair_ids(fact.name)
        canonical.add_fact_id_columns(
            fact.name,
            renamed(fact.first.player, list(map(itemgetter(0), pairs))),
            renamed(fact.second.player, list(map(itemgetter(1), pairs))),
        )
    return canonical


def _name_column(
    plan: MappingPlan,
    population: Population,
    root: str,
    type_name: str,
    ids: list[int],
) -> list[Instance]:
    """The names of ``type_name`` instances under ``root``'s reference.

    A disjunctive root's name is the tuple of its first co-fillers,
    one per scheme fact (``None`` where there is none).  Otherwise each
    reference leaf's legs are followed as whole-column dict passes
    (:func:`_follow_ids`); one leaf names by scalar, several by tuple,
    none by ``()``.
    """
    schema = plan.schema
    if root in plan.disjunctive:
        columns = []
        for fact_name in plan.disjunctive[root].facts:
            fact = schema.fact_type(fact_name)
            near = fact.first if fact.first.player == root else fact.second
            first = population.first_co(fact_name, fact.position_of(near.name))
            columns.append(population.values_of(list(map(first.get, ids))))
        return list(zip(*columns)) or [()] * len(ids)
    columns = [
        _follow_ids(population, ids, leaf.path)
        for leaf in plan.resolver.leaves(root)
    ]
    broken = [column.index(None) for column in columns if None in column]
    if broken:
        raise MappingError(
            f"instance {population.value(ids[min(broken)])!r} of "
            f"{type_name!r} has no complete reference; population is not "
            "a valid state"
        )
    if len(columns) == 1:
        return population.values_of(columns[0])
    return list(zip(*map(population.values_of, columns))) or [()] * len(ids)
