"""Random valid populations for binary schemas.

Used by the property-based losslessness tests and by the benchmark
workloads: generates populations that satisfy the schema's
constraints *by construction* (uniqueness via distinct values,
totality by always filling mandatory roles, exclusion by partitioning
subtype membership), then verifiable with ``Population.check()``.

Rich-constraint schemas (``SchemaShape(rich_constraints=True)``) are
supported too: lexical fillers are drawn from a type's
:class:`~repro.brm.constraints.ValueConstraint` allowed values when
one exists, and the fill decisions for functional facts are closed
over role :class:`~repro.brm.constraints.SubsetConstraint` /
:class:`~repro.brm.constraints.EqualityConstraint` pairs (an instance
planned to fill a subset role also fills the superset role; equal
roles fill the union) before any filler value is chosen.  Constraint
ends that are not the functional (near) role of a planned fact are
left to ``Population.check()`` — the generator enforces what it can
by construction and never silently weakens a constraint.
"""

from __future__ import annotations

import random

from repro.analyzer.implication import require_satisfiable
from repro.brm.datatypes import DataType, DataTypeKind
from repro.brm.facts import RoleId
from repro.brm.population import Population
from repro.brm.schema import BinarySchema
from repro.brm.sublinks import SublinkRef
from repro.observability.tracer import span as _obs_span

#: Data-type families whose filler values are Python numbers rather
#: than strings — required for the SQL execution backends, whose
#: typed columns reject (or worse, coerce) mistyped values.
_INTEGER_KINDS = (
    DataTypeKind.NUMERIC,
    DataTypeKind.INTEGER,
    DataTypeKind.SMALLINT,
)


def _typed_filler(datatype: DataType | None, tag: str, index: int):
    """A filler value of the lexical type's Python shape.

    Distinct indexes yield distinct values within one ``tag``, which
    is all the uniqueness the generator relies on.
    """
    if datatype is None:
        return f"{tag}_{index}"
    if datatype.kind in _INTEGER_KINDS and datatype.scale is None:
        return 100000 + index
    if datatype.kind is DataTypeKind.REAL or (
        datatype.kind is DataTypeKind.NUMERIC and datatype.scale is not None
    ):
        return 100000 + index + 0.25
    if datatype.kind is DataTypeKind.BOOLEAN:
        return "Y" if index % 2 == 0 else "N"
    return f"{tag}_{index}"


def _lexical_pool(schema: BinarySchema, player: str) -> list:
    """Candidate values for a lexical type: its value constraint's
    allowed values when one exists, else a small synthetic pool."""
    constraint = schema.value_constraint_on(player)
    if constraint is not None:
        return list(constraint.values)
    datatype = schema.object_type(player).datatype
    stringy = datatype is None or datatype.kind in (
        DataTypeKind.CHAR, DataTypeKind.VARCHAR, DataTypeKind.DATE
    )
    if stringy:
        return [f"{player.lower()}_v{i}" for i in range(3)]
    # Offset 300000 keeps pool values disjoint from the unique-role
    # fillers (100000 + index) of the same numeric domain.
    return [
        _typed_filler(datatype, f"{player.lower()}_v", 300000 + i)
        for i in range(3)
    ]


def generate_population(
    schema: BinarySchema,
    *,
    instances_per_type: int = 5,
    optional_fill: float = 0.6,
    seed: int = 7,
) -> Population:
    """A pseudo-random valid population of the schema.

    ``seed`` fully determines the result — every caller that needs
    byte-reproducible populations (the validation harness, the CLI,
    the benchmarks) passes it explicitly.

    An unsatisfiable schema raises :class:`PopulationError` carrying
    the implication engine's contradiction proofs *before* the fill
    fixpoint runs — the fixpoint cannot converge to a valid state
    that provably does not exist.
    """
    require_satisfiable(schema)
    with _obs_span(
        "workloads.generate_population",
        schema=schema.name,
        instances_per_type=instances_per_type,
        seed=seed,
    ):
        return _generate(schema, instances_per_type, optional_fill, seed)


def _generate(
    schema: BinarySchema,
    instances_per_type: int,
    optional_fill: float,
    seed: int,
) -> Population:
    rng = random.Random(seed)
    population = Population(schema)

    # 1. Root object types get fresh abstract instances; subtypes get
    #    a subset of their supertype's members, partitioned where
    #    sibling sublinks are mutually exclusive.
    excluded_sublinks: set[frozenset[str]] = set()
    for constraint in schema.exclusions():
        sublinks = [
            item.sublink
            for item in constraint.items
            if isinstance(item, SublinkRef)
        ]
        for index, first in enumerate(sublinks):
            for second in sublinks[index + 1:]:
                excluded_sublinks.add(frozenset((first, second)))

    ordered = sorted(
        (t for t in schema.object_types if t.is_nolot),
        key=lambda t: len(schema.ancestors_of(t.name)),
    )
    claimed: dict[str, set[int]] = {}  # sublink -> claimed instance ids
    for object_type in ordered:
        name = object_type.name
        if not schema.supertypes_of(name):
            population.add_instances(
                name,
                [f"{name.lower()}_{index}"
                 for index in range(instances_per_type)],
            )
            continue
        for sublink in schema.sublinks_from(name):
            supers = population.ordered_ids(sublink.supertype)
            # One draw per candidate, batched; instances claimed by a
            # mutually-exclusive sibling sublink are blocked wholesale.
            draws = [rng.random() for _ in supers]
            blocked: set[int] = set()
            for other, taken in claimed.items():
                if frozenset((sublink.name, other)) in excluded_sublinks:
                    blocked |= taken
            members = {
                instance
                for instance, draw in zip(supers, draws)
                if draw < 0.5 and instance not in blocked
            }
            claimed[sublink.name] = members
            population.add_instance_ids(name, members)

    # 2. Functional facts, in three stages so the role subset/equality
    #    constraints between optional roles hold by construction:
    #    (a) plan which near instances fill each fact (mandatory roles
    #    always, optional ones with probability ``optional_fill``),
    #    (b) close the plan over role subset/equality constraints,
    #    (c) materialize fillers (unique far roles get distinct values).
    near_of: dict[str, RoleId] = {}
    chosen: dict[RoleId, set[int]] = {}
    for fact in schema.fact_types:
        first_id, second_id = fact.role_ids
        near_id = None
        if schema.is_unique(first_id):
            near_id = first_id
        elif schema.is_unique(second_id):
            near_id = second_id
        if near_id is None:
            continue  # many-to-many handled below
        near_role = fact.role(near_id.role)
        total = schema.is_total(near_id)
        near_of[fact.name] = near_id
        chosen[near_id] = {
            instance
            for instance in population.ordered_ids(near_role.player)
            if total or rng.random() <= optional_fill
        }

    changed = True
    while changed:
        changed = False
        for constraint in schema.subsets():
            subset, superset = constraint.subset, constraint.superset
            if subset in chosen and superset in chosen:
                missing = chosen[subset] - chosen[superset]
                if missing:
                    chosen[superset] |= missing
                    changed = True
        for constraint in schema.equalities():
            items = [item for item in constraint.items if item in chosen]
            if len(items) < 2:
                continue
            union = set().union(*(chosen[item] for item in items))
            for item in items:
                if chosen[item] != union:
                    chosen[item] = set(union)
                    changed = True

    for fact in schema.fact_types:
        near_id = near_of.get(fact.name)
        if near_id is None:
            continue
        first_id, _ = fact.role_ids
        near_role = fact.role(near_id.role)
        far_role = fact.co_role(near_id.role)
        far_id = RoleId(fact.name, far_role.name)
        far_unique = schema.is_unique(far_id)
        far_player = schema.object_type(far_role.player)
        pool = _lexical_pool(schema, far_role.player)
        members = chosen[near_id]
        picked = [
            (index, instance)
            for index, instance in enumerate(
                population.ordered_ids(near_role.player)
            )
            if instance in members
        ]
        if not picked:
            continue
        # The whole filler id column (new values interned in filler
        # order) is built before a single pair lands in the population,
        # then added with one call — filler auto-adds and ancestor
        # propagation run once per fact type instead of once per row.
        if far_unique:
            # Distinct per instance; a value-constrained far type
            # spends its allowed values first.
            spend_pool = schema.value_constraint_on(far_role.player) is not None
            tag = fact.name.lower()
            fillers = population.intern_all(
                pool[index]
                if spend_pool and index < len(pool)
                else _typed_filler(far_player.datatype, tag, index)
                for index, _ in picked
            )
        elif far_player.is_nolot:
            far_existing = population.ordered_ids(far_role.player)
            fillers = (
                rng.choices(far_existing, k=len(picked))
                if far_existing
                else population.intern_all([f"{fact.name}_x"] * len(picked))
            )
        else:
            fillers = population.intern_all(rng.choices(pool, k=len(picked)))
        owners = [instance for _, instance in picked]
        if near_id == first_id:
            population.add_fact_id_columns(fact.name, owners, fillers)
        else:
            population.add_fact_id_columns(fact.name, fillers, owners)

    # 3. Many-to-many facts: a few random pairs per fact type.
    for fact in schema.fact_types:
        first_id, second_id = fact.role_ids
        if schema.is_unique(first_id) or schema.is_unique(second_id):
            continue
        first_pool = population.ordered_ids(fact.first.player)
        second_pool = population.ordered_ids(fact.second.player)
        # An empty lexical side draws from its lexical pool, whose
        # values are interned only as drawn, column by column.
        first_ids = second_ids = list
        if schema.object_type(fact.first.player).is_lexical and not first_pool:
            first_pool = _lexical_pool(schema, fact.first.player)
            first_ids = population.intern_all
        if schema.object_type(fact.second.player).is_lexical and not second_pool:
            second_pool = _lexical_pool(schema, fact.second.player)
            second_ids = population.intern_all
        if not first_pool or not second_pool:
            continue  # an empty non-lexical side gets no pairs
        # Totality by construction: a total many-to-many role pairs
        # every existing instance of its player at least once (the
        # mapper turns such roles into C_SUB$ view constraints, which
        # the validation harness checks on a *valid* state).
        if schema.is_total(first_id):
            population.add_fact_id_columns(
                fact.name,
                first_ids(first_pool),
                second_ids(rng.choices(second_pool, k=len(first_pool))),
            )
        if schema.is_total(second_id):
            population.add_fact_id_columns(
                fact.name,
                first_ids(rng.choices(first_pool, k=len(second_pool))),
                second_ids(second_pool),
            )
        population.add_fact_id_columns(
            fact.name,
            first_ids(rng.choices(first_pool, k=instances_per_type)),
            second_ids(rng.choices(second_pool, k=instances_per_type)),
        )
    return population


def estimated_rows_per_instance(schema: BinarySchema) -> int:
    """How many relational rows one instance-per-type step yields.

    Every root NOLOT becomes (roughly) one anchor row, and every
    many-to-many fact one link row, per ``instances_per_type`` step;
    subtype and satellite rows are fractions of those and are left as
    slack.  Good enough to size :func:`generate_bulk_population`.
    """
    roots = sum(
        1
        for t in schema.object_types
        if t.is_nolot and not schema.supertypes_of(t.name)
    )
    m2m = sum(
        1
        for fact in schema.fact_types
        if not schema.is_unique(fact.role_ids[0])
        and not schema.is_unique(fact.role_ids[1])
    )
    return max(1, roots + m2m)


def generate_bulk_population(
    schema: BinarySchema,
    *,
    target_rows: int,
    seed: int,
    optional_fill: float = 0.6,
) -> Population:
    """A valid population sized to map to ~``target_rows`` relational
    rows.

    The scale lever of the validation harness: ``target_rows`` is a
    forward-mapped row-count target (1e5–1e6 for the DuckDB runs),
    translated into ``instances_per_type`` via
    :func:`estimated_rows_per_instance`.  ``seed`` is mandatory —
    bulk runs exist to be reproduced.

    Like :func:`generate_population`, fails fast with the
    contradiction proofs when the schema is unsatisfiable.
    """
    require_satisfiable(schema)
    instances = max(2, target_rows // estimated_rows_per_instance(schema))
    with _obs_span(
        "workloads.generate_bulk_population",
        schema=schema.name,
        target_rows=target_rows,
        instances_per_type=instances,
        seed=seed,
    ):
        return _generate(schema, instances, optional_fill, seed)
