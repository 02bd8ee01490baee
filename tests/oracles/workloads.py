"""Value-level oracle for the population generator.

:func:`value_generate` keeps the generator body that
``repro.workloads.populations`` ran before it moved to id space: it
holds instance *values* in its plans (claimed subtype members, chosen
near instances, picked owners), reads types back through
``sorted_instances`` and adds everything through the value-level
``add_instances`` / ``add_facts``, which re-intern each column.
``tests/mapper/test_id_space_oracles.py`` asserts the id-space
generator builds identical populations from the same arguments, down
to the intern order.
"""

from __future__ import annotations

import random

from repro.brm.facts import RoleId
from repro.brm.population import Population
from repro.brm.schema import BinarySchema
from repro.brm.sublinks import SublinkRef
from repro.workloads.populations import _lexical_pool, _typed_filler


def value_generate(
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
    claimed: dict[str, set] = {}  # sublink -> claimed instances
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
            supers = population.sorted_instances(sublink.supertype)
            # One draw per candidate, batched; instances claimed by a
            # mutually-exclusive sibling sublink are blocked wholesale.
            draws = [rng.random() for _ in supers]
            blocked: set = set()
            for other, taken in claimed.items():
                if frozenset((sublink.name, other)) in excluded_sublinks:
                    blocked |= taken
            members = {
                instance
                for instance, draw in zip(supers, draws)
                if draw < 0.5 and instance not in blocked
            }
            claimed[sublink.name] = members
            population.add_instances(name, members)

    # 2. Functional facts, in three stages so the role subset/equality
    #    constraints between optional roles hold by construction:
    #    (a) plan which near instances fill each fact (mandatory roles
    #    always, optional ones with probability ``optional_fill``),
    #    (b) close the plan over role subset/equality constraints,
    #    (c) materialize fillers (unique far roles get distinct values).
    near_of: dict[str, RoleId] = {}
    chosen: dict[RoleId, set] = {}
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
            for instance in population.sorted_instances(near_role.player)
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
                population.sorted_instances(near_role.player)
            )
            if instance in members
        ]
        if not picked:
            continue
        # The whole filler column is built before a single pair lands
        # in the population, then added with one ``add_facts`` call —
        # filler auto-adds and ancestor propagation run once per fact
        # type instead of once per row.
        if far_unique:
            # Distinct per instance; a value-constrained far type
            # spends its allowed values first.
            spend_pool = schema.value_constraint_on(far_role.player) is not None
            tag = fact.name.lower()
            fillers = [
                pool[index]
                if spend_pool and index < len(pool)
                else _typed_filler(far_player.datatype, tag, index)
                for index, _ in picked
            ]
        elif far_player.is_nolot:
            far_existing = population.sorted_instances(far_role.player)
            fillers = (
                rng.choices(far_existing, k=len(picked))
                if far_existing
                else [f"{fact.name}_x"] * len(picked)
            )
        else:
            fillers = rng.choices(pool, k=len(picked))
        owners = [instance for _, instance in picked]
        if near_id == first_id:
            population.add_facts(fact.name, zip(owners, fillers))
        else:
            population.add_facts(fact.name, zip(fillers, owners))

    # 3. Many-to-many facts: a few random pairs per fact type.
    for fact in schema.fact_types:
        first_id, second_id = fact.role_ids
        if schema.is_unique(first_id) or schema.is_unique(second_id):
            continue
        first_pool = population.sorted_instances(fact.first.player)
        second_pool = population.sorted_instances(fact.second.player)
        if schema.object_type(fact.first.player).is_lexical and not first_pool:
            first_pool = _lexical_pool(schema, fact.first.player)
        if schema.object_type(fact.second.player).is_lexical and not second_pool:
            second_pool = _lexical_pool(schema, fact.second.player)
        if not first_pool or not second_pool:
            continue  # an empty non-lexical side gets no pairs
        # Totality by construction: a total many-to-many role pairs
        # every existing instance of its player at least once (the
        # mapper turns such roles into C_SUB$ view constraints, which
        # the validation harness checks on a *valid* state).
        if schema.is_total(first_id):
            population.add_facts(
                fact.name,
                zip(first_pool,
                    rng.choices(second_pool, k=len(first_pool))),
            )
        if schema.is_total(second_id):
            population.add_facts(
                fact.name,
                zip(rng.choices(first_pool, k=len(second_pool)),
                    second_pool),
            )
        population.add_facts(
            fact.name,
            zip(rng.choices(first_pool, k=instances_per_type),
                rng.choices(second_pool, k=instances_per_type)),
        )
    return population
