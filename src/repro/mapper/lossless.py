"""Materialize relation plans and generate the lossless rules.

The second half of the synthesis: relation plans become an actual
:class:`~repro.relational.schema.RelationalSchema`, and every binary
constraint is accounted for — consumed by the structure (NOT NULL,
keys), expressed as a classical constraint (candidate keys, foreign
keys, CHECKs), expressed as an extended view constraint (the
``C_EQ$`` / ``C_SUB$`` lossless rules most 1989 DBMSs could not
enforce), or degraded to a pseudo-SQL specification for the
application programmer.  All provenance for the map report is
recorded here.
"""

from __future__ import annotations

from repro.brm.concepts import (
    describe_fact,
    describe_object_type,
    describe_role,
    describe_sublink,
)
from repro.brm.constraints import (
    EqualityConstraint,
    ExclusionConstraint,
    FrequencyConstraint,
    SubsetConstraint,
    TotalUnionConstraint,
    UniquenessConstraint,
    ValueConstraint,
)
from repro.brm.facts import RoleId
from repro.mapper import naming
from repro.mapper.plan import (
    ColumnUnit,
    DisjunctLeaf,
    FactLeaf,
    RelationPlan,
    SelfLeaf,
    SublinkLeaf,
)
from repro.mapper.state import MappingState
from repro.mapper.synthesis import MappingPlan, PairLeaf, RoleLocation
from repro.robustness import faults
from repro.mapper.trace import Provenance, PseudoConstraint
from repro.relational.constraints import (
    CandidateKey,
    CheckConstraint,
    EqualityViewConstraint,
    ForeignKey,
    PrimaryKey,
    SelectSpec,
)
from repro.relational.predicates import (
    CONDITIONAL_EQUALITY,
    DEPENDENT_EXISTENCE,
    EQUAL_EXISTENCE,
    EXCLUSION,
    TOTAL_UNION,
    VALUE_RESTRICTION,
    Predicate,
    conditional_equality,
    dependent_existence,
    equal_existence,
    exclusion,
    indicator,
    presence,
    total_union,
    value_restriction,
)
from repro.relational.schema import (
    Attribute,
    Domain,
    Relation,
    RelationalSchema,
)
from repro.relational.constraints import SubsetViewConstraint


def materialize(
    state: MappingState, plan: MappingPlan
) -> tuple[RelationalSchema, Provenance]:
    """Build the generic relational schema from the plans."""
    rschema = RelationalSchema(plan.schema.name)
    provenance = Provenance()
    _materialize_relations(state, plan, rschema, provenance)
    _add_fact_foreign_keys(state, plan, rschema, provenance)
    _wire_sublinks(state, plan, rschema, provenance)
    faults.reach("materialize.constraints", state=state)
    _map_constraints(state, plan, rschema, provenance)
    _map_value_constraints(state, plan, rschema, provenance)
    _record_object_type_forward(plan, rschema, provenance)
    return rschema, provenance


# ----------------------------------------------------------------------
# Relations, domains, primary keys
# ----------------------------------------------------------------------


def _materialize_relations(
    state: MappingState,
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
) -> None:
    for relation_plan in plan.plans.values():
        attributes = []
        for unit in relation_plan.columns:
            domain = Domain(unit.domain_name, unit.datatype)
            rschema.add_domain(domain)
            provenance.add_domain(
                unit.domain_name,
                describe_object_type(plan.schema, unit.source.leaf.lot)
                if hasattr(unit.source, "leaf")
                else unit.domain_name,
            )
            attributes.append(
                Attribute(unit.name, unit.domain_name, nullable=unit.nullable)
            )
        rschema.add_relation(Relation(relation_plan.relation, tuple(attributes)))
        if relation_plan.key_columns:
            name = rschema.fresh_constraint_name(naming.KEY_STEM)
            rschema.add_constraint(
                PrimaryKey(
                    name,
                    relation=relation_plan.relation,
                    columns=relation_plan.key_columns,
                )
            )
            provenance.add_constraint(
                name, *_key_provenance(plan, relation_plan)
            )
        _record_column_provenance(plan, relation_plan, provenance)
        _record_table_provenance(plan, relation_plan, provenance)
        _record_fact_forward(plan, relation_plan, provenance)


def _key_provenance(plan: MappingPlan, relation_plan: RelationPlan) -> list[str]:
    concepts = []
    if relation_plan.owner is not None:
        for fact_name in plan.reference_facts.get(relation_plan.owner, ()):
            concepts.append(describe_fact(plan.schema, fact_name))
        if not concepts:
            concepts.append(
                describe_object_type(plan.schema, relation_plan.owner)
            )
    return concepts


def _record_column_provenance(
    plan: MappingPlan, relation_plan: RelationPlan, provenance: Provenance
) -> None:
    schema = plan.schema
    for unit in relation_plan.columns:
        source = unit.source
        if isinstance(source, SelfLeaf):
            concepts = [describe_object_type(schema, source.owner)]
            for component in source.leaf.path:
                concepts.append(describe_fact(schema, component.fact))
            provenance.add_column(relation_plan.relation, unit.name, *concepts)
        elif isinstance(source, (FactLeaf, DisjunctLeaf)):
            provenance.add_column(
                relation_plan.relation,
                unit.name,
                describe_fact(schema, source.fact),
                describe_role(schema, RoleId(source.fact, source.far_role)),
            )
        elif isinstance(source, SublinkLeaf):
            provenance.add_column(
                relation_plan.relation,
                unit.name,
                describe_sublink(schema, source.sublink),
            )
        elif isinstance(source, PairLeaf):
            provenance.add_column(
                relation_plan.relation,
                unit.name,
                describe_fact(schema, source.fact),
                describe_role(schema, RoleId(source.fact, source.role)),
            )


def _record_table_provenance(
    plan: MappingPlan, relation_plan: RelationPlan, provenance: Provenance
) -> None:
    schema = plan.schema
    concepts: list[str] = []
    if relation_plan.owner is not None:
        concepts.append(describe_object_type(schema, relation_plan.owner))
    facts_seen = set()
    for unit in relation_plan.columns:
        source = unit.source
        if isinstance(source, (FactLeaf, DisjunctLeaf, PairLeaf)):
            if source.fact not in facts_seen:
                facts_seen.add(source.fact)
                concepts.append(describe_fact(schema, source.fact))
        elif isinstance(source, SublinkLeaf):
            concepts.append(describe_sublink(schema, source.sublink))
    if relation_plan.owner is not None:
        for fact_name in plan.reference_facts.get(relation_plan.owner, ()):
            if fact_name not in facts_seen:
                concepts.append(describe_fact(schema, fact_name))
    provenance.add_table(relation_plan.relation, *concepts)


def _record_fact_forward(
    plan: MappingPlan, relation_plan: RelationPlan, provenance: Provenance
) -> None:
    """Forward-map entries for every fact visible in this relation."""
    schema = plan.schema
    facts: dict[str, list[ColumnUnit]] = {}
    for unit in relation_plan.columns:
        if isinstance(unit.source, (FactLeaf, DisjunctLeaf, PairLeaf)):
            facts.setdefault(unit.source.fact, []).append(unit)
    for fact_name, units in facts.items():
        value_columns = [u.name for u in units]
        if relation_plan.kind == "fact":
            columns = ", ".join(value_columns)
            text = f"SELECT {columns}\nFROM {relation_plan.relation}"
        else:
            key = ", ".join(relation_plan.key_columns)
            columns = ", ".join(value_columns)
            text = f"SELECT {key} , {columns}\nFROM {relation_plan.relation}"
            nullable = [u.name for u in units if u.nullable]
            if nullable:
                conditions = " AND ".join(
                    f"( {name} IS NOT NULL )" for name in nullable
                )
                text += f"\nWHERE {conditions}"
        provenance.add_forward(describe_fact(schema, fact_name), text)
    if relation_plan.owner is not None:
        key = ", ".join(relation_plan.key_columns)
        for fact_name in plan.reference_facts.get(relation_plan.owner, ()):
            if relation_plan.kind == "anchor":
                provenance.add_forward(
                    describe_fact(schema, fact_name),
                    f"SELECT {key}\nFROM {relation_plan.relation}",
                )


# ----------------------------------------------------------------------
# Foreign keys for fact columns and references through NOLOTs
# ----------------------------------------------------------------------


def _add_fact_foreign_keys(
    state: MappingState,
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
) -> None:
    schema = plan.schema
    for relation_plan in plan.plans.values():
        groups: dict[tuple[str, str], list[tuple[ColumnUnit, object]]] = {}
        for unit in relation_plan.columns:
            source = unit.source
            if isinstance(source, FactLeaf):
                target = schema.fact_type(source.fact).player_of(source.far_role)
                groups.setdefault((source.fact, target), []).append((unit, source))
            elif isinstance(source, PairLeaf):
                groups.setdefault(
                    (f"{source.fact}#{source.side}", source.player), []
                ).append((unit, source))
        for (tag, target), pairs in groups.items():
            self_reference = (
                relation_plan.owner == target
                and plan.anchor_of.get(target) == relation_plan.relation
            )
            _foreign_key_to_anchor(
                plan,
                rschema,
                provenance,
                relation_plan.relation,
                tuple(unit.name for unit, _ in pairs),
                target,
                describe_fact(schema, tag.split("#")[0]),
                allow_self=self_reference,
            )
        # The owner's reference may pass through another NOLOT: the key
        # columns then reference that NOLOT's relation.
        if relation_plan.kind == "anchor" and relation_plan.owner is not None:
            owner = relation_plan.owner
            if owner in plan.disjunctive:
                continue
            if not plan.resolver.is_referable(owner):
                continue
            scheme = plan.resolver.chosen_scheme(owner)
            if scheme.kind == "simple" and len(scheme.components) == 1:
                target = scheme.components[0].target
                if not schema.object_type(target).is_nolot:
                    continue
                _foreign_key_to_anchor(
                    plan,
                    rschema,
                    provenance,
                    relation_plan.relation,
                    relation_plan.key_columns,
                    target,
                    describe_fact(schema, scheme.components[0].fact),
                )
        if relation_plan.kind == "satellite" and relation_plan.owner is not None:
            _foreign_key_to_anchor(
                plan,
                rschema,
                provenance,
                relation_plan.relation,
                relation_plan.key_columns,
                relation_plan.owner,
                describe_object_type(schema, relation_plan.owner),
            )


def _foreign_key_to_anchor(
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
    relation: str,
    columns: tuple[str, ...],
    target_type: str,
    concept: str,
    *,
    allow_self: bool = True,
) -> None:
    anchor = plan.anchor_of.get(target_type)
    if anchor is None:
        return
    target_plan = plan.plans[anchor]
    if len(target_plan.key_columns) != len(columns):
        return
    if anchor == relation and tuple(columns) == tuple(target_plan.key_columns):
        return  # a key trivially references itself
    if not allow_self and anchor == relation:
        return
    name = rschema.fresh_constraint_name(naming.FOREIGN_KEY_STEM)
    rschema.add_constraint(
        ForeignKey(
            name,
            relation=relation,
            columns=columns,
            referenced_relation=anchor,
            referenced_columns=target_plan.key_columns,
        )
    )
    provenance.add_constraint(name, concept)


# ----------------------------------------------------------------------
# Sublink wiring: FKs, `_Is` candidate keys, C_EQ$ lossless rules
# ----------------------------------------------------------------------


def _wire_sublinks(
    state: MappingState,
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
) -> None:
    schema = plan.schema
    for repr_ in plan.sublink_reprs.values():
        sublink_concept = describe_sublink(schema, repr_.sublink)
        super_relation = plan.anchor_of[repr_.supertype]
        super_plan = plan.plans[super_relation]
        if repr_.style == "is-columns":
            ck_name = rschema.fresh_constraint_name(naming.KEY_STEM)
            rschema.add_constraint(
                CandidateKey(
                    ck_name, relation=super_relation, columns=repr_.is_columns
                )
            )
            provenance.add_constraint(ck_name, sublink_concept)
            if repr_.sub_relation is not None:
                sub_plan = plan.plans[repr_.sub_relation]
                fk_name = rschema.fresh_constraint_name(naming.FOREIGN_KEY_STEM)
                rschema.add_constraint(
                    ForeignKey(
                        fk_name,
                        relation=repr_.sub_relation,
                        columns=sub_plan.key_columns,
                        referenced_relation=super_relation,
                        referenced_columns=repr_.is_columns,
                    )
                )
                provenance.add_constraint(fk_name, sublink_concept)
                eq_name = rschema.fresh_constraint_name(naming.EQUALITY_VIEW_STEM)
                constraint = EqualityViewConstraint(
                    eq_name,
                    left=SelectSpec(repr_.sub_relation, sub_plan.key_columns),
                    right=SelectSpec(
                        super_relation,
                        repr_.is_columns,
                        where=presence(repr_.is_columns),
                    ),
                    comment="sub-relation membership equals the non-NULL "
                    "sublink attribute",
                )
                rschema.add_constraint(constraint)
                provenance.add_constraint(
                    eq_name,
                    describe_object_type(schema, repr_.subtype),
                    sublink_concept,
                    *(
                        total.describe(schema)
                        for total in schema.total_constraints_on(repr_.subtype)
                    ),
                )
                state.record(
                    "sublink-lossless-rule",
                    "relational-relational",
                    repr_.sublink,
                    "equality view ties the sub-relation to the sublink "
                    "attribute",
                    (eq_name,),
                )
            provenance.add_forward(
                sublink_concept,
                f"SELECT {', '.join(repr_.is_columns)} , "
                f"{', '.join(super_plan.key_columns)}\nFROM {super_relation}\n"
                f"WHERE "
                + " AND ".join(
                    f"( {c} IS NOT NULL )" for c in repr_.is_columns
                ),
            )
        else:  # foreign-key style
            if repr_.sub_relation is not None:
                sub_plan = plan.plans[repr_.sub_relation]
                fk_name = rschema.fresh_constraint_name(naming.FOREIGN_KEY_STEM)
                rschema.add_constraint(
                    ForeignKey(
                        fk_name,
                        relation=repr_.sub_relation,
                        columns=sub_plan.key_columns,
                        referenced_relation=super_relation,
                        referenced_columns=super_plan.key_columns,
                    )
                )
                provenance.add_constraint(fk_name, sublink_concept)
                provenance.add_forward(
                    sublink_concept,
                    f"SELECT {', '.join(sub_plan.key_columns)}\n"
                    f"FROM {repr_.sub_relation}",
                )
            elif repr_.indicator_column is not None:
                provenance.add_forward(
                    sublink_concept,
                    f"SELECT {', '.join(super_plan.key_columns)}\n"
                    f"FROM {super_relation}\n"
                    f"WHERE {indicator(repr_.indicator_column).render()}",
                )
        _add_conditional_equality(
            state, plan, rschema, provenance, repr_, super_relation
        )


def _add_conditional_equality(
    state: MappingState,
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
    repr_,
    super_relation: str,
) -> None:
    """The INDICATOR policy's conditional equality constraint."""
    if repr_.indicator_column is None:
        return
    schema = plan.schema
    flag = repr_.indicator_column
    sublink_concept = describe_sublink(schema, repr_.sublink)
    if repr_.style == "is-columns":
        leg = repr_.is_columns[0]
        name = rschema.fresh_constraint_name(naming.EQUALITY_VIEW_STEM)
        rschema.add_constraint(
            CheckConstraint(
                name,
                relation=super_relation,
                predicate=conditional_equality(flag, leg),
                comment=CONDITIONAL_EQUALITY,
            )
        )
        provenance.add_constraint(name, sublink_concept)
        state.record(
            "conditional-equality",
            "relational-relational",
            repr_.sublink,
            f"indicator {flag!r} tied to sublink attribute {leg!r}",
            (name,),
        )
    elif repr_.sub_relation is not None:
        sub_plan = plan.plans[repr_.sub_relation]
        super_plan = plan.plans[super_relation]
        name = rschema.fresh_constraint_name(naming.EQUALITY_VIEW_STEM)
        rschema.add_constraint(
            EqualityViewConstraint(
                name,
                left=SelectSpec(
                    super_relation,
                    super_plan.key_columns,
                    where=indicator(flag),
                ),
                right=SelectSpec(repr_.sub_relation, sub_plan.key_columns),
                comment=CONDITIONAL_EQUALITY,
            )
        )
        provenance.add_constraint(name, sublink_concept)
        state.record(
            "conditional-equality",
            "relational-relational",
            repr_.sublink,
            f"indicator {flag!r} tied to the sub-relation rows",
            (name,),
        )


# ----------------------------------------------------------------------
# Remaining binary constraints
# ----------------------------------------------------------------------


def _item_location(
    plan: MappingPlan, item: object
) -> RoleLocation | None:
    """Locate a constraint item (role or sublink) in the relational
    schema, in terms of the owning family's key columns."""
    if isinstance(item, RoleId):
        return plan.role_locations.get(item)
    from repro.brm.sublinks import SublinkRef

    if isinstance(item, SublinkRef):
        repr_ = plan.sublink_reprs.get(item.sublink)
        if repr_ is None:
            return None
        super_relation = plan.anchor_of[repr_.supertype]
        if repr_.indicator_column is not None and repr_.style != "is-columns":
            super_plan = plan.plans[super_relation]
            return RoleLocation(
                super_relation,
                super_plan.key_columns,
                (repr_.indicator_column,),  # non-NULL is not enough; handled below
            )
        if repr_.style == "is-columns":
            return RoleLocation(
                super_relation, repr_.is_columns, repr_.is_columns
            )
        if repr_.sub_relation is not None:
            sub_plan = plan.plans[repr_.sub_relation]
            return RoleLocation(repr_.sub_relation, sub_plan.key_columns, ())
    return None


def _item_presence(
    plan: MappingPlan, item: object, location: RoleLocation
) -> Predicate | None:
    """Presence predicate, handling indicator flags specially."""
    from repro.brm.sublinks import SublinkRef

    if isinstance(item, SublinkRef):
        repr_ = plan.sublink_reprs.get(item.sublink)
        if repr_ is not None and repr_.indicator_column is not None and (
            repr_.style != "is-columns"
        ):
            return indicator(repr_.indicator_column)
    return presence(location.presence)


def _map_constraints(
    state: MappingState,
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
) -> None:
    schema = plan.schema
    consumed_reference_facts = {
        fact for facts in plan.reference_facts.values() for fact in facts
    }
    for constraint in schema.constraints:
        if isinstance(constraint, UniquenessConstraint):
            _map_uniqueness(
                state, plan, rschema, provenance, constraint,
                consumed_reference_facts,
            )
        elif isinstance(constraint, TotalUnionConstraint):
            _map_total(state, plan, rschema, provenance, constraint)
        elif isinstance(constraint, ExclusionConstraint):
            _map_exclusion(state, plan, rschema, provenance, constraint)
        elif isinstance(constraint, EqualityConstraint):
            _map_equality(state, plan, rschema, provenance, constraint)
        elif isinstance(constraint, SubsetConstraint):
            _map_subset(state, plan, rschema, provenance, constraint)
        elif isinstance(constraint, FrequencyConstraint):
            state.pseudo_constraints.append(
                PseudoConstraint(
                    constraint.name,
                    "FREQUENCY constraint has no relational counterpart: "
                    + constraint.describe(schema),
                    (constraint.describe(schema),),
                )
            )
            provenance.add_forward(
                constraint.describe(schema),
                "-- pseudo-SQL specification (not enforceable in the "
                "target DBMS)",
            )


def _map_uniqueness(
    state: MappingState,
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
    constraint: UniquenessConstraint,
    consumed_reference_facts: set[str],
) -> None:
    schema = plan.schema
    concept = constraint.describe(schema)
    if constraint.is_simple:
        role_id = constraint.roles[0]
        fact_name = role_id.fact
        if fact_name in consumed_reference_facts:
            # Consumed by a naming convention: visible as the primary
            # key (or a disjunct candidate key) of the anchor.
            location = plan.role_locations.get(role_id)
            if location is not None:
                key_name = _ensure_key(
                    plan, rschema, provenance, location, concept
                )
                provenance.add_forward(
                    concept,
                    f"UNIQUE ( {', '.join(location.columns)} )\n"
                    f"   ON {location.relation}\nCONSTRAINT {key_name}",
                )
            return
        owner = plan.placed_owner.get(fact_name)
        location = plan.role_locations.get(role_id)
        if location is None:
            return
        if owner == role_id:
            # Functional grouping consumed it: one row per instance.
            provenance.add_forward(
                concept,
                f"-- consumed: at most one row per key in "
                f"{location.relation}",
            )
            return
        # Uniqueness on the far side of a placed fact, or on one side
        # of a fact relation: a candidate key over its columns.
        key_name = _ensure_key(plan, rschema, provenance, location, concept)
        provenance.add_forward(
            concept,
            f"UNIQUE ( {', '.join(location.columns)} )\n"
            f"   ON {location.relation}\nCONSTRAINT {key_name}",
        )
        return
    # External / pair uniqueness.
    locations = [plan.role_locations.get(r) for r in constraint.roles]
    if any(l is None for l in locations):
        return
    relations = {l.relation for l in locations}
    if len(relations) == 1:
        seen: list[str] = []
        for location in locations:
            for column in location.columns:
                if column not in seen:
                    seen.append(column)
        columns = tuple(seen)
        relation = locations[0].relation
        if tuple(plan.plans[relation].key_columns) == columns:
            provenance.add_forward(
                concept, f"-- consumed: primary key of {relation}"
            )
            return
        location = RoleLocation(relation, columns, ())
        key_name = _ensure_key(plan, rschema, provenance, location, concept)
        provenance.add_forward(
            concept,
            f"UNIQUE ( {', '.join(columns)} )\n   ON {relation}\n"
            f"CONSTRAINT {key_name}",
        )
    else:
        state.pseudo_constraints.append(
            PseudoConstraint(
                constraint.name,
                f"external uniqueness spans relations {sorted(relations)!r}; "
                "enforce in application code: " + concept,
                (concept,),
            )
        )


def _ensure_key(
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
    location: RoleLocation,
    concept: str,
) -> str:
    """Add a candidate key over the columns unless one already exists."""
    existing = rschema.primary_key(location.relation)
    if existing is not None and existing.columns == location.columns:
        provenance.add_constraint(existing.name, concept)
        return existing.name
    for candidate in rschema.candidate_keys(location.relation):
        if candidate.columns == location.columns:
            provenance.add_constraint(candidate.name, concept)
            return candidate.name
    name = rschema.fresh_constraint_name(naming.KEY_STEM)
    rschema.add_constraint(
        CandidateKey(name, relation=location.relation, columns=location.columns)
    )
    provenance.add_constraint(name, concept)
    return name


def _map_total(
    state: MappingState,
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
    constraint: TotalUnionConstraint,
) -> None:
    schema = plan.schema
    concept = constraint.describe(schema)
    anchor_relation = plan.anchor_of.get(constraint.object_type)
    if constraint.is_total_role:
        role_id = constraint.items[0]
        location = plan.role_locations.get(role_id)
        if location is None:
            return
        if not location.presence and location.relation == anchor_relation:
            # Consumed: NOT NULL columns in the anchor.  Report the
            # value columns of the fact (the co-role's location) — the
            # columns that actually became NOT NULL.
            co_location = plan.role_locations.get(
                schema.co_role_id(role_id), location
            )
            provenance.add_forward(
                concept,
                f"NOT NULL ( {', '.join(co_location.columns)} ) ON "
                f"{co_location.relation}",
            )
            return
        if not location.presence and anchor_relation is not None:
            # The role lives in a satellite or fact relation: totality
            # becomes an inclusion of the anchor keys in that relation.
            anchor_plan = plan.plans[anchor_relation]
            name = rschema.fresh_constraint_name(naming.SUBSET_VIEW_STEM)
            rschema.add_constraint(
                SubsetViewConstraint(
                    name,
                    subset=SelectSpec(anchor_relation, anchor_plan.key_columns),
                    superset=SelectSpec(location.relation, location.columns),
                    comment="total role",
                )
            )
            provenance.add_constraint(name, concept)
            provenance.add_forward(concept, f"VIEW CONSTRAINT {name}")
            state.record(
                "total-role-view",
                "relational-relational",
                constraint.name,
                f"total role on {constraint.object_type!r} kept as a "
                "subset view",
                (name,),
            )
            return
        provenance.add_forward(concept, "-- consumed by grouping")
        return
    # Total union over several items.
    locations = [_item_location(plan, item) for item in constraint.items]
    if any(l is None for l in locations):
        _degrade_total(state, provenance, constraint, concept)
        return
    relations = {l.relation for l in locations}
    presences = tuple(
        _item_presence(plan, item, location)
        for item, location in zip(constraint.items, locations)
    )
    if relations == {anchor_relation} and None not in presences:
        name = rschema.fresh_constraint_name(naming.CHECK_STEM)
        check = CheckConstraint(
            name, anchor_relation, total_union(presences), TOTAL_UNION
        )
        _add_check(
            state, rschema, provenance, constraint, concept, check,
            "total-union-check",
            "total union mapped to a CHECK on the anchor relation",
        )
        return
    _degrade_total(state, provenance, constraint, concept)


def _add_check(
    state: MappingState,
    rschema: RelationalSchema,
    provenance: Provenance,
    constraint,
    concept: str,
    check: CheckConstraint,
    rule: str,
    detail: str,
) -> None:
    """Add one lossless-rule CHECK with its provenance and trace step."""
    rschema.add_constraint(check)
    provenance.add_constraint(check.name, concept)
    provenance.add_forward(concept, f"CHECK {check.predicate.render()}")
    state.record(
        rule, "relational-relational", constraint.name, detail, (check.name,)
    )


def _degrade_total(
    state: MappingState,
    provenance: Provenance,
    constraint: TotalUnionConstraint,
    concept: str,
) -> None:
    state.pseudo_constraints.append(
        PseudoConstraint(
            constraint.name,
            "TOTAL UNION spans several relations; enforce in application "
            "code: " + concept,
            (concept,),
        )
    )
    provenance.add_forward(concept, "-- pseudo-SQL specification")


def _pairwise_same_relation(
    plan: MappingPlan, items: tuple
) -> tuple[str, tuple[Predicate, ...]] | None:
    """When all items live in one relation with real presence
    predicates, return (relation, presence predicates)."""
    locations = [_item_location(plan, item) for item in items]
    if any(l is None for l in locations):
        return None
    relations = {l.relation for l in locations}
    presences = tuple(
        _item_presence(plan, item, location)
        for item, location in zip(items, locations)
    )
    if len(relations) != 1 or None in presences:
        return None
    return relations.pop(), presences


def _map_exclusion(
    state: MappingState,
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
    constraint: ExclusionConstraint,
) -> None:
    schema = plan.schema
    concept = constraint.describe(schema)
    same = _pairwise_same_relation(plan, constraint.items)
    if same is not None:
        relation, predicates = same
        name = rschema.fresh_constraint_name(naming.CHECK_STEM)
        check = CheckConstraint(name, relation, exclusion(predicates), EXCLUSION)
        _add_check(
            state, rschema, provenance, constraint, concept, check,
            "exclusion-check", "exclusion mapped to a CHECK",
        )
        return
    state.pseudo_constraints.append(
        PseudoConstraint(
            constraint.name,
            "EXCLUSION spans several relations; enforce in application "
            "code: " + concept,
            (concept,),
        )
    )
    provenance.add_forward(concept, "-- pseudo-SQL specification")


def _map_equality(
    state: MappingState,
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
    constraint: EqualityConstraint,
) -> None:
    schema = plan.schema
    concept = constraint.describe(schema)
    same = _pairwise_same_relation(plan, constraint.items)
    if same is not None:
        relation, predicates = same
        name = rschema.fresh_constraint_name(naming.EQUAL_EXISTENCE_STEM)
        check = CheckConstraint(
            name, relation, equal_existence(predicates), EQUAL_EXISTENCE
        )
        _add_check(
            state, rschema, provenance, constraint, concept, check,
            "equal-existence", "role equality mapped to an Equal Existence CHECK",
        )
        return
    # Cross-relation: equality view over the instance sets.
    locations = [_item_location(plan, item) for item in constraint.items]
    if any(l is None for l in locations):
        return
    previous = locations[0]
    previous_presence = _item_presence(plan, constraint.items[0], previous)
    names = []
    for item, location in zip(constraint.items[1:], locations[1:]):
        name = rschema.fresh_constraint_name(naming.EQUALITY_VIEW_STEM)
        rschema.add_constraint(
            EqualityViewConstraint(
                name,
                left=SelectSpec(
                    previous.relation,
                    previous.columns,
                    where=previous_presence,
                ),
                right=SelectSpec(
                    location.relation,
                    location.columns,
                    where=_item_presence(plan, item, location),
                ),
                comment="role equality",
            )
        )
        provenance.add_constraint(name, concept)
        names.append(name)
    provenance.add_forward(
        concept, "EQUALITY VIEW CONSTRAINT " + ", ".join(names)
    )
    state.record(
        "equality-view",
        "relational-relational",
        constraint.name,
        "role equality kept as equality view constraint(s)",
        tuple(names),
    )


def _map_subset(
    state: MappingState,
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
    constraint: SubsetConstraint,
) -> None:
    schema = plan.schema
    concept = constraint.describe(schema)
    sub_location = _item_location(plan, constraint.subset)
    super_location = _item_location(plan, constraint.superset)
    if sub_location is None or super_location is None:
        return
    sub_presence = _item_presence(plan, constraint.subset, sub_location)
    super_presence = _item_presence(plan, constraint.superset, super_location)
    if (
        sub_location.relation == super_location.relation
        and sub_presence is not None
    ):
        if super_presence is None:
            provenance.add_forward(
                concept, "-- consumed: superset role covers every row"
            )
            return
        name = rschema.fresh_constraint_name(naming.DEPENDENT_EXISTENCE_STEM)
        check = CheckConstraint(
            name,
            sub_location.relation,
            dependent_existence(sub_presence, super_presence),
            DEPENDENT_EXISTENCE,
        )
        _add_check(
            state, rschema, provenance, constraint, concept, check,
            "dependent-existence",
            "role subset mapped to a Dependent Existence CHECK",
        )
        return
    name = rschema.fresh_constraint_name(naming.SUBSET_VIEW_STEM)
    rschema.add_constraint(
        SubsetViewConstraint(
            name,
            subset=SelectSpec(
                sub_location.relation, sub_location.columns, where=sub_presence
            ),
            superset=SelectSpec(
                super_location.relation,
                super_location.columns,
                where=super_presence,
            ),
            comment="role subset",
        )
    )
    provenance.add_constraint(name, concept)
    provenance.add_forward(concept, f"SUBSET VIEW CONSTRAINT {name}")
    state.record(
        "subset-view",
        "relational-relational",
        constraint.name,
        "role subset kept as a subset view constraint",
        (name,),
    )


def _map_value_constraints(
    state: MappingState,
    plan: MappingPlan,
    rschema: RelationalSchema,
    provenance: Provenance,
) -> None:
    schema = plan.schema
    # Plan columns by the LOT of their lexical leaf, in plan order.
    columns_by_lot: dict[str, list] = {}
    for relation_plan in plan.plans.values():
        for unit in relation_plan.columns:
            leaf = getattr(unit.source, "leaf", None)
            if leaf is not None:
                columns_by_lot.setdefault(leaf.lot, []).append(
                    (relation_plan.relation, unit)
                )
    for constraint in schema.constraints:
        if not isinstance(constraint, ValueConstraint):
            continue
        concept = constraint.describe(schema)
        for relation, unit in columns_by_lot.get(constraint.object_type, ()):
            name = rschema.fresh_constraint_name(naming.VALUE_STEM)
            predicate = value_restriction(
                unit.name, constraint.values, unit.nullable
            )
            rschema.add_constraint(
                CheckConstraint(
                    name,
                    relation=relation,
                    predicate=predicate,
                    comment=VALUE_RESTRICTION,
                )
            )
            provenance.add_constraint(name, concept)
            provenance.add_forward(concept, f"CHECK {predicate.render()}")


def _record_object_type_forward(
    plan: MappingPlan, rschema: RelationalSchema, provenance: Provenance
) -> None:
    schema = plan.schema
    for object_type in schema.object_types:
        anchor = plan.anchor_of.get(object_type.name)
        if anchor is None:
            continue
        key = ", ".join(plan.plans[anchor].key_columns)
        provenance.add_forward(
            describe_object_type(schema, object_type.name),
            f"SELECT {key}\nFROM {anchor}",
        )
