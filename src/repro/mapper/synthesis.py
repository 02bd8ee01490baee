"""Binary-to-relational and relational-to-relational synthesis.

This module realizes steps the paper describes as the second and
third kinds of basic schema transformations (section 4.1): the
canonical binary schema is turned into relation *plans* — grouping
the functional fact types of each object type into an anchor relation
(one join step per fact, recorded in the trace), splitting optional
facts into satellites under the NULL NOT ALLOWED policy, creating one
relation per many-to-many fact type, and wiring sublinks according to
their mapping option.  The plans are then materialized into a
:class:`~repro.relational.schema.RelationalSchema` with keys, foreign
keys, CHECK constraints and the extended view constraints (lossless
rules).

The plans double as the definition of the composite state mapping
(:mod:`repro.mapper.state_map`) and carry all provenance for the map
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analyzer.referability import resolver_for
from repro.brm.facts import FactType, RoleId
from repro.brm.indexes import indexes_for
from repro.brm.reference import LexicalLeaf, ReferenceResolver
from repro.brm.schema import BinarySchema
from repro.errors import MappingError, NotReferableError
from repro.mapper import naming
from repro.mapper.options import MappingOptions, NullPolicy, SublinkPolicy
from repro.mapper.plan import (
    AllInstances,
    ColumnUnit,
    DisjunctLeaf,
    FactLeaf,
    FactPairs,
    RelationPlan,
    RolePlayers,
    SelfLeaf,
    SublinkLeaf,
)
from repro.mapper.state import MappingState


@dataclass(frozen=True)
class PairLeaf:
    """Column source for many-to-many fact relations: one lexical leg
    of the player of ``side`` (0 = first role, 1 = second role)."""

    fact: str
    side: int
    role: str
    player: str
    leaf: LexicalLeaf


@dataclass(frozen=True)
class RoleLocation:
    """Where a role's population is visible in the relational schema.

    ``columns`` denote the instance set of the role's player;
    ``presence`` are the columns whose non-NULLness marks that the
    instance actually plays the role (empty tuple = every row counts).
    """

    relation: str
    columns: tuple[str, ...]
    presence: tuple[str, ...] = ()


@dataclass(frozen=True)
class DisjunctiveScheme:
    """A non-homogeneous reference (NULL ALLOWED): the owner is
    identified by whichever of the ``facts`` is present."""

    owner: str
    facts: tuple[str, ...]  # identifying fact names, in schema order
    union_constraint: str


@dataclass(frozen=True)
class SublinkRepresentation:
    """How one surviving sublink is expressed relationally."""

    sublink: str
    subtype: str
    supertype: str
    style: str  # "foreign-key" | "is-columns"
    sub_relation: str | None
    is_columns: tuple[str, ...] = ()  # in the super relation
    indicator_column: str | None = None  # in the super relation
    indicator_fact: str | None = None  # the synthesized membership fact


@dataclass
class MappingPlan:
    """Everything the synthesis decided, before materialization."""

    schema: BinarySchema  # the canonical binary schema
    resolver: ReferenceResolver
    options: MappingOptions
    plans: dict[str, RelationPlan] = field(default_factory=dict)
    anchor_of: dict[str, str] = field(default_factory=dict)
    role_locations: dict[RoleId, RoleLocation] = field(default_factory=dict)
    sublink_reprs: dict[str, SublinkRepresentation] = field(default_factory=dict)
    disjunctive: dict[str, DisjunctiveScheme] = field(default_factory=dict)
    reference_facts: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: fact name -> the role whose anchor relation hosts the columns
    placed_owner: dict[str, RoleId] = field(default_factory=dict)

    def plan_for(self, relation: str) -> RelationPlan:
        """The relation plan by name."""
        return self.plans[relation]

    def snapshot(self) -> "MappingPlan":
        """A cheap restore point for the relational-option phases.

        The option phases (:mod:`repro.mapper.relational_relational`)
        mutate the plan by *replacing* entries in these dicts with
        freshly built immutable values, never by mutating a stored
        ``RelationPlan``/``RoleLocation`` in place — so copying the
        dicts (and the canonical schema, which combine may extend
        with lossless-rule constraints) is a full restore point at a
        fraction of a ``deepcopy``'s cost.  The resolver is shared:
        it memoizes pure reference lookups.
        """
        return MappingPlan(
            schema=self.schema.copy(),
            resolver=self.resolver,
            options=self.options,
            plans=dict(self.plans),
            anchor_of=dict(self.anchor_of),
            role_locations=dict(self.role_locations),
            sublink_reprs=dict(self.sublink_reprs),
            disjunctive=dict(self.disjunctive),
            reference_facts=dict(self.reference_facts),
            placed_owner=dict(self.placed_owner),
        )


# ----------------------------------------------------------------------
# Plan building
# ----------------------------------------------------------------------


def build_plan(state: MappingState) -> MappingPlan:
    """Derive the relation plans from the canonical binary schema."""
    schema = state.schema
    preferences = state.options.preferences_dict()
    if state.options.null_policy in (
        NullPolicy.NOT_ALLOWED,
        NullPolicy.NOT_IN_KEYS,
    ):
        # A sublink stored as a nullable `_Is` attribute (or a nullable
        # candidate key) would violate the no-nulls policies; key the
        # sub-relation by the inherited reference instead, making the
        # sublink a plain NOT NULL foreign key and the subtype's own
        # identifier an ordinary mandatory candidate-key column.
        for sublink in schema.sublinks:
            if sublink.subtype not in preferences:
                preferences[sublink.subtype] = (f"via:{sublink.name}",)
    resolver = resolver_for(schema, preferences)
    plan = MappingPlan(schema=schema, resolver=resolver, options=state.options)
    _detect_disjunctive(state, plan)
    _check_referability(state, plan)
    _record_reference_facts(plan)
    _assign_fact_owners(plan)

    for type_name in _anchor_types(plan):
        _build_anchor(state, plan, type_name)
    _build_sublink_wiring(state, plan)
    consumed = {
        fact for facts in plan.reference_facts.values() for fact in facts
    }
    for fact in schema.fact_types:
        if fact.name in consumed or fact.name in plan.placed_owner:
            continue
        _build_fact_relation(state, plan, fact)
    return plan


def _assign_fact_owners(plan: MappingPlan) -> None:
    """Decide which anchor hosts each functional fact's columns.

    A side can host when its role carries a uniqueness bar and its
    player is non-lexical (or a hybrid) — i.e. the player receives an
    anchor relation.  For 1:1 fact types the total side is preferred,
    so the column is NOT NULL where possible.  Facts consumed by a
    naming convention are not placed at all (they form primary keys).
    """
    from repro.brm.objects import ObjectKind

    schema = plan.schema
    consumed = {
        fact for facts in plan.reference_facts.values() for fact in facts
    }
    for fact in schema.fact_types:
        if fact.name in consumed:
            continue
        candidates = []
        for role_id in fact.role_ids:
            player = schema.player(role_id)
            if player.kind is ObjectKind.LOT:
                continue
            if player.name in plan.disjunctive:
                continue
            if schema.is_unique(role_id):
                candidates.append(role_id)
        if not candidates:
            continue  # many-to-many: separate fact relation
        totals = [r for r in candidates if schema.is_total(r)]
        plan.placed_owner[fact.name] = (totals or candidates)[0]


def _anchor_types(plan: MappingPlan) -> list[str]:
    """Object types that receive an anchor relation, supertypes first.

    A type is anchored when it is a pure NOLOT, or a LOT-NOLOT with
    functional facts of its own; LOTs never anchor.
    """
    schema = plan.schema
    anchored = []
    for object_type in schema.object_types:
        name = object_type.name
        if not schema.has_object_type(name):  # pragma: no cover - defensive
            continue
        from repro.brm.objects import ObjectKind

        if object_type.kind is ObjectKind.LOT:
            continue
        has_functional = bool(_own_functional_roles(plan, name))
        if object_type.kind is ObjectKind.LOT_NOLOT and not has_functional:
            continue
        if object_type.is_nolot and not has_functional and not (
            schema.sublinks_from(name) or schema.sublinks_to(name)
        ):
            # An isolated NOLOT carries nothing; the analyzer warned.
            continue
        if object_type.is_nolot and not has_functional:
            # Factless subtype: anchored under SEPARATE, omitted under
            # INDICATOR (the indicator fact carries the membership).
            sublinks = schema.sublinks_from(name)
            if sublinks and all(
                plan.options.policy_for(s.name) is SublinkPolicy.INDICATOR
                for s in sublinks
            ) and not schema.sublinks_to(name):
                continue
        anchored.append(name)
    # Supertypes before subtypes so foreign keys and the backwards
    # state map can resolve top-down.
    return sorted(
        anchored, key=lambda name: len(schema.ancestors_of(name))
    )


def _own_functional_roles(plan: MappingPlan, type_name: str) -> list[RoleId]:
    """Functional roles of the type, reference facts included."""
    return plan.schema.functional_roles_of(type_name)


def _record_reference_facts(plan: MappingPlan) -> None:
    """Remember which facts are consumed by each type's chosen scheme."""
    for object_type in plan.schema.object_types:
        name = object_type.name
        if name in plan.disjunctive:
            plan.reference_facts[name] = plan.disjunctive[name].facts
            continue
        if not plan.resolver.is_referable(name):
            continue
        scheme = plan.resolver.chosen_scheme(name)
        if scheme.kind in ("simple", "compound"):
            plan.reference_facts[name] = tuple(
                component.fact for component in scheme.components
            )
        else:
            plan.reference_facts[name] = ()


def _detect_disjunctive(state: MappingState, plan: MappingPlan) -> None:
    """NULL ALLOWED: find non-homogeneous references (section 4.2.1).

    A NOLOT without a homogeneous naming convention qualifies when a
    total union covers roles of two or more 1:1 (unique on both
    roles) identifying facts to lexical/referable targets.
    """
    if state.options.null_policy is not NullPolicy.ALLOWED:
        return
    schema = plan.schema
    for object_type in schema.object_types:
        name = object_type.name
        if not object_type.is_nolot or plan.resolver.is_referable(name):
            continue
        for constraint in schema.total_constraints_on(name):
            facts = []
            for item in constraint.items:
                if not isinstance(item, RoleId):
                    facts = []
                    break
                fact = schema.fact_type(item.fact)
                near = item
                far = schema.co_role_id(item)
                if schema.player_name(near) != name:
                    facts = []
                    break
                target = schema.player_name(far)
                if not (
                    schema.is_unique(near)
                    and schema.is_unique(far)
                    and plan.resolver.is_referable(target)
                ):
                    facts = []
                    break
                facts.append(fact.name)
            if len(facts) >= 2:
                plan.disjunctive[name] = DisjunctiveScheme(
                    owner=name,
                    facts=tuple(facts),
                    union_constraint=constraint.name,
                )
                state.record(
                    "non-homogeneous-reference",
                    "binary-relational",
                    name,
                    "NULL ALLOWED: identified by whichever of "
                    f"{facts!r} is present (Entity Integrity Rule waived)",
                )
                break


def _check_referability(state: MappingState, plan: MappingPlan) -> None:
    for object_type in plan.schema.object_types:
        name = object_type.name
        if not object_type.is_nolot:
            continue
        if len(plan.schema.root_supertypes_of(name)) > 1:
            # Two unrelated reference families claim the same
            # instances; the relational backward mapping could not
            # resolve one identity for them.
            raise MappingError(
                f"object type {name!r} has multiple unrelated root "
                "supertypes; remodel the diamond (e.g. introduce a "
                "common supertype with one naming convention) before "
                "mapping"
            )
        if plan.resolver.is_referable(name) or name in plan.disjunctive:
            continue
        raise NotReferableError(name)


def _leaves_for(plan: MappingPlan, type_name: str) -> tuple[LexicalLeaf, ...]:
    if type_name in plan.disjunctive:
        raise MappingError(
            f"object type {type_name!r} has a non-homogeneous reference "
            "and cannot be referenced from other relations; give it a "
            "homogeneous naming convention or remap"
        )
    return plan.resolver.leaves(type_name)


@dataclass
class _RelationDraft:
    """Mutable accumulator for one relation plan."""

    relation: str
    kind: str
    owner: str | None
    membership: object
    columns: list[ColumnUnit] = field(default_factory=list)
    key_columns: list[str] = field(default_factory=list)
    taken: set[str] = field(default_factory=set)

    def add(self, unit: ColumnUnit) -> ColumnUnit:
        name = naming.disambiguate(unit.name, self.taken)
        if name != unit.name:
            from dataclasses import replace

            unit = replace(unit, name=name)
        self.taken.add(name)
        self.columns.append(unit)
        return unit

    def finish(self) -> RelationPlan:
        return RelationPlan(
            relation=self.relation,
            kind=self.kind,
            owner=self.owner,
            membership=self.membership,
            columns=tuple(self.columns),
            key_columns=tuple(self.key_columns),
        )


def _build_anchor(state: MappingState, plan: MappingPlan, type_name: str) -> None:
    schema = plan.schema
    relation_name = type_name
    draft = _RelationDraft(
        relation=relation_name,
        kind="anchor",
        owner=type_name,
        membership=AllInstances(type_name),
    )
    plan.anchor_of[type_name] = relation_name

    if type_name in plan.disjunctive:
        _add_disjunctive_keys(state, plan, draft, type_name)
    else:
        for leaf in plan.resolver.leaves(type_name):
            unit = draft.add(
                ColumnUnit(
                    name=naming.key_column_name(leaf, type_name),
                    domain_name=naming.domain_name(leaf.lot),
                    datatype=leaf.datatype,
                    nullable=False,
                    source=SelfLeaf(type_name, leaf),
                )
            )
            draft.key_columns.append(unit.name)
        _locate_reference_roles(plan, draft, type_name)

    for near_id in _own_functional_roles(plan, type_name):
        if plan.placed_owner.get(near_id.fact) != near_id:
            continue
        _add_fact_columns(state, plan, draft, type_name, near_id)

    state.record(
        "group-functional-facts",
        "relational-relational",
        relation_name,
        f"joined {len(draft.columns) - len(draft.key_columns)} functional "
        f"fact column(s) onto the reference of {type_name!r} "
        f"(null policy: {plan.options.null_policy.value})",
    )
    plan.plans[relation_name] = draft.finish()


def _add_disjunctive_keys(
    state: MappingState, plan: MappingPlan, draft: _RelationDraft, type_name: str
) -> None:
    """PK groups for a non-homogeneous reference: one nullable column
    group per identifying fact; the first group acts as primary key."""
    scheme = plan.disjunctive[type_name]
    schema = plan.schema
    for index, fact_name in enumerate(scheme.facts):
        fact = schema.fact_type(fact_name)
        near_role = (
            fact.first if fact.first.player == type_name else fact.second
        )
        far_role = fact.co_role(near_role.name)
        for leaf in _leaves_for(plan, far_role.player):
            display = leaf.lot
            unit = draft.add(
                ColumnUnit(
                    name=naming.fact_column_name(
                        display, far_role.name, near_role.name, is_reference=True
                    ),
                    domain_name=naming.domain_name(leaf.lot),
                    datatype=leaf.datatype,
                    nullable=True,
                    source=DisjunctLeaf(
                        owner=type_name,
                        fact=fact_name,
                        near_role=near_role.name,
                        far_role=far_role.name,
                        leaf=leaf,
                        group_index=index,
                    ),
                )
            )
            if index == 0:
                draft.key_columns.append(unit.name)
        near_id = RoleId(fact_name, near_role.name)
        far_id = RoleId(fact_name, far_role.name)
        group_columns = tuple(
            u.name
            for u in draft.columns
            if isinstance(u.source, DisjunctLeaf)
            and u.source.group_index == index
        )
        plan.role_locations[near_id] = RoleLocation(
            draft.relation, group_columns, group_columns
        )
        plan.role_locations[far_id] = RoleLocation(
            draft.relation, group_columns, group_columns
        )


def _locate_reference_roles(
    plan: MappingPlan, draft: _RelationDraft, type_name: str
) -> None:
    """Reference-fact roles are visible in the relation's key.

    The near role (played by the owner) denotes all instances — the
    whole key; the far role of each component denotes that component's
    leg columns.
    """
    key = tuple(draft.key_columns)
    leg_columns: dict[str, tuple[str, ...]] = {}
    for unit in draft.columns:
        if isinstance(unit.source, SelfLeaf) and unit.source.leaf.path:
            component = unit.source.leaf.path[0]
            leg_columns[component.fact] = leg_columns.get(
                component.fact, ()
            ) + (unit.name,)
    for fact_name in plan.reference_facts.get(type_name, ()):
        fact = plan.schema.fact_type(fact_name)
        legs = leg_columns.get(fact_name, key)
        for role in fact.roles:
            columns = key if role.player == type_name else legs
            plan.role_locations[RoleId(fact_name, role.name)] = RoleLocation(
                draft.relation, columns, ()
            )


def _add_fact_columns(
    state: MappingState,
    plan: MappingPlan,
    draft: _RelationDraft,
    type_name: str,
    near_id: RoleId,
) -> None:
    """Place one functional fact: into the anchor or a satellite."""
    schema = plan.schema
    fact = schema.fact_type(near_id.fact)
    near_role = fact.role(near_id.role)
    far_role = fact.co_role(near_id.role)
    far_id = RoleId(fact.name, far_role.name)
    total = schema.is_total(near_id)
    is_reference_fact = near_id in indexes_for(schema).reference_roles

    policy = plan.options.null_policy
    unique_far = schema.is_unique(far_id)
    split = False
    if not total:
        if policy is NullPolicy.NOT_ALLOWED:
            split = True
        elif policy is NullPolicy.NOT_IN_KEYS and unique_far:
            # A nullable candidate key would put NULL in a key.
            split = True

    if split:
        _build_satellite(state, plan, type_name, near_id)
        return

    leaves = _leaves_for(plan, far_role.player)
    columns = []
    for leaf in leaves:
        override = state.hints.column_overrides.get((fact.name, far_role.name))
        if override is not None and len(leaves) == 1:
            name = override
        else:
            name = naming.fact_column_name(
                leaf.lot, far_role.name, near_role.name,
                is_reference=is_reference_fact,
            )
        unit = draft.add(
            ColumnUnit(
                name=name,
                domain_name=naming.domain_name(leaf.lot),
                datatype=leaf.datatype,
                nullable=not total,
                source=FactLeaf(
                    owner=type_name,
                    fact=fact.name,
                    near_role=near_role.name,
                    far_role=far_role.name,
                    leaf=leaf,
                ),
            )
        )
        columns.append(unit.name)
    key = tuple(draft.key_columns)
    presence = () if total else tuple(columns)
    plan.role_locations[near_id] = RoleLocation(draft.relation, key, presence)
    plan.role_locations[far_id] = RoleLocation(
        draft.relation, tuple(columns), presence
    )


def _build_satellite(
    state: MappingState, plan: MappingPlan, type_name: str, near_id: RoleId
) -> None:
    """Split an optional functional fact into its own small relation.

    This is the NULL NOT ALLOWED shape: the satellite's key is the
    owner's reference; a row exists exactly when the fact is present,
    so no column is ever NULL ("a large number of small tables").
    """
    schema = plan.schema
    fact = schema.fact_type(near_id.fact)
    near_role = fact.role(near_id.role)
    far_role = fact.co_role(near_id.role)
    relation_name = naming.disambiguate(
        naming.satellite_relation_name(type_name, fact.name), set(plan.plans)
    )
    draft = _RelationDraft(
        relation=relation_name,
        kind="satellite",
        owner=type_name,
        membership=RolePlayers(type_name, fact.name, near_role.name),
    )
    for leaf in plan.resolver.leaves(type_name):
        unit = draft.add(
            ColumnUnit(
                name=naming.key_column_name(leaf, type_name),
                domain_name=naming.domain_name(leaf.lot),
                datatype=leaf.datatype,
                nullable=False,
                source=SelfLeaf(type_name, leaf),
            )
        )
        draft.key_columns.append(unit.name)
    value_columns = []
    for leaf in _leaves_for(plan, far_role.player):
        unit = draft.add(
            ColumnUnit(
                name=naming.fact_column_name(
                    leaf.lot, far_role.name, near_role.name, is_reference=False
                ),
                domain_name=naming.domain_name(leaf.lot),
                datatype=leaf.datatype,
                nullable=False,
                source=FactLeaf(
                    owner=type_name,
                    fact=fact.name,
                    near_role=near_role.name,
                    far_role=far_role.name,
                    leaf=leaf,
                ),
            )
        )
        value_columns.append(unit.name)
    plan.plans[relation_name] = draft.finish()
    plan.role_locations[near_id] = RoleLocation(
        relation_name, tuple(draft.key_columns), ()
    )
    plan.role_locations[RoleId(fact.name, far_role.name)] = RoleLocation(
        relation_name, tuple(value_columns), ()
    )
    state.record(
        "project-optional-fact",
        "relational-relational",
        relation_name,
        f"optional fact {fact.name!r} split out of {type_name!r} so no "
        "attribute admits NULL",
    )


def _build_fact_relation(
    state: MappingState, plan: MappingPlan, fact: FactType
) -> None:
    """A separate relation for a fact no anchor can host.

    Mostly many-to-many fact types (one row per pair, keyed by the
    pair); also facts functional only from a pure-LOT side, which are
    keyed by that side's column.
    """
    schema = plan.schema
    relation_name = naming.disambiguate(fact.name, set(plan.plans))
    draft = _RelationDraft(
        relation=relation_name,
        kind="fact",
        owner=None,
        membership=FactPairs(fact.name),
    )
    side_columns: list[tuple[str, ...]] = []
    for side, role in enumerate(fact.roles):
        columns = []
        for leaf in _leaves_for(plan, role.player):
            unit = draft.add(
                ColumnUnit(
                    name=f"{leaf.lot}_{role.name}",
                    domain_name=naming.domain_name(leaf.lot),
                    datatype=leaf.datatype,
                    nullable=False,
                    source=PairLeaf(fact.name, side, role.name, role.player, leaf),
                )
            )
            columns.append(unit.name)
        side_columns.append(tuple(columns))
    unique_sides = [
        side
        for side, role_id in enumerate(fact.role_ids)
        if schema.is_unique(role_id)
    ]
    if unique_sides:
        draft.key_columns.extend(side_columns[unique_sides[0]])
    else:
        draft.key_columns.extend(side_columns[0] + side_columns[1])
    plan.plans[relation_name] = draft.finish()
    for side, role in enumerate(fact.roles):
        plan.role_locations[RoleId(fact.name, role.name)] = RoleLocation(
            relation_name, side_columns[side], ()
        )
    state.record(
        "fact-relation",
        "binary-relational",
        relation_name,
        f"many-to-many fact type {fact.name!r} mapped to its own relation",
    )


def _build_sublink_wiring(state: MappingState, plan: MappingPlan) -> None:
    """Represent each surviving sublink: FK or `_Is` columns in super."""
    schema = plan.schema
    for sublink in schema.sublinks:
        subtype, supertype = sublink.subtype, sublink.supertype
        super_relation = plan.anchor_of.get(supertype)
        sub_relation = plan.anchor_of.get(subtype)
        if super_relation is None:
            raise MappingError(
                f"supertype {supertype!r} of sublink {sublink.name!r} has "
                "no anchor relation"
            )
        scheme = plan.resolver.chosen_scheme(subtype)
        indicator_column = _indicator_column_for(state, plan, sublink.name)
        indicator_fact = state.hints.indicator_sublinks.get(sublink.name)
        if scheme.kind == "inherited":
            # Sub-relation keyed by the inherited reference: plain FK.
            plan.sublink_reprs[sublink.name] = SublinkRepresentation(
                sublink=sublink.name,
                subtype=subtype,
                supertype=supertype,
                style="foreign-key",
                sub_relation=sub_relation,
                indicator_column=indicator_column,
                indicator_fact=indicator_fact,
            )
            continue
        # Own reference: the super-relation stores the sub's reference
        # in nullable `_Is` columns (Paper_ProgramId_Is).
        super_draft = plan.plans[super_relation]
        taken = {c.name for c in super_draft.columns}
        new_columns = []
        added_units = []
        for leaf in plan.resolver.leaves(subtype):
            name = naming.disambiguate(naming.sublink_column_name(leaf), taken)
            taken.add(name)
            unit = ColumnUnit(
                name=name,
                domain_name=naming.domain_name(leaf.lot),
                datatype=leaf.datatype,
                nullable=True,
                source=SublinkLeaf(sublink.name, subtype, supertype, leaf),
            )
            new_columns.append(name)
            added_units.append(unit)
        plan.plans[super_relation] = RelationPlan(
            relation=super_draft.relation,
            kind=super_draft.kind,
            owner=super_draft.owner,
            membership=super_draft.membership,
            columns=super_draft.columns + tuple(added_units),
            key_columns=super_draft.key_columns,
        )
        plan.sublink_reprs[sublink.name] = SublinkRepresentation(
            sublink=sublink.name,
            subtype=subtype,
            supertype=supertype,
            style="is-columns",
            sub_relation=sub_relation,
            is_columns=tuple(new_columns),
            indicator_column=indicator_column,
            indicator_fact=indicator_fact,
        )
        state.record(
            "store-sublink-in-super",
            "relational-relational",
            sublink.name,
            f"sublink stored as nullable column(s) {new_columns!r} in "
            f"{super_relation!r}",
        )


def _indicator_column_for(
    state: MappingState, plan: MappingPlan, sublink_name: str
) -> str | None:
    """The flag column name when the sublink uses the INDICATOR policy."""
    fact_name = state.hints.indicator_sublinks.get(sublink_name)
    if fact_name is None:
        return None
    location = plan.role_locations.get(RoleId(fact_name, "truth"))
    if location is None:  # pragma: no cover - defensive
        return None
    return location.columns[0]
