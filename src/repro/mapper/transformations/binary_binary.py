"""Binary-to-binary basic schema transformations.

"The transformations of the first kind are used to convert a binary
schema into its most canonical form.  They eliminate superfluous
definitions, reduce constraints to their canonical form and replace
non-elementary concepts by their definitions" (section 4.1).  The
transformations here:

* :func:`restrict_scope` — map "all or part of the binary schema";
* :func:`canonicalize_constraints` — drop superfluous (duplicate)
  constraints;
* :func:`eliminate_sublink` — the figure-4 transformation: replace a
  sublink type by re-playing the subtype's roles on the supertype,
  generating the binary lossless rules (role equalities among the
  subtype's former total roles, subsets for its optional roles) that
  later become the ``C_EE$`` / ``C_DE$`` constraints of Alternative 4;
* :func:`add_indicator_fact` — synthesize the membership-indicator
  fact (``Is_Invited_Paper``) used by the INDICATOR policy and by
  TOGETHER when the subtype has no total role.

Every transformation registers a forward and a backward population
map on the :class:`~repro.mapper.state.MappingState`, so the whole
binary phase is a composition of lossless state mappings.
"""

from __future__ import annotations

from repro.brm.concepts import describe_sublink
from repro.brm.constraints import (
    Constraint,
    EqualityConstraint,
    ExclusionConstraint,
    SubsetConstraint,
    TotalUnionConstraint,
    UniquenessConstraint,
    ValueConstraint,
    duplicate_constraints,
)
from repro.brm.datatypes import char
from repro.brm.facts import FactType, Role, RoleId
from repro.brm.indexes import indexes_for
from repro.brm.objects import lot
from repro.brm.population import Population
from repro.brm.schema import BinarySchema
from repro.brm.sublinks import SublinkRef, SublinkType
from repro.errors import MappingError
from repro.mapper.naming import indicator_names
from repro.mapper.options import SublinkPolicy
from repro.mapper.state import EliminationRecord, MappingState
from repro.mapper.trace import PseudoConstraint


def restrict_scope(state: MappingState) -> None:
    """Keep only the object types selected by ``options.scope``.

    RIDL-M "takes all or part of the binary schema" (section 3.3);
    restricting is not lossless with respect to the full schema — it
    is the declaration that only this part is being engineered.
    """
    scope = state.options.scope
    if scope is None:
        return
    keep = set(scope)
    unknown = keep - {t.name for t in state.schema.object_types}
    if unknown:
        raise MappingError(f"scope names unknown object types: {sorted(unknown)}")
    old_schema = state.schema
    new_schema = BinarySchema(old_schema.name)
    for object_type in old_schema.object_types:
        if object_type.name in keep:
            new_schema.add_object_type(object_type)
    for fact in old_schema.fact_types:
        if set(fact.players) <= keep:
            new_schema.add_fact_type(fact)
    for sublink in old_schema.sublinks:
        if {sublink.subtype, sublink.supertype} <= keep:
            new_schema.add_sublink(sublink)
    for constraint in old_schema.constraints:
        if _constraint_in_scope(old_schema, new_schema, constraint):
            new_schema.add_constraint(constraint)
    dropped = len(old_schema.object_types) - len(new_schema.object_types)
    state.schema = new_schema
    state.record(
        "restrict-scope",
        "binary-binary",
        old_schema.name,
        f"kept {len(keep)} object types, dropped {dropped}",
    )

    def forward(population: Population) -> Population:
        return population.project(new_schema)

    def backward(population: Population) -> Population:
        return population.project(old_schema)

    state.add_population_maps(forward, backward)


def _constraint_in_scope(
    old_schema: BinarySchema, new_schema: BinarySchema, constraint: Constraint
) -> bool:
    for item in constraint.items:
        if isinstance(item, RoleId):
            if not new_schema.has_fact_type(item.fact):
                return False
        elif not new_schema.has_sublink(item.sublink):
            return False
    if isinstance(constraint, (TotalUnionConstraint, ValueConstraint)):
        if not new_schema.has_object_type(constraint.object_type):
            return False
    return True


def canonicalize_constraints(state: MappingState) -> None:
    """Reduce the constraint set to canonical form.

    "They eliminate superfluous definitions, reduce constraints to
    their canonical form" (section 4.1).  Removed as superfluous:

    * literally duplicate constraints;
    * pair/compound uniqueness implied by a single-role uniqueness
      over one of its roles;
    * subset constraints implied by an equality over the same items;
    * total unions made redundant by a single total role over one of
      their items on the same object type.

    The population maps are identities: dropping implied constraints
    never changes the set of valid states.
    """
    schema = state.schema
    removed: list[tuple[str, str]] = [
        (name, f"duplicates {original}")
        for name, original in duplicate_constraints(schema.constraints)
    ]

    simple_unique_roles = indexes_for(schema).simple_unique_roles
    already = {name for name, _ in removed}
    for constraint in schema.uniqueness_constraints():
        if constraint.is_simple or constraint.name in already:
            continue
        implying = [r for r in constraint.roles if r in simple_unique_roles]
        if implying:
            removed.append(
                (
                    constraint.name,
                    f"implied by single-role uniqueness over {implying[0]}",
                )
            )
    equal_pairs = {
        frozenset(pair)
        for c in schema.equalities()
        for pair in _pairs(c.items)
    }
    for constraint in schema.subsets():
        if constraint.name in {name for name, _ in removed}:
            continue
        if frozenset((constraint.subset, constraint.superset)) in equal_pairs:
            removed.append(
                (constraint.name, "implied by a role-equality constraint")
            )
    total_roles = {
        (c.object_type, c.items[0])
        for c in schema.totals()
        if c.is_total_role
    }
    for constraint in schema.totals():
        if constraint.is_total_role:
            continue
        if constraint.name in {name for name, _ in removed}:
            continue
        if any(
            (constraint.object_type, item) in total_roles
            for item in constraint.items
        ):
            removed.append(
                (
                    constraint.name,
                    "implied by a total role over one of its items",
                )
            )

    for name, _ in removed:
        schema.remove_constraint(name)
    if removed:
        details = "; ".join(f"{name} ({why})" for name, why in removed)
        state.record(
            "canonicalize-constraints",
            "binary-binary",
            schema.name,
            f"removed superfluous constraints: {details}",
        )
    identity = lambda population: population  # noqa: E731 - symmetric pair
    state.add_population_maps(identity, identity)
    state.flags.add("canonicalized")


def _pairs(items: tuple) -> list[tuple]:
    import itertools

    return list(itertools.combinations(items, 2))


def apply_sublink_policies(state: MappingState) -> None:
    """Apply the per-sublink mapping option (section 4.2.2).

    TOGETHER sublinks are eliminated deepest-subtype-first so that a
    chain ``A < B < C`` with B eliminated leaves ``A < C``.
    """
    ordered = sorted(
        state.schema.sublinks,
        key=lambda s: -len(state.schema.ancestors_of(s.subtype)),
    )
    for sublink in ordered:
        policy = state.options.policy_for(sublink.name)
        if policy is SublinkPolicy.TOGETHER:
            eliminate_sublink(state, sublink.name)
        elif policy is SublinkPolicy.INDICATOR:
            add_indicator_fact(state, sublink.name, keep_sublink=True)
    state.flags.add("sublinks-applied")


def eliminate_sublink(state: MappingState, sublink_name: str) -> None:
    """The figure-4 transformation for the TOGETHER policy.

    The subtype's roles are re-played by the supertype; its total
    roles become the membership *anchors*, tied together by equality
    constraints (lossless rules), and each optional former role is
    tied to the anchor by a subset constraint.  A subtype without any
    total role gets a synthesized indicator fact instead.

    The step edits one copy of the working schema in place: it deletes
    the subtype and the sublink, replaces in their positions only the
    facts, sublinks and constraints that name them, and appends the
    lossless rules, so every other element keeps its place.
    """
    old_schema = state.schema
    sublink = old_schema.sublink(sublink_name)
    subtype, supertype = sublink.subtype, sublink.supertype

    # Plain scans, not index queries: every elimination leaves a new
    # schema version, whose index sections would be rebuilt each time.
    supertypes = {s.supertype for s in old_schema.sublinks if s.subtype == subtype}
    if len(supertypes) > 1:
        raise MappingError(
            f"cannot apply TOGETHER to sublink {sublink_name!r}: subtype "
            f"{subtype!r} has multiple supertypes; override this sublink "
            "to SEPARATE or INDICATOR"
        )
    moved_facts = [
        fact
        for fact in old_schema.fact_types
        if fact.first.player == subtype or fact.second.player == subtype
    ]
    moved_roles = tuple(
        RoleId(fact.name, role.name)
        for fact in moved_facts
        for role in fact.roles
        if role.player == subtype
    )
    total_roles, reference_roles = _total_and_reference_roles(
        old_schema, moved_roles
    )
    anchors = [r for r in moved_roles if r in total_roles]
    anchor = _preferred_anchor(anchors, reference_roles)

    schema = old_schema.copy()
    for fact in moved_facts:
        schema.replace_fact_type(_replay_fact(fact, subtype, supertype))
    for other in old_schema.sublinks:
        if other.supertype == subtype:
            schema.replace_sublink(
                SublinkType(other.name, other.subtype, supertype)
            )

    lossless: list[str] = []
    dropped_totals: list[str] = []
    eliminated = SublinkRef(sublink_name)
    # The subset constraints into the anchor, by subset end: asking
    # the schema would build its constraint index.
    into_anchor: set[RoleId] = set()
    for constraint in old_schema.constraints:
        # ``_rewrite_constraint`` changes only the totals on the subtype
        # and the constraints over the sublink; every other one stays.
        if (
            isinstance(constraint, TotalUnionConstraint)
            and constraint.object_type == subtype
        ) or eliminated in constraint.items:
            rewritten = _rewrite_constraint(
                state, old_schema, constraint, sublink_name, subtype, anchor
            )
            if rewritten is None:
                dropped_totals.append(constraint.name)
                schema.remove_constraint(constraint.name)
                continue
            schema.replace_constraint(rewritten)
        else:
            rewritten = constraint
        if (
            isinstance(rewritten, SubsetConstraint)
            and rewritten.superset == anchor
        ):
            into_anchor.add(rewritten.subset)
    schema.remove_sublink(sublink_name)
    schema.remove_object_type(subtype)

    # Lossless rules: anchors carry the membership set.
    if anchor is not None:
        if len(anchors) > 1:
            name = schema.fresh_name(f"LL_EE_{sublink_name}")
            schema.add_constraint(
                EqualityConstraint(name, items=tuple(anchors))
            )
            lossless.append(name)
        for role in moved_roles:
            if role in anchors or role == anchor:
                continue
            if role not in into_anchor:
                name = schema.fresh_name(f"LL_DE_{sublink_name}")
                schema.add_constraint(
                    SubsetConstraint(name, subset=role, superset=anchor)
                )
                into_anchor.add(role)
                lossless.append(name)

    indicator_fact: str | None = None
    state.schema = schema
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


def _total_and_reference_roles(
    schema: BinarySchema, roles: tuple[RoleId, ...]
) -> tuple[set[RoleId], set[RoleId]]:
    """Which of ``roles`` are total, and which carry a reference bar:
    the ``is_total`` and ``reference_roles`` answers, read in one pass."""
    wanted = set(roles)
    totals: set[RoleId] = set()
    references: set[RoleId] = set()
    for constraint in schema.constraints:
        if isinstance(constraint, TotalUnionConstraint):
            if constraint.is_total_role and constraint.items[0] in wanted:
                totals.add(constraint.items[0])
        elif isinstance(constraint, UniquenessConstraint):
            if (
                constraint.is_reference
                and constraint.is_simple
                and constraint.roles[0] in wanted
            ):
                references.add(constraint.roles[0])
    return totals, references


def _preferred_anchor(
    anchors: list[RoleId], reference_roles: set[RoleId]
) -> RoleId | None:
    """The representative total role: the reference fact if possible."""
    if not anchors:
        return None
    for role in anchors:
        if role in reference_roles:
            return role
    return anchors[0]


def _replay_fact(fact: FactType, subtype: str, supertype: str) -> FactType:
    def replay(role: Role) -> Role:
        if role.player == subtype:
            return Role(role.name, supertype)
        return role

    return FactType(fact.name, replay(fact.first), replay(fact.second))


def _rewrite_constraint(
    state: MappingState,
    old_schema: BinarySchema,
    constraint: Constraint,
    sublink_name: str,
    subtype: str,
    anchor: RoleId | None,
) -> Constraint | None:
    """Rewrite one constraint for the post-elimination schema.

    Returns ``None`` when the constraint is consumed (totality on the
    former subtype) or must be degraded to a pseudo constraint.
    """
    from dataclasses import replace

    if isinstance(constraint, TotalUnionConstraint):
        if constraint.object_type == subtype:
            # Former totality on the subtype: single-role totals become
            # anchors (handled by the caller), larger unions degrade.
            if not constraint.is_total_role:
                state.pseudo_constraints.append(
                    PseudoConstraint(
                        constraint.name,
                        "TOTAL UNION on eliminated subtype "
                        f"{subtype!r}: every member of the former subtype "
                        "participates in one of "
                        f"{[str(i) for i in constraint.items]!r}",
                        (describe_sublink(old_schema, sublink_name),),
                    )
                )
            return None
        replaced = _replace_sublink_items(
            state, old_schema, constraint.items, sublink_name, anchor,
            constraint.name,
        )
        if replaced is None:
            return None
        return replace(constraint, items=replaced)
    if isinstance(constraint, (ExclusionConstraint, EqualityConstraint)):
        replaced = _replace_sublink_items(
            state, old_schema, constraint.items, sublink_name, anchor,
            constraint.name,
        )
        if replaced is None or len(replaced) < 2:
            return None
        return replace(constraint, items=replaced)
    if isinstance(constraint, SubsetConstraint):
        ends = _replace_sublink_items(
            state,
            old_schema,
            (constraint.subset, constraint.superset),
            sublink_name,
            anchor,
            constraint.name,
        )
        if ends is None or len(ends) != 2 or ends[0] == ends[1]:
            return None
        return replace(constraint, subset=ends[0], superset=ends[1])
    return constraint


def _replace_sublink_items(
    state: MappingState,
    old_schema: BinarySchema,
    items: tuple,
    sublink_name: str,
    anchor: RoleId | None,
    constraint_name: str,
) -> tuple | None:
    """Replace references to the eliminated sublink by its anchor role.

    Returns ``None`` when no anchor exists and the constraint must be
    degraded to a pseudo constraint.
    """
    if not any(
        isinstance(item, SublinkRef) and item.sublink == sublink_name
        for item in items
    ):
        return items
    if anchor is None:
        state.pseudo_constraints.append(
            PseudoConstraint(
                constraint_name,
                f"constraint over eliminated sublink {sublink_name!r} "
                "whose subtype has no total role; enforce via the "
                "indicator attribute",
                (describe_sublink(old_schema, sublink_name),),
            )
        )
        return None
    replaced = tuple(
        anchor
        if isinstance(item, SublinkRef) and item.sublink == sublink_name
        else item
        for item in items
    )
    deduplicated = []
    for item in replaced:
        if item not in deduplicated:
            deduplicated.append(item)
    return tuple(deduplicated)


def add_indicator_fact(
    state: MappingState, sublink_name: str, *, keep_sublink: bool
) -> str:
    """Synthesize the ``Is_<Subtype>`` membership fact on the supertype.

    Used by the INDICATOR policy (sublink kept, fact adds redundancy
    controlled by a conditional equality constraint) and internally by
    TOGETHER when the subtype has no total role.  Returns the fact
    name.
    """
    if not keep_sublink:
        raise MappingError("add_indicator_fact requires an existing sublink")
    schema_before = state.schema.copy()
    sublink = state.schema.sublink(sublink_name)
    subtype, supertype = sublink.subtype, sublink.supertype
    fact_name = _synthesize_indicator(state, subtype, supertype)
    schema_after = state.schema
    state.hints.indicator_sublinks[sublink_name] = fact_name
    state.record(
        "add-indicator",
        "binary-binary",
        sublink_name,
        f"SUBOT INDICATOR FOR SUPOT: membership of {subtype!r} "
        f"indicated on {supertype!r} by fact {fact_name!r}",
        (fact_name,),
    )

    def forward(population: Population) -> Population:
        return _indicated(population, schema_after, fact_name, subtype, supertype)

    def backward(population: Population) -> Population:
        return population.project(schema_before)

    state.add_population_maps(forward, backward)
    return fact_name


def _indicated(
    population: Population,
    schema: BinarySchema,
    fact_name: str,
    subtype: str,
    supertype: str,
) -> Population:
    """The projection of ``population`` onto ``schema`` with every
    supertype instance paired, in the indicator fact, with ``"Y"``
    when it is a subtype member and ``"N"`` otherwise."""
    mapped = population.project(schema)
    members = population.instance_ids(subtype)
    yes, no = mapped.intern("Y"), mapped.intern("N")
    mapped.add_pair_ids(
        fact_name,
        [
            (i, yes if i in members else no)
            for i in population.instance_ids(supertype)
        ],
    )
    return mapped


def _synthesize_indicator(
    state: MappingState, subtype: str, supertype: str
) -> str:
    """Create the indicator LOT, fact and constraints on the current
    schema; returns the fact name and registers the column override."""
    schema = state.schema
    flag, fact_stem, near_role = indicator_names(subtype)
    flag_name = schema.fresh_name(flag)
    fact_name = schema.fresh_name(fact_stem)
    schema.add_object_type(lot(flag_name, char(1)))
    fact = FactType(
        fact_name, Role(near_role, supertype), Role("truth", flag_name)
    )
    schema.add_fact_type(fact)
    near_id = RoleId(fact_name, near_role)
    schema.add_constraint(
        UniquenessConstraint(schema.fresh_name(f"U_{flag_name}"), roles=(near_id,))
    )
    schema.add_constraint(
        TotalUnionConstraint(
            schema.fresh_name(f"T_{flag_name}"),
            object_type=supertype,
            items=(near_id,),
        )
    )
    schema.add_constraint(
        ValueConstraint(
            schema.fresh_name(f"V_{flag_name}"),
            object_type=flag_name,
            values=("Y", "N"),
        )
    )
    state.hints.column_overrides[(fact_name, "truth")] = flag_name
    return fact_name
