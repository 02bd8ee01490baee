"""Conceptual queries — the RIDL-compiler idea (section 4.3).

"And this forwards map will also play a key role in ultimately
*compiling* such high-level process specifications into relational
application programs.  An early production-quality prototype of such
a compiler for query processes on the BRM, known as the RIDL compiler
(built in 1983), has already proven the effectiveness of that
approach."

This module implements that idea on top of the reproduction: a
:class:`ConceptualQuery` is phrased purely in binary-schema terms
(an object type, the facts to retrieve, filters on fact values and
subtype membership); the compiler uses the mapping plan — the same
provenance the forwards map prints — to derive a relational access
plan (which relations to touch, which joins to perform), which can
then be rendered as SQL text or executed directly against the
in-memory engine, returning answers in conceptual terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.brm.facts import RoleId
from repro.errors import MappingError
from repro.mapper.result import MappingResult
from repro.mapper.synthesis import MappingPlan, RoleLocation


@dataclass(frozen=True)
class FactSelection:
    """One requested fact of the queried object type.

    ``fact`` must be a fact type of the *canonical* schema in which
    the queried type plays a role; ``optional`` controls whether
    instances lacking the fact are kept (outer join) or dropped.
    """

    fact: str
    optional: bool = True


@dataclass(frozen=True)
class ValueFilter:
    """Keep only instances whose fact value equals ``value``."""

    fact: str
    value: object


@dataclass(frozen=True)
class SubtypeFilter:
    """Keep only instances that are members of the subtype."""

    subtype: str


@dataclass(frozen=True)
class ConceptualQuery:
    """A query phrased on the binary schema.

    ``object_type`` is the entity being retrieved; ``selections`` are
    the facts wanted alongside it; ``filters`` restrict the instance
    set.
    """

    object_type: str
    selections: tuple[FactSelection, ...] = ()
    filters: tuple[object, ...] = ()


@dataclass(frozen=True)
class AccessStep:
    """One relational access of a compiled plan."""

    relation: str
    columns: tuple[str, ...]
    join_on: tuple[tuple[str, str], ...]  # (root column, step column)
    kind: str  # "root" | "join" | "outer-join"


@dataclass
class CompiledQuery:
    """The relational realization of a conceptual query."""

    query: ConceptualQuery
    root: AccessStep
    steps: list[AccessStep] = field(default_factory=list)
    output_columns: dict[str, tuple[str, ...]] = field(default_factory=dict)
    filters: list[tuple[str, str, object]] = field(default_factory=list)
    membership_predicates: list[tuple[str, str, object]] = field(
        default_factory=list
    )

    @property
    def relations_touched(self) -> list[str]:
        """Every relation the plan reads (the paper's dynamic joins)."""
        names = [self.root.relation]
        for step in self.steps:
            if step.relation not in names:
                names.append(step.relation)
        return names

    def sql_text(self) -> str:
        """A readable SQL rendering of the plan."""
        select_parts = []
        for label, columns in self.output_columns.items():
            select_parts.extend(columns)
        froms = [self.root.relation]
        conditions = []
        for step in self.steps:
            if step.relation != self.root.relation:
                froms.append(step.relation)
                for root_col, step_col in step.join_on:
                    operator = "=" if step.kind == "join" else "(+)="
                    conditions.append(
                        f"{self.root.relation}.{root_col} {operator} "
                        f"{step.relation}.{step_col}"
                    )
        for relation, column, value in self.filters:
            conditions.append(f"{relation}.{column} = {value!r}")
        for relation, column, value in self.membership_predicates:
            if value is None:
                conditions.append(f"{relation}.{column} IS NOT NULL")
            else:
                conditions.append(f"{relation}.{column} = {value!r}")
        text = "SELECT " + ", ".join(dict.fromkeys(select_parts))
        text += "\nFROM " + ", ".join(dict.fromkeys(froms))
        if conditions:
            text += "\nWHERE " + "\n  AND ".join(dict.fromkeys(conditions))
        return text


class QueryCompiler:
    """Compiles conceptual queries through a mapping plan.

    ``eliminations`` are the mapping state's TOGETHER-eliminated
    sublinks; only a :class:`SubtypeFilter` reads them.
    """

    def __init__(self, result: MappingResult) -> None:
        self.plan = result.plan
        self.eliminations = tuple(result.state.hints.eliminations.values())

    @classmethod
    def for_plan(cls, plan: MappingPlan) -> QueryCompiler:
        """A compiler over a relation plan that was never materialized.

        The plan alone records no TOGETHER eliminations, so a
        :class:`SubtypeFilter` on an eliminated subtype raises
        :class:`MappingError`; every other query compiles exactly as
        through the mapping result.
        """
        compiler = cls.__new__(cls)
        compiler.plan = plan
        compiler.eliminations = ()
        return compiler

    # ------------------------------------------------------------------

    def compile(self, query: ConceptualQuery) -> CompiledQuery:
        """Derive the relational access plan for a conceptual query."""
        anchor = self.plan.anchor_of.get(query.object_type)
        if anchor is None:
            raise MappingError(
                f"object type {query.object_type!r} has no anchor relation "
                "in this mapping"
            )
        anchor_plan = self.plan.plans[anchor]
        root = AccessStep(
            relation=anchor,
            columns=anchor_plan.key_columns,
            join_on=(),
            kind="root",
        )
        compiled = CompiledQuery(query=query, root=root)
        compiled.output_columns[query.object_type] = anchor_plan.key_columns

        for selection in query.selections:
            location = self._fact_location(query.object_type, selection.fact)
            step_kind = "outer-join" if selection.optional else "join"
            if location.relation == anchor:
                compiled.steps.append(
                    AccessStep(
                        relation=anchor,
                        columns=location.columns,
                        join_on=(),
                        kind="join",
                    )
                )
            else:
                join_on = self._join_columns(
                    query.object_type, anchor_plan, location.relation
                )
                compiled.steps.append(
                    AccessStep(
                        relation=location.relation,
                        columns=location.columns,
                        join_on=join_on,
                        kind=step_kind,
                    )
                )
            compiled.output_columns[selection.fact] = location.columns

        for filter_ in query.filters:
            if isinstance(filter_, ValueFilter):
                location = self._fact_location(
                    query.object_type, filter_.fact
                )
                compiled.filters.append(
                    (location.relation, location.columns[0], filter_.value)
                )
            elif isinstance(filter_, SubtypeFilter):
                compiled.membership_predicates.append(
                    self._membership_predicate(filter_.subtype)
                )
            else:  # pragma: no cover - defensive
                raise MappingError(f"unknown filter {filter_!r}")
        return compiled

    def _fact_location(self, owner: str, fact_name: str) -> RoleLocation:
        """Locate the fact's value columns.

        The fact may be played by the queried type itself or by one of
        its subtypes or supertypes (inheritance: a Paper query may ask
        for facts of Program_Paper; its members simply come up NULL
        for non-members).
        """
        schema = self.plan.schema
        if not schema.has_fact_type(fact_name):
            raise MappingError(f"no fact type {fact_name!r} in the schema")
        fact = schema.fact_type(fact_name)
        family = (
            {owner}
            | schema.descendants_of(owner)
            | schema.ancestors_of(owner)
        )
        players = [p for p in fact.players if p in family]
        if not players:
            raise MappingError(
                f"object type {owner!r} (or a sub/supertype) plays no role "
                f"in fact {fact_name!r}"
            )
        near_role = (
            fact.first if fact.first.player == players[0] else fact.second
        )
        far_id = RoleId(fact_name, fact.co_role(near_role.name).name)
        location = self.plan.role_locations.get(far_id)
        if location is None:
            raise MappingError(
                f"fact {fact_name!r} was not mapped (omitted table?)"
            )
        return location

    def _join_columns(
        self, query_type: str, anchor_plan, step_relation: str
    ) -> tuple[tuple[str, str], ...]:
        """How the root anchor joins the step relation.

        Direct key-to-key when both are keyed by the same reference;
        through the super-relation's `_Is` sublink attribute when the
        step relation's owner is an own-identifier subtype.
        """
        schema = self.plan.schema
        step_plan = self.plan.plans[step_relation]
        owner = step_plan.owner
        if owner is None:
            raise MappingError(
                f"cannot join a many-to-many fact relation "
                f"{step_relation!r} as an attribute step"
            )
        if owner == query_type or owner in schema.ancestors_of(query_type):
            # Same reference family; keys carry the same values unless
            # the *query type itself* is an own-identifier subtype —
            # unsupported combination, caught by domain disagreement.
            return tuple(zip(anchor_plan.key_columns, step_plan.key_columns))
        # owner is a (transitive) subtype of the query type.
        for repr_ in self.plan.sublink_reprs.values():
            if repr_.subtype != owner and repr_.subtype not in (
                schema.ancestors_of(owner) | {owner}
            ):
                continue
            if repr_.supertype != query_type and repr_.supertype not in (
                schema.ancestors_of(query_type) | {query_type}
            ):
                continue
            if repr_.style == "is-columns":
                return tuple(zip(repr_.is_columns, step_plan.key_columns))
            return tuple(zip(anchor_plan.key_columns, step_plan.key_columns))
        # No surviving sublink representation (e.g. TOGETHER absorbed
        # everything into one relation — then we never get here).
        return tuple(zip(anchor_plan.key_columns, step_plan.key_columns))

    def _membership_predicate(self, subtype: str) -> tuple[str, str, object]:
        for repr_ in self.plan.sublink_reprs.values():
            if repr_.subtype != subtype:
                continue
            super_relation = self.plan.anchor_of[repr_.supertype]
            if repr_.indicator_column is not None and (
                repr_.style != "is-columns"
            ):
                return (super_relation, repr_.indicator_column, "Y")
            if repr_.style == "is-columns":
                return (super_relation, repr_.is_columns[0], None)
            if repr_.sub_relation is not None:
                sub_plan = self.plan.plans[repr_.sub_relation]
                return (repr_.sub_relation, sub_plan.key_columns[0], None)
        # A TOGETHER-eliminated sublink: membership is the anchor
        # role's presence or the synthesized indicator column.
        for record in self.eliminations:
            if record.subtype != subtype:
                continue
            if record.anchor is not None:
                location = self.plan.role_locations.get(record.anchor)
                if location is not None and location.presence:
                    return (location.relation, location.presence[0], None)
            if record.indicator_fact is not None:
                far_id = RoleId(record.indicator_fact, "truth")
                location = self.plan.role_locations.get(far_id)
                if location is not None:
                    return (location.relation, location.columns[0], "Y")
        raise MappingError(
            f"subtype {subtype!r} has no observable membership in this "
            "mapping"
        )

    # ------------------------------------------------------------------

    def execute(self, compiled: CompiledQuery, database) -> list[dict]:
        """Run the plan against a database, answering conceptually.

        Each answer row maps the queried object type to its reference
        value(s) and each selected fact to its value(s) (``None`` when
        the optional fact is absent).
        """
        anchor = compiled.root.relation
        # Read-only row views: the filters below rebuild lists but
        # never mutate the yielded dicts.
        rows = list(database.iter_rows(anchor))
        # Apply anchor-level filters and membership predicates.
        for relation, column, value in compiled.filters:
            if relation == anchor:
                rows = [r for r in rows if r.get(column) == value]
        for relation, column, value in compiled.membership_predicates:
            if relation == anchor:
                if value is None:
                    rows = [r for r in rows if r.get(column) is not None]
                else:
                    rows = [r for r in rows if r.get(column) == value]
            else:
                member_keys = {
                    tuple(m.get(c) for c in self.plan.plans[relation].key_columns)
                    for m in database.iter_rows(relation)
                    if value is None
                    and m.get(column) is not None
                    or m.get(column) == value
                }
                key_columns = compiled.root.columns
                rows = [
                    r
                    for r in rows
                    if tuple(r.get(c) for c in key_columns) in member_keys
                ]
        answers = []
        for row in rows:
            answer: dict[str, object] = {}
            key = tuple(row.get(c) for c in compiled.root.columns)
            answer[compiled.query.object_type] = (
                key[0] if len(key) == 1 else key
            )
            keep = True
            for selection, step in zip(
                compiled.query.selections, compiled.steps
            ):
                values = self._step_values(database, row, compiled, step)
                if values is None and not selection.optional:
                    keep = False
                    break
                # Non-anchor filters apply to the joined value.
                for relation, column, value in compiled.filters:
                    if relation == step.relation and relation != anchor:
                        if values is None or value not in values.values():
                            keep = False
                answer[selection.fact] = (
                    None
                    if values is None
                    else (
                        next(iter(values.values()))
                        if len(values) == 1
                        else tuple(values.values())
                    )
                )
            if keep:
                answers.append(answer)
        return answers

    def _step_values(self, database, root_row, compiled, step):
        if step.relation == compiled.root.relation:
            values = {c: root_row.get(c) for c in step.columns}
            if all(v is None for v in values.values()):
                return None
            return values
        for candidate in database.iter_rows(step.relation):
            if all(
                root_row.get(root_col) == candidate.get(step_col)
                for root_col, step_col in step.join_on
            ):
                return {c: candidate.get(c) for c in step.columns}
        return None
