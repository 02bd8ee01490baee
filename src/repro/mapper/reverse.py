"""Reverse engineering: lift relational DDL back to a binary schema.

The forward direction (RIDL-M) maps a binary conceptual schema onto
relational DDL.  This module walks the other way, in the spirit of
the MatBase line of work: :func:`lift_schema` takes a parsed DDL
script (:mod:`repro.sql.parse`) and reconstructs a BRM schema plus
the mapping options under which the forward mapper reproduces the
input.  Every lifted element carries provenance — which DDL clause
justified which BRM fact or constraint — in a :class:`LiftReport`.

Lifting rules (each with its relational trigger):

=====================  =============================================
relation class         trigger
=====================  =============================================
subtype (fk style)     an FK covering the PK onto the target's PK;
                       absorbs satellites and reference schemes
subtype (is style)     an FK covering the PK onto a non-PK candidate
                       key of the target (the ``<LOT>_Is`` columns)
fact relation          PK spanning every column (a many-to-many fact)
self anchor            single-column PK named like the relation
                       (a LOT-treated-as-NOLOT anchor)
anchor                 anything else with a single-column PK: a NOLOT
                       with a simple lexical reference scheme
=====================  =============================================

Columns lift to functional fact types: single-column FKs become
reference attributes (the role name is the column minus the target's
key prefix), plain columns are split at the first compatible
underscore into ``<LOT>_<far role>``.  CHECK constraints dispatch on
their annotation and are read through that form's exact inverse in
:mod:`repro.relational.predicates`, so only item resolution happens
here; view constraints dispatch on their select structure.

The lift is *conservative by construction*: it only produces BRM
constraints that the forward mapper can re-express in real DDL.
Anything that would degrade to a pseudo-constraint on remap — and
would therefore break the fixpoint — is dropped with a report note
instead.  This yields the central guarantee checked by
:func:`check_fixpoint`: one lift/remap round may canonicalize the
DDL (``ddl2``), but a second round is byte-identical (``ddl3 ==
ddl2``), the implication engine saturates both lifts to the same
closure, and executor populations validate identically on the source
and the lifted schema.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

from repro.brm.datatypes import DataType, DataTypeKind
from repro.brm.builder import SchemaBuilder
from repro.brm.schema import BinarySchema
from repro.errors import RidlError
from repro.mapper import naming
from repro.mapper.options import MappingOptions
from repro.observability.tracer import span as _obs_span
from repro.relational.constraints import (
    CandidateKey,
    CheckConstraint,
    EqualityViewConstraint,
    ForeignKey,
    SelectSpec,
    SubsetViewConstraint,
)
from repro.relational.predicates import (
    DEPENDENT_EXISTENCE,
    EQUAL_EXISTENCE,
    EXCLUSION,
    TOTAL_UNION,
    VALUE_RESTRICTION,
    Predicate,
    dependent_existence_operands,
    equal_existence_operands,
    exclusion_operands,
    presence,
    presence_columns,
    total_union_operands,
    value_restriction_operands,
)
from repro.relational.schema import Attribute, Relation, RelationalSchema
from repro.sql.parse import ParseResult, parse_ddl


class LiftError(RidlError):
    """The DDL cannot be lifted to a binary schema."""


# ----------------------------------------------------------------------
# Report structures
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LiftEntry:
    """One lifted BRM element and the DDL clause that justified it."""

    element: str  #: BRM element name (object type, fact, constraint…)
    kind: str  #: "object-type" | "fact" | "sublink" | "constraint"
    relation: str | None  #: source relation, if any
    clause: str  #: human-readable DDL clause description
    sources: tuple[str, ...] = ()  #: DDL constraint names consumed


@dataclass(frozen=True)
class LiftNote:
    """A drop or fallback taken to keep the lift fixpoint-safe."""

    kind: str  #: "dropped" | "fallback" | "info"
    subject: str  #: DDL constraint / column the note is about
    detail: str


@dataclass(frozen=True)
class LiftReport:
    """Per-element provenance for one lift."""

    schema_name: str
    dialect: str
    entries: tuple[LiftEntry, ...] = ()
    notes: tuple[LiftNote, ...] = ()

    def provenance_of(self, element: str) -> tuple[LiftEntry, ...]:
        """Every entry recorded for one BRM element name."""
        return tuple(e for e in self.entries if e.element == element)

    @property
    def dropped(self) -> tuple[LiftNote, ...]:
        """Notes about DDL clauses the lift could not carry over."""
        return tuple(n for n in self.notes if n.kind == "dropped")

    def describe(self) -> str:
        """A plain-text rendering (the CLI's default output)."""
        lines = [
            f"lift of {self.schema_name!r} ({self.dialect}): "
            f"{len(self.entries)} elements, {len(self.notes)} notes"
        ]
        for entry in self.entries:
            origin = f" [{', '.join(entry.sources)}]" if entry.sources else ""
            where = f" on {entry.relation}" if entry.relation else ""
            lines.append(
                f"  {entry.kind:<11} {entry.element:<32} "
                f"<- {entry.clause}{where}{origin}"
            )
        for note in self.notes:
            lines.append(f"  {note.kind:<11} {note.subject}: {note.detail}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """A JSON-serializable view (the CLI's ``--format json``)."""
        return {
            "schema": self.schema_name,
            "dialect": self.dialect,
            "entries": [
                {
                    "element": e.element,
                    "kind": e.kind,
                    "relation": e.relation,
                    "clause": e.clause,
                    "sources": list(e.sources),
                }
                for e in self.entries
            ],
            "notes": [
                {"kind": n.kind, "subject": n.subject, "detail": n.detail}
                for n in self.notes
            ],
        }


@dataclass(frozen=True)
class LiftResult:
    """A lifted schema, the options that reproduce the DDL, and the
    provenance report."""

    schema: BinarySchema
    options: MappingOptions
    report: LiftReport


# ----------------------------------------------------------------------
# Relation classification
# ----------------------------------------------------------------------


@dataclass
class _RelClass:
    kind: str  #: "anchor" | "self" | "subtype" | "fact" | "skipped"
    super_name: str | None = None
    style: str | None = None  #: "fk" | "is" (subtypes only)
    own_lot: str | None = None  #: identifier LOT (anchor/self/is-subtype)
    consumed: tuple[str, ...] = ()


@dataclass
class _BareSublink:
    """An ``<LOT>_Is`` candidate key with no sub-relation: a subtype
    that owns nothing but its identifier."""

    entity: str
    lot: str
    is_columns: tuple[str, ...]
    ck_name: str


class _Lifter:
    """One lift run over a parsed DDL script."""

    def __init__(self, parsed: ParseResult) -> None:
        self.parsed = parsed
        self.r: RelationalSchema = parsed.schema
        self.b = SchemaBuilder(self.r.name)
        self.entries: list[LiftEntry] = []
        self.notes: list[LiftNote] = []
        #: DDL constraint names structurally consumed by the lift.
        self.consumed: set[str] = set()
        #: (relation, column) -> (values, check name) value restrictions.
        self.values_by_col: dict[tuple[str, str], tuple[tuple, str]] = {}
        self.classes: dict[str, _RelClass] = {}
        #: relations in canonical (remap layout) processing order.
        self.ordered: list[Relation] = []
        #: lexical object types created so far: name -> (datatype, values).
        self.lots: dict[str, tuple[DataType, tuple | None]] = {}
        #: every object type name created (for split-collision checks).
        self.object_types: set[str] = set()
        #: (relation, column) -> (fact, near role, far role) for value
        #: columns of lifted functional facts.
        self.colrole: dict[tuple[str, str], tuple[str, str, str]] = {}
        #: view-side resolution: (relation, columns, presence columns)
        #: -> constraint item; first registration wins.
        self.locindex: dict[tuple[str, tuple, frozenset], object] = {}
        #: (relation, column) -> sublink name, for consumed _Is columns.
        self.is_cols: dict[tuple[str, str], str] = {}
        self.bare_by_super: dict[str, list[_BareSublink]] = {}
        #: membership equality views consumed by subtype classification.
        self.consumed_views: set[str] = set()
        self.fact_names: set[str] = set()
        self.sublink_names: set[str] = set()
        self.preferences: list[tuple[str, tuple[str, ...]]] = []
        #: fact-relation names are reserved: many-to-many facts are
        #: named after their relation, so attribute facts must dodge.
        self.reserved: set[str] = set()

    def _canonical_key(self, relation: Relation) -> tuple[int, int, int]:
        rank = {"anchor": 0, "self": 0, "subtype": 1, "fact": 2}[
            self.classes[relation.name].kind
        ]
        # The forward mapper lays anchored relations out sorted by
        # ancestor depth (supertypes first), so a satellite lifted as a
        # subtype of a subtype must sort after every depth-1 subtype
        # regardless of where its CREATE TABLE sat in the source text.
        return rank, self._subtype_depth(relation.name), self._text_position(
            relation.name
        )

    def _subtype_depth(self, relation_name: str) -> int:
        depth = 0
        seen = {relation_name}
        cls = self.classes.get(relation_name)
        while cls is not None and cls.kind == "subtype":
            depth += 1
            parent = cls.super_name
            if parent is None or parent in seen:
                break
            seen.add(parent)
            cls = self.classes.get(parent)
        return depth

    def _text_position(self, relation_name: str) -> int:
        for index, relation in enumerate(self.r.relations):
            if relation.name == relation_name:
                return index
        return len(self.r.relations)

    # -- report helpers -------------------------------------------------

    def entry(
        self,
        element: str,
        kind: str,
        relation: str | None,
        clause: str,
        sources: tuple[str, ...] = (),
    ) -> None:
        self.entries.append(LiftEntry(element, kind, relation, clause, sources))

    def note(self, kind: str, subject: str, detail: str) -> None:
        self.notes.append(LiftNote(kind, subject, detail))

    def fact_name(self, stem: str) -> str:
        # naming.disambiguate over reserved | fact_names, without
        # building the union on every call.
        reserved, taken = self.reserved, self.fact_names
        name, counter = stem, 2
        while name in reserved or name in taken:
            name = f"{stem}_{counter}"
            counter += 1
        taken.add(name)
        return name

    # -- main entry -----------------------------------------------------

    def lift(self) -> LiftResult:
        self._index_value_checks()
        self._classify()
        self._find_bare_sublinks()
        # Process relations in the forward mapper's canonical layout
        # order — plain anchors, then sub-relations, then fact
        # relations — so the lift's insertion order (which drives
        # constraint numbering on remap) is invariant under the
        # one-time relation reordering of the first round trip.
        self.ordered = sorted(
            (r for r in self.r.relations
             if self.classes[r.name].kind != "skipped"),
            key=self._canonical_key,
        )
        self._create_object_types()
        for relation in self.ordered:
            cls = self.classes[relation.name]
            if cls.kind in ("anchor", "self", "subtype"):
                self._lift_entity_relation(relation, cls)
            elif cls.kind == "fact":
                self._lift_fact_relation(relation)
        self._lift_checks()
        self._lift_views()
        self._lift_external_keys()
        schema = self.b.build()
        options = MappingOptions(
            lexical_preferences=tuple(self.preferences)
        )
        report = LiftReport(
            schema_name=self.r.name,
            dialect=self.parsed.dialect,
            entries=tuple(self.entries),
            notes=tuple(self.notes),
        )
        return LiftResult(schema=schema, options=options, report=report)

    # -- pass 1: value restrictions ------------------------------------

    def _index_value_checks(self) -> None:
        for relation in self.r.relations:
            for check in self.r.checks(relation.name):
                if check.comment != VALUE_RESTRICTION:
                    continue
                shape = value_restriction_operands(check.predicate)
                if shape is None:
                    self.note(
                        "dropped",
                        check.name,
                        "value restriction with an unrecognized predicate",
                    )
                    self.consumed.add(check.name)
                    continue
                column, values, _nullable = shape
                self.values_by_col[(relation.name, column)] = (
                    values,
                    check.name,
                )
                self.consumed.add(check.name)

    # -- pass 2: relation classification -------------------------------

    def _classify(self) -> None:
        for relation in self.r.relations:
            self.classes[relation.name] = self._classify_one(relation)
        for name, cls in self.classes.items():
            if cls.kind == "fact":
                self.reserved.add(name)

    def _classify_one(self, relation: Relation) -> _RelClass:
        pk = self.r.primary_key(relation.name)
        if pk is None:
            self.note(
                "dropped",
                relation.name,
                "relation without a primary key cannot be lifted",
            )
            return _RelClass("skipped")
        pkset = set(pk.columns)
        for fk in self.r.foreign_keys(relation.name):
            if set(fk.columns) != pkset:
                continue
            ref = fk.referenced_relation
            ref_pk = self.r.primary_key(ref)
            if ref_pk is not None and tuple(fk.referenced_columns) == tuple(
                ref_pk.columns
            ):
                self.consumed.add(fk.name)
                return _RelClass(
                    "subtype", super_name=ref, style="fk",
                    consumed=(fk.name,),
                )
            ck = next(
                (
                    c
                    for c in self.r.candidate_keys(ref)
                    if tuple(c.columns) == tuple(fk.referenced_columns)
                ),
                None,
            )
            if ck is not None and len(pk.columns) == 1:
                self.consumed.add(fk.name)
                self.consumed.add(ck.name)
                for column in ck.columns:
                    self.is_cols[(ref, column)] = relation.name
                self._consume_membership_view(relation.name, pk, ref, ck)
                return _RelClass(
                    "subtype", super_name=ref, style="is",
                    own_lot=pk.columns[0], consumed=(fk.name, ck.name),
                )
        if pkset == set(relation.attribute_names) and len(pk.columns) >= 2:
            return _RelClass("fact")
        if len(pk.columns) == 1 and pk.columns[0] == relation.name:
            return _RelClass("self", own_lot=pk.columns[0])
        if len(pk.columns) == 1:
            return _RelClass("anchor", own_lot=pk.columns[0])
        self.note(
            "dropped",
            relation.name,
            "compound primary key without a covering foreign key",
        )
        return _RelClass("skipped")

    def _consume_membership_view(
        self, sub: str, pk, super_rel: str, ck: CandidateKey
    ) -> None:
        for view in self.r.view_constraints():
            if not isinstance(view, EqualityViewConstraint):
                continue
            left, right = view.left, view.right
            if (
                left.relation == sub
                and tuple(left.columns) == tuple(pk.columns)
                and left.where is None
                and right.relation == super_rel
                and tuple(right.columns) == tuple(ck.columns)
                and right.where == presence(ck.columns)
            ):
                self.consumed_views.add(view.name)
                return

    def _find_bare_sublinks(self) -> None:
        referenced = {
            (fk.referenced_relation, tuple(fk.referenced_columns))
            for fk in self.r.foreign_keys()
        }
        for relation in self.r.relations:
            if self.classes[relation.name].kind == "skipped":
                continue
            for ck in self.r.candidate_keys(relation.name):
                if ck.name in self.consumed:
                    continue
                if not all(c.endswith("_Is") for c in ck.columns):
                    continue
                if not all(
                    relation.attribute(c).nullable for c in ck.columns
                ):
                    continue
                if (relation.name, tuple(ck.columns)) in referenced:
                    continue
                lot = ck.columns[0][: -len("_Is")]
                entity = (
                    lot[: -len("_Id")] if lot.endswith("_Id")
                    else f"{lot}_Sub"
                )
                self.consumed.add(ck.name)
                for column in ck.columns:
                    self.is_cols[(relation.name, column)] = entity
                self.bare_by_super.setdefault(relation.name, []).append(
                    _BareSublink(entity, lot, tuple(ck.columns), ck.name)
                )

    # -- pass 3: object types -------------------------------------------

    def _datatype_of(self, relation: Relation, column: str) -> DataType:
        return self.r.domain(relation.attribute(column).domain).datatype

    def _register_lot(
        self,
        name: str,
        datatype: DataType,
        values: tuple | None,
        relation: str,
        clause: str,
        *,
        value_source: str | None = None,
        treat_as_entity: bool = False,
    ) -> None:
        if name in self.lots:
            have_dt, have_values = self.lots[name]
            if have_dt != datatype or have_values != values:
                raise LiftError(
                    f"column of relation {relation!r} reuses LOT {name!r} "
                    f"with a different datatype or value set"
                )
            return
        if name in self.object_types:
            raise LiftError(
                f"LOT {name!r} (from {relation!r}) collides with a "
                f"non-lexical object type"
            )
        if treat_as_entity:
            self.b.lot_nolot(name, datatype)
        else:
            self.b.lot(name, datatype)
        self.lots[name] = (datatype, values)
        self.object_types.add(name)
        self.entry(name, "object-type", relation, clause)
        if values is not None:
            self.b.values(name, _lift_values(values, datatype))
            self.entry(
                self._last_constraint(),
                "constraint",
                relation,
                f"CHECK value restriction on {name!r}",
                (value_source,) if value_source else (),
            )

    def _create_object_types(self) -> None:
        for relation in self.ordered:
            cls = self.classes[relation.name]
            if cls.kind in ("anchor", "subtype"):
                self.b.nolot(relation.name)
                self.object_types.add(relation.name)
                self.entry(
                    relation.name, "object-type", relation.name,
                    f"CREATE TABLE {relation.name}",
                )
            if cls.kind in ("anchor", "self") or (
                cls.kind == "subtype" and cls.style == "is"
            ):
                column = cls.own_lot
                datatype = self._datatype_of(relation, column)
                values = self.values_by_col.get((relation.name, column))
                if cls.kind == "self":
                    self._register_lot(
                        relation.name,
                        datatype,
                        values[0] if values else None,
                        relation.name,
                        f"single-column PRIMARY KEY {column!r}",
                        value_source=values[1] if values else None,
                        treat_as_entity=True,
                    )
                else:
                    self._register_lot(
                        column,
                        datatype,
                        values[0] if values else None,
                        relation.name,
                        f"PRIMARY KEY column {column!r}",
                        value_source=values[1] if values else None,
                    )
        for bares in self.bare_by_super.values():
            for bare in bares:
                self.b.nolot(bare.entity)
                self.object_types.add(bare.entity)
                self.entry(
                    bare.entity, "object-type", None,
                    f"sublink columns {', '.join(bare.is_columns)} "
                    f"(no sub-relation)",
                    (bare.ck_name,),
                )

    # -- pass 4: entity relations ---------------------------------------

    def _lift_entity_relation(
        self, relation: Relation, cls: _RelClass
    ) -> None:
        pk = self.r.primary_key(relation.name)
        pkset = set(pk.columns)
        if cls.kind == "anchor":
            fact = self.fact_name(f"{relation.name}_has_{cls.own_lot}")
            self.b.identifier(relation.name, cls.own_lot, fact=fact)
            self.entry(
                fact, "fact", relation.name,
                f"PRIMARY KEY ( {cls.own_lot} )",
                (pk.name,),
            )
            self.preferences.append((relation.name, (fact,)))
            self._register_location(
                relation.name, tuple(pk.columns), (), (fact, "with")
            )
        elif cls.kind == "self":
            self.preferences.append((relation.name, ("self",)))
        else:  # subtype
            sublink = naming.disambiguate(
                f"{relation.name}_IS_{cls.super_name}", self.sublink_names
            )
            self.sublink_names.add(sublink)
            if cls.style == "is":
                fact = self.fact_name(
                    f"{relation.name}_has_{cls.own_lot}"
                )
                self.b.identifier(relation.name, cls.own_lot, fact=fact)
                self.entry(
                    fact, "fact", relation.name,
                    f"PRIMARY KEY ( {cls.own_lot} )",
                    (pk.name,),
                )
                self.preferences.append((relation.name, (fact,)))
                self._register_location(
                    relation.name, tuple(pk.columns), (), (fact, "with")
                )
            else:
                self.preferences.append(
                    (relation.name, (f"via:{sublink}",))
                )
            self.b.subtype(
                relation.name, cls.super_name, name=sublink
            )
            self.entry(
                sublink, "sublink", relation.name,
                f"FOREIGN KEY covering the PRIMARY KEY "
                f"REFERENCES {cls.super_name}",
                cls.consumed,
            )
        self.consumed.add(pk.name)
        single_fks = {
            fk.columns[0]: fk
            for fk in self.r.foreign_keys(relation.name)
            if len(fk.columns) == 1 and fk.name not in self.consumed
        }
        for attr in relation.attributes:
            if attr.name in pkset:
                continue
            if (relation.name, attr.name) in self.is_cols:
                continue
            fk = single_fks.get(attr.name)
            if fk is not None and self._lift_reference_column(
                relation, attr, fk
            ):
                continue
            self._lift_plain_column(relation, attr)
        for bare in self.bare_by_super.get(relation.name, ()):
            self._lift_bare_sublink(relation, bare)

    def _single_column_ck(
        self, relation_name: str, column: str
    ) -> CandidateKey | None:
        for ck in self.r.candidate_keys(relation_name):
            if ck.name not in self.consumed and ck.columns == (column,):
                return ck
        return None

    def _lift_reference_column(
        self, relation: Relation, attr: Attribute, fk: ForeignKey
    ) -> bool:
        target = fk.referenced_relation
        target_cls = self.classes.get(target)
        if target_cls is None or target_cls.kind not in (
            "anchor", "self", "subtype"
        ):
            return False
        leaf = self.r.primary_key(target).columns[0]
        prefix = f"{leaf}_"
        if not attr.name.startswith(prefix):
            self.note(
                "fallback",
                fk.name,
                f"column {attr.name!r} does not carry the key prefix "
                f"{prefix!r}; lifted as a plain attribute without the "
                f"reference",
            )
            return False
        far_role = attr.name[len(prefix):]
        ck = self._single_column_ck(relation.name, attr.name)
        sources = [fk.name]
        if ck is not None:
            self.consumed.add(ck.name)
            sources.append(ck.name)
        fact = self.fact_name(f"{relation.name}_has_{attr.name}")
        total = not attr.nullable
        self.b.attribute(
            relation.name,
            target,
            fact=fact,
            owner_role="with" if far_role != "with" else "of",
            target_role=far_role,
            total=total,
            unique_target=ck is not None,
        )
        self.entry(
            fact, "fact", relation.name,
            f"column {attr.name} REFERENCES {target}",
            tuple(sources),
        )
        self._register_fact_locations(
            relation, attr.name, fact, far_role, total
        )
        return True

    def _split_column(
        self, relation: Relation, attr: Attribute
    ) -> tuple[str, str, bool]:
        """``(lot, far role, exists)`` for a plain column, by scanning
        underscore split points left to right."""
        datatype = self._datatype_of(relation, attr.name)
        values = self.values_by_col.get((relation.name, attr.name))
        value_set = values[0] if values else None
        first_free: tuple[str, str] | None = None
        name = attr.name
        index = name.find("_")
        while index != -1:
            candidate, rest = name[:index], name[index + 1:]
            if rest:
                if candidate in self.lots:
                    have_dt, have_values = self.lots[candidate]
                    if have_dt == datatype and have_values == value_set:
                        return candidate, rest, True
                elif (
                    candidate not in self.object_types
                    and first_free is None
                ):
                    first_free = (candidate, rest)
            index = name.find("_", index + 1)
        if first_free is not None:
            return first_free[0], first_free[1], False
        # No usable split point: mint a LOT from the whole column.  The
        # remapped column gains an ``_of`` suffix (one-time shift; the
        # next lift finds the split and the fixpoint holds).
        self.note(
            "fallback",
            f"{relation.name}.{attr.name}",
            "no underscore split point; lifted as a whole-column LOT",
        )
        lot = naming.disambiguate(attr.name, self.object_types)
        return lot, "of", False

    def _lift_plain_column(
        self, relation: Relation, attr: Attribute
    ) -> None:
        lot, far_role, exists = self._split_column(relation, attr)
        datatype = self._datatype_of(relation, attr.name)
        values = self.values_by_col.get((relation.name, attr.name))
        sources = []
        if not exists:
            self._register_lot(
                lot,
                datatype,
                values[0] if values else None,
                relation.name,
                f"column {attr.name} ({datatype.render()})",
                value_source=values[1] if values else None,
            )
        if values is not None:
            sources.append(values[1])
        ck = self._single_column_ck(relation.name, attr.name)
        if ck is not None:
            self.consumed.add(ck.name)
            sources.append(ck.name)
        fact = self.fact_name(f"{relation.name}_has_{attr.name}")
        total = not attr.nullable
        self.b.attribute(
            relation.name,
            lot,
            fact=fact,
            owner_role="with" if far_role != "with" else "of",
            target_role=far_role,
            total=total,
            unique_target=ck is not None,
        )
        clause = f"column {attr.name}"
        if total:
            clause += " NOT NULL"
        self.entry(fact, "fact", relation.name, clause, tuple(sources))
        self._register_fact_locations(
            relation, attr.name, fact, far_role, total
        )

    def _register_fact_locations(
        self,
        relation: Relation,
        column: str,
        fact: str,
        far_role: str,
        total: bool,
    ) -> None:
        near_role = "with" if far_role != "with" else "of"
        self.colrole[(relation.name, column)] = (fact, near_role, far_role)
        pk = self.r.primary_key(relation.name)
        presence = () if total else (column,)
        self._register_location(
            relation.name, tuple(pk.columns), presence, (fact, near_role)
        )
        self._register_location(
            relation.name, (column,), presence, (fact, far_role)
        )

    def _register_location(
        self,
        relation: str,
        columns: tuple[str, ...],
        presence: tuple[str, ...],
        item: object,
    ) -> None:
        key = (relation, columns, frozenset(presence))
        self.locindex.setdefault(key, item)

    def _lift_bare_sublink(
        self, relation: Relation, bare: _BareSublink
    ) -> None:
        datatype = self._datatype_of(relation, bare.is_columns[0])
        self._register_lot(
            bare.lot,
            datatype,
            None,
            relation.name,
            f"sublink column {bare.is_columns[0]}",
        )
        fact = self.fact_name(f"{bare.entity}_has_{bare.lot}")
        self.b.identifier(bare.entity, bare.lot, fact=fact)
        sublink = naming.disambiguate(
            f"{bare.entity}_IS_{relation.name}", self.sublink_names
        )
        self.sublink_names.add(sublink)
        self.b.subtype(bare.entity, relation.name, name=sublink)
        self.preferences.append((bare.entity, (fact,)))
        self.entry(
            sublink, "sublink", relation.name,
            f"candidate key over {', '.join(bare.is_columns)}",
            (bare.ck_name,),
        )
        self._register_location(
            relation.name,
            bare.is_columns,
            bare.is_columns,
            f"sublink:{sublink}",
        )

    # -- pass 5: fact relations -----------------------------------------

    def _lift_fact_relation(self, relation: Relation) -> None:
        pk = self.r.primary_key(relation.name)
        self.consumed.add(pk.name)
        sides: list[tuple[tuple[str, ...], str, str, tuple[str, ...]]] = []
        claimed: set[str] = set()
        for fk in self.r.foreign_keys(relation.name):
            target = fk.referenced_relation
            target_cls = self.classes.get(target)
            if target_cls is None or target_cls.kind not in (
                "anchor", "self", "subtype"
            ):
                continue
            leaf = self.r.primary_key(target).columns[0]
            column = fk.columns[0]
            prefix = f"{leaf}_"
            if len(fk.columns) != 1 or not column.startswith(prefix):
                continue
            sides.append(
                (tuple(fk.columns), target, column[len(prefix):], (fk.name,))
            )
            claimed.update(fk.columns)
            self.consumed.add(fk.name)
        for attr in relation.attributes:
            if attr.name in claimed:
                continue
            lot, role, exists = self._split_column(relation, attr)
            if not exists:
                datatype = self._datatype_of(relation, attr.name)
                values = self.values_by_col.get(
                    (relation.name, attr.name)
                )
                self._register_lot(
                    lot,
                    datatype,
                    values[0] if values else None,
                    relation.name,
                    f"fact-relation column {attr.name}",
                    value_source=values[1] if values else None,
                    treat_as_entity=True,
                )
            sides.append(((attr.name,), lot, role, ()))
        if len(sides) != 2:
            self.note(
                "dropped",
                relation.name,
                f"fact relation with {len(sides)} role groups cannot "
                f"be lifted to a binary fact",
            )
            return
        # Sides in column order, so the remapped relation lays its
        # columns out identically.
        order = {attr.name: i for i, attr in enumerate(relation.attributes)}
        sides.sort(key=lambda side: order[side[0][0]])
        (cols1, player1, role1, src1), (cols2, player2, role2, src2) = sides
        if role1 == role2:
            # A compound-key entity (a primary key over all columns, no
            # covering foreign key) has no far roles to name its sides.
            raise LiftError(
                f"relation {relation.name!r}: its primary key spans all its "
                f"columns, but both lift to the role {role1!r}; a "
                f"compound-key entity cannot be lifted to a binary fact"
            )
        pk_cols = set(pk.columns)
        if pk_cols == set(cols1) | set(cols2):
            unique = "pair"
        elif pk_cols == set(cols1):
            unique = "first"
        else:
            unique = "second"
        self.b.fact(
            relation.name,
            (player1, role1),
            (player2, role2),
            unique=unique,
        )
        self.fact_names.add(relation.name)
        self.entry(
            relation.name, "fact", relation.name,
            f"CREATE TABLE {relation.name} "
            f"(PK over {'all' if unique == 'pair' else 'one side of'} "
            f"its columns)",
            src1 + src2 + (pk.name,),
        )
        self._register_location(
            relation.name, cols1, (), (relation.name, role1)
        )
        self._register_location(
            relation.name, cols2, (), (relation.name, role2)
        )
        self.colrole[(relation.name, cols1[0])] = (
            relation.name, role1, role2,
        )
        self.colrole[(relation.name, cols2[0])] = (
            relation.name, role2, role1,
        )

    # -- pass 6: CHECK constraints --------------------------------------

    def _presence_item(self, relation: str, predicate: Predicate):
        """The constraint item whose presence test in ``relation`` is
        ``predicate``: a fact role or a sublink for one column, a
        sublink for several; None when nothing lifted matches."""
        columns = presence_columns(predicate) or ()
        if len(columns) == 1:
            triple = self.colrole.get((relation, columns[0]))
            if triple is not None:
                fact, near_role, _far = triple
                return (fact, near_role)
        entities = {self.is_cols.get((relation, c)) for c in columns}
        if len(entities) == 1 and None not in entities:
            entity = entities.pop()
            for name in self.sublink_names:
                if name.startswith(f"{entity}_IS_"):
                    return f"sublink:{name}"
        return None

    def _presence_items(self, relation: str, presences) -> list | None:
        """The item of every presence, or None when one does not
        resolve (or the predicate had another form)."""
        items = [self._presence_item(relation, p) for p in presences or ()]
        return items if items and None not in items else None

    def _lift_checks(self) -> None:
        for relation in self.ordered:
            for check in self.r.checks(relation.name):
                if check.name in self.consumed:
                    continue
                self.consumed.add(check.name)
                self._lift_check(relation.name, check)

    def _lift_check(self, relation: str, check: CheckConstraint) -> None:
        handler = {
            DEPENDENT_EXISTENCE: self._lift_dependent_existence,
            EQUAL_EXISTENCE: self._lift_equal_existence,
            EXCLUSION: self._lift_exclusion,
            TOTAL_UNION: self._lift_total_union,
        }.get(check.comment or "")
        if handler is None:
            self.note(
                "dropped",
                check.name,
                f"CHECK with comment {check.comment!r} has no binary "
                f"counterpart that survives a remap",
            )
            return
        if not handler(relation, check):
            self.note(
                "dropped",
                check.name,
                f"{check.comment} CHECK with an unresolvable shape",
            )

    def _lift_dependent_existence(
        self, relation: str, check: CheckConstraint
    ) -> bool:
        operands = dependent_existence_operands(check.predicate)
        items = self._presence_items(relation, operands)
        if items is None:
            return False
        self.b.subset(*items)
        dependent, required = (_columns_text((o,)) for o in operands)
        self.entry(
            self._last_constraint(), "constraint", relation,
            f"CHECK dependent existence "
            f"({dependent} requires {required})",
            (check.name,),
        )
        return True

    def _lift_equal_existence(
        self, relation: str, check: CheckConstraint
    ) -> bool:
        presences = equal_existence_operands(check.predicate)
        items = self._presence_items(relation, presences)
        if items is None:
            return False
        self.b.equality(*items)
        self.entry(
            self._last_constraint(), "constraint", relation,
            f"CHECK equal existence over {_columns_text(presences)}",
            (check.name,),
        )
        return True

    def _lift_exclusion(
        self, relation: str, check: CheckConstraint
    ) -> bool:
        presences = exclusion_operands(check.predicate)
        items = self._presence_items(relation, presences)
        if items is None or len(set(items)) < 2:
            return False
        self.b.exclusion(*dict.fromkeys(items))
        self.entry(
            self._last_constraint(), "constraint", relation,
            "CHECK pairwise exclusion",
            (check.name,),
        )
        return True

    def _lift_total_union(
        self, relation: str, check: CheckConstraint
    ) -> bool:
        if self.classes[relation].kind not in ("anchor", "self", "subtype"):
            return False
        presences = total_union_operands(check.predicate)
        items = self._presence_items(relation, presences)
        if items is None:
            return False
        self.b.total_union(relation, *items)
        self.entry(
            self._last_constraint(), "constraint", relation,
            "CHECK total union over the anchor",
            (check.name,),
        )
        return True

    def _last_constraint(self) -> str:
        return next(reversed(self.b.schema.constraint_names))

    # -- pass 7: view constraints ---------------------------------------

    def _resolve_side(self, side: SelectSpec):
        where = presence_columns(side.where)
        if where is None:
            return None
        return self.locindex.get(
            (side.relation, tuple(side.columns), frozenset(where))
        )

    def _lift_views(self) -> None:
        # The emitter files each view under the alphabetically-first
        # relation it mentions; order groups by that relation's
        # canonical position (keeping text order within a group) so
        # the lift is invariant under relation reordering.
        position = {
            relation.name: index
            for index, relation in enumerate(self.ordered)
        }

        def group(view) -> tuple[int, ...]:
            host = min(side.relation for side in view.sides)
            return (position.get(host, len(position)),)

        views = sorted(
            enumerate(self.r.view_constraints()),
            key=lambda pair: (group(pair[1]), pair[0]),
        )
        for _index, view in views:
            if view.name in self.consumed_views:
                self.consumed.add(view.name)
                continue
            self.consumed.add(view.name)
            if isinstance(view, EqualityViewConstraint):
                self._lift_equality_view(view)
            elif isinstance(view, SubsetViewConstraint):
                self._lift_subset_view(view)

    def _lift_equality_view(self, view: EqualityViewConstraint) -> None:
        left = self._resolve_side(view.left)
        right = self._resolve_side(view.right)
        if left is None or right is None or left == right:
            self.note(
                "dropped",
                view.name,
                "equality view whose sides do not resolve to lifted "
                "roles (indicator or pseudo machinery)",
            )
            return
        self.b.equality(left, right)
        self.entry(
            self._last_constraint(), "constraint", view.left.relation,
            f"EQUALITY VIEW {view.left.relation} ~ {view.right.relation}",
            (view.name,),
        )

    def _lift_subset_view(self, view: SubsetViewConstraint) -> None:
        sub_spec, super_spec = view.subset, view.superset
        super_item = self._resolve_side(super_spec)
        anchor = self._anchor_side(sub_spec)
        if (
            anchor is not None
            and isinstance(super_item, tuple)
            and self.classes.get(super_spec.relation, _RelClass("")).kind
            == "fact"
        ):
            fact, role = super_item
            player = self._fact_player(fact, role)
            if player == anchor:
                self.b.total(super_item)
                self.entry(
                    self._last_constraint(), "constraint",
                    super_spec.relation,
                    f"SUBSET VIEW: every {anchor} row appears in "
                    f"{super_spec.relation} (total role)",
                    (view.name,),
                )
                return
        sub_item = self._resolve_side(sub_spec)
        if sub_item is None or super_item is None or sub_item == super_item:
            self.note(
                "dropped",
                view.name,
                "subset view whose sides do not resolve to lifted "
                "roles (satellite totality or indicator machinery)",
            )
            return
        self.b.subset(sub_item, super_item)
        self.entry(
            self._last_constraint(), "constraint", sub_spec.relation,
            f"SUBSET VIEW {sub_spec.relation} <= {super_spec.relation}",
            (view.name,),
        )

    def _anchor_side(self, spec: SelectSpec) -> str | None:
        """The entity whose anchor-key select this side is, if any."""
        if spec.where is not None:
            return None
        cls = self.classes.get(spec.relation)
        if cls is None or cls.kind not in ("anchor", "self", "subtype"):
            return None
        pk = self.r.primary_key(spec.relation)
        if pk is None or tuple(spec.columns) != tuple(pk.columns):
            return None
        return spec.relation

    def _fact_player(self, fact: str, role: str) -> str | None:
        fact_type = self.b.schema.fact_type(fact)
        for candidate in (fact_type.first, fact_type.second):
            if candidate.name == role:
                return candidate.player
        return None

    # -- pass 8: remaining candidate keys -------------------------------

    def _lift_external_keys(self) -> None:
        for relation in self.ordered:
            for ck in self.r.candidate_keys(relation.name):
                if ck.name in self.consumed:
                    continue
                self.consumed.add(ck.name)
                roles = []
                for column in ck.columns:
                    triple = self.colrole.get((relation.name, column))
                    if triple is None:
                        roles = None
                        break
                    fact, _near, far = triple
                    roles.append((fact, far))
                if not roles:
                    self.note(
                        "dropped",
                        ck.name,
                        "candidate key over columns that did not lift "
                        "to fact roles",
                    )
                    continue
                self.b.unique(*roles)
                self.entry(
                    self._last_constraint(), "constraint", relation.name,
                    f"UNIQUE ( {', '.join(ck.columns)} )",
                    (ck.name,),
                )


# ----------------------------------------------------------------------
# Text helpers
# ----------------------------------------------------------------------


def _columns_text(presences) -> str:
    """The columns of presence tests, for a report clause."""
    return ", ".join(c for p in presences for c in presence_columns(p) or ())


def _lift_values(values: tuple, datatype: DataType) -> tuple:
    """Value-set literals, converting the ``'Y'``/``'N'`` spelling back
    to booleans on BOOLEAN LOTs (the emitter renders both the same)."""
    if datatype.kind is DataTypeKind.BOOLEAN and set(values) <= {"Y", "N"}:
        return tuple(value == "Y" for value in values)
    return values


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def lift_schema(parsed: ParseResult) -> LiftResult:
    """Lift a parsed DDL script to a binary schema with provenance."""
    with _obs_span(
        "reverse.lift", schema=parsed.schema.name, dialect=parsed.dialect
    ):
        return _Lifter(parsed).lift()


def lift_ddl(text: str, dialect: str = "sql2") -> LiftResult:
    """Parse and lift DDL text in one step."""
    with _obs_span("reverse.parse", dialect=dialect):
        parsed = parse_ddl(text, dialect)
    return lift_schema(parsed)


# ----------------------------------------------------------------------
# The differential fixpoint harness
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FixpointLeg:
    """One check of the differential harness."""

    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class FixpointReport:
    """The outcome of :func:`check_fixpoint` on one schema."""

    schema_name: str
    dialect: str
    legs: tuple[FixpointLeg, ...]
    lift: LiftResult
    ddl_first: str = field(repr=False, default="")
    ddl_second: str = field(repr=False, default="")

    @property
    def ok(self) -> bool:
        return all(leg.ok for leg in self.legs)

    def describe(self) -> str:
        lines = [
            f"fixpoint on {self.schema_name!r} ({self.dialect}): "
            f"{'PASS' if self.ok else 'FAIL'}"
        ]
        for leg in self.legs:
            mark = "ok " if leg.ok else "FAIL"
            lines.append(f"  [{mark}] {leg.name}: {leg.detail}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """A JSON-serializable view (the CLI's ``--format json``)."""
        return {
            "schema": self.schema_name,
            "dialect": self.dialect,
            "ok": self.ok,
            "legs": [
                {"name": leg.name, "ok": leg.ok, "detail": leg.detail}
                for leg in self.legs
            ],
            "lift": self.lift.report.as_dict(),
        }


def _schema_signature(schema: RelationalSchema) -> list[str]:
    """A name-independent structural digest of a relational schema."""
    lines: list[str] = []
    for relation in schema.relations:
        columns = ",".join(
            f"{a.name}:{a.domain}:{'null' if a.nullable else 'notnull'}"
            for a in relation.attributes
        )
        lines.append(f"rel {relation.name}({columns})")
        pk = schema.primary_key(relation.name)
        if pk is not None:
            lines.append(f"pk {relation.name}({','.join(pk.columns)})")
        for ck in schema.candidate_keys(relation.name):
            lines.append(f"ck {relation.name}({','.join(ck.columns)})")
        for fk in schema.foreign_keys(relation.name):
            lines.append(
                f"fk {relation.name}({','.join(fk.columns)})->"
                f"{fk.referenced_relation}"
                f"({','.join(fk.referenced_columns)})"
            )
        for check in schema.checks(relation.name):
            lines.append(
                f"check {relation.name} {check.predicate.render()}"
            )
    for view in schema.view_constraints():
        tag = "eqview" if isinstance(view, EqualityViewConstraint) else "subview"
        rendered = ";".join(
            f"{s.relation}({','.join(s.columns)})"
            f"[{s.where.render() if s.where else ''}]"
            for s in view.sides
        )
        lines.append(f"{tag} {rendered}")
    return sorted(lines)


def _verdict_keys(schema: BinarySchema) -> list[tuple[str, str, str, str]]:
    from repro.analyzer.implication import check_implications

    return sorted(v.sort_key() for v in check_implications(schema).verdicts)


def check_fixpoint(
    schema: BinarySchema,
    options: MappingOptions | None = None,
    *,
    dialect: str = "sql2",
    empirical_scale: int = 0,
    seed: int = 7,
) -> FixpointReport:
    """Map, lift, and remap a schema; assert the lift is a fixpoint.

    With ``DDL1 = emit(map(S))``, ``L1 = lift(DDL1)``, ``DDL2 =
    emit(map(L1))``, ``L2 = lift(DDL2)`` and ``DDL3 = emit(map(L2))``,
    three legs always run and a fourth on request, per the
    differential methodology:

    * **ddl-idempotent** — ``DDL3 == DDL2`` byte-for-byte: one round
      may canonicalize the DDL, the second must not move it.
    * **structure** — the generic relational schemas behind ``DDL2``
      and ``DDL3`` have identical structural digests.
    * **implication** — the implication engine saturates L1 and L2 to
      the same verdict closure, and L1 is satisfiable.
    * **empirical** (``empirical_scale > 0``) — the executor harness
      finds seeded populations of the source and of L1 clean, each
      with a lossless round trip.

    The rounds run with CPython's cyclic collector paused: they leave
    no cyclic garbage, so the collections they would trigger walk the
    live heap and free nothing (docs/PERFORMANCE.md).  Only a call
    that found the collector on turns it back on, so nested calls,
    concurrent threads and a caller that keeps it off all end in the
    state they began in.
    """
    opts = options or MappingOptions()
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        with _obs_span("reverse.fixpoint", schema=schema.name, dialect=dialect):
            return _check_fixpoint(schema, opts, dialect, empirical_scale, seed)
    finally:
        if paused:
            gc.enable()


def _remap(lift: LiftResult, dialect: str) -> tuple[str, list[str]]:
    """Map a lift again and keep only its DDL and structural digest,
    so that one mapping session at a time stays alive."""
    from repro.mapper.engine import map_schema

    result = map_schema(lift.schema, lift.options)
    return result.sql(dialect), _schema_signature(result.relational)


def _check_fixpoint(
    schema: BinarySchema,
    opts: MappingOptions,
    dialect: str,
    empirical_scale: int,
    seed: int,
) -> FixpointReport:
    from repro.mapper.engine import map_schema

    ddl1 = map_schema(schema, opts).sql(dialect)
    lift1 = lift_ddl(ddl1, dialect)
    ddl2, sig2 = _remap(lift1, dialect)
    lift2 = lift_ddl(ddl2, dialect)
    ddl3, sig3 = _remap(lift2, dialect)

    legs: list[FixpointLeg] = []
    if ddl3 == ddl2:
        legs.append(
            FixpointLeg(
                "ddl-idempotent",
                True,
                f"remapped DDL stable at {len(ddl2.splitlines())} lines"
                + ("" if ddl2 == ddl1 else " (one canonicalization round)"),
            )
        )
    else:
        diff = _first_divergence(ddl2, ddl3)
        legs.append(FixpointLeg("ddl-idempotent", False, diff))

    if sig2 == sig3:
        legs.append(
            FixpointLeg(
                "structure",
                True,
                f"{len(sig2)} structural facts identical across rounds",
            )
        )
    else:
        missing = [line for line in sig2 if line not in sig3]
        extra = [line for line in sig3 if line not in sig2]
        legs.append(
            FixpointLeg(
                "structure",
                False,
                f"lost: {missing[:3]!r} gained: {extra[:3]!r}",
            )
        )

    verdicts1 = _verdict_keys(lift1.schema)
    verdicts2 = _verdict_keys(lift2.schema)
    from repro.analyzer.implication import check_implications

    satisfiable = check_implications(lift1.schema).is_satisfiable
    if verdicts1 == verdicts2 and satisfiable:
        legs.append(
            FixpointLeg(
                "implication",
                True,
                f"both lifts saturate to the same closure "
                f"({len(verdicts1)} verdicts, satisfiable)",
            )
        )
    else:
        detail = (
            "lifted schema unsatisfiable"
            if not satisfiable
            else f"verdict closures differ: "
            f"{len(verdicts1)} vs {len(verdicts2)}"
        )
        legs.append(FixpointLeg("implication", False, detail))

    if empirical_scale > 0:
        legs.append(
            _empirical_leg(
                schema, opts, lift1, empirical_scale, seed
            )
        )

    return FixpointReport(
        schema_name=schema.name,
        dialect=dialect,
        legs=tuple(legs),
        lift=lift1,
        ddl_first=ddl2,
        ddl_second=ddl3,
    )


def _empirical_leg(
    schema: BinarySchema,
    options: MappingOptions,
    lift: LiftResult,
    scale: int,
    seed: int,
) -> FixpointLeg:
    from repro.executor.harness import run_validation

    outcomes = []
    for label, target, opts in (
        ("source", schema, options),
        ("lifted", lift.schema, lift.options),
    ):
        report = run_validation(
            target, opts, scale=scale, seed=seed, inject=False
        )
        clean = not report.violations_on_valid and report.round_trip_ok
        outcomes.append((label, clean, report.rows_loaded))
    ok = all(clean for _label, clean, _rows in outcomes)
    detail = ", ".join(
        f"{label}: {'clean' if clean else 'VIOLATIONS'} "
        f"({rows} rows)"
        for label, clean, rows in outcomes
    )
    return FixpointLeg("empirical", ok, detail)


def _first_divergence(left: str, right: str) -> str:
    left_lines = left.splitlines()
    right_lines = right.splitlines()
    for index, (a, b) in enumerate(zip(left_lines, right_lines), 1):
        if a != b:
            return f"line {index}: {a!r} != {b!r}"
    return (
        f"length differs: {len(left_lines)} vs {len(right_lines)} lines"
    )
