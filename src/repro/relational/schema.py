"""The generic relational schema RIDL-M builds.

"The relational schema built by RIDL-M is independent of any target
DBMS, it is called a *generic relational schema*" (section 4.3).  From
it, DDL for any dialect is derived by :mod:`repro.sql`.

The model extends the textbook relational model with named *domains*
(the ``D Paper_ProgramId -- DATA TYPE CHAR(2)`` lines of the paper's
output) and with the extended constraint types of section 4.1 that
carry the semantics the plain relational model cannot express
(:mod:`repro.relational.constraints`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.brm.datatypes import DataType
from repro.errors import DuplicateNameError, SchemaError, UnknownElementError
from repro.relational.constraints import (
    CandidateKey,
    CheckConstraint,
    EqualityViewConstraint,
    ForeignKey,
    PrimaryKey,
    RelationalConstraint,
    SubsetViewConstraint,
)


@dataclass(frozen=True)
class Domain:
    """A named domain backing one or more attributes.

    RIDL-M creates one domain per lexical representation; foreign keys
    must "relate to compatible domains" (section 4, step 4), which the
    schema validates.
    """

    name: str
    datatype: DataType

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("domain names must be non-empty")


@dataclass(frozen=True)
class Attribute:
    """A column of a relation.

    ``nullable`` attributes are printed between brackets in the
    paper's graphical notation for relational schemas.
    """

    name: str
    domain: str
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("attribute names must be non-empty")


@dataclass
class Relation:
    """A relation schema: a name and an ordered list of attributes."""

    name: str
    attributes: tuple[Attribute, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("relation names must be non-empty")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError(
                f"relation {self.name!r} has duplicate attribute names"
            )

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Column names in declaration order."""
        return tuple(a.name for a in self.attributes)

    def attribute(self, name: str) -> Attribute:
        """The attribute with the given name."""
        for attribute in self.attributes:
            if attribute.name == name:
                return attribute
        raise UnknownElementError("attribute", f"{self.name}.{name}")

    def has_attribute(self, name: str) -> bool:
        """True when the relation has a column with this name."""
        return any(a.name == name for a in self.attributes)

    def with_attribute(self, attribute: Attribute) -> "Relation":
        """A copy of the relation with one more attribute."""
        if self.has_attribute(attribute.name):
            raise DuplicateNameError("attribute", f"{self.name}.{attribute.name}")
        return Relation(self.name, self.attributes + (attribute,))

    def without_attribute(self, name: str) -> "Relation":
        """A copy of the relation lacking the named attribute."""
        self.attribute(name)
        return Relation(
            self.name, tuple(a for a in self.attributes if a.name != name)
        )


class _ConstraintIndex:
    """The schema's constraints by kind, per relation, in insertion order.

    Built from the constraint dict in one pass and extended in place by
    :meth:`RelationalSchema.add_constraint`; a removal discards it.
    """

    __slots__ = (
        "primary",
        "candidates",
        "foreign",
        "checks",
        "all_foreign",
        "all_checks",
        "views",
    )

    def __init__(self, constraints: Iterable[RelationalConstraint]) -> None:
        self.primary: dict[str, PrimaryKey] = {}
        self.candidates: dict[str, list[CandidateKey]] = {}
        self.foreign: dict[str, list[ForeignKey]] = {}
        self.checks: dict[str, list[CheckConstraint]] = {}
        self.all_foreign: list[ForeignKey] = []
        self.all_checks: list[CheckConstraint] = []
        self.views: list[RelationalConstraint] = []
        for constraint in constraints:
            self.add(constraint)

    def add(self, constraint: RelationalConstraint) -> None:
        if isinstance(constraint, PrimaryKey):
            self.primary.setdefault(constraint.relation, constraint)
        elif isinstance(constraint, CandidateKey):
            self.candidates.setdefault(constraint.relation, []).append(constraint)
        elif isinstance(constraint, ForeignKey):
            self.foreign.setdefault(constraint.relation, []).append(constraint)
            self.all_foreign.append(constraint)
        elif isinstance(constraint, CheckConstraint):
            self.checks.setdefault(constraint.relation, []).append(constraint)
            self.all_checks.append(constraint)
        elif isinstance(constraint, (EqualityViewConstraint, SubsetViewConstraint)):
            self.views.append(constraint)


class RelationalSchema:
    """The generic relational schema: domains, relations, constraints."""

    def __init__(self, name: str = "schema") -> None:
        if not name:
            raise SchemaError("schema names must be non-empty")
        self.name = name
        self._domains: dict[str, Domain] = {}
        self._relations: dict[str, Relation] = {}
        self._constraints: dict[str, RelationalConstraint] = {}
        # Built on first lookup; None after a removal or in a fresh copy.
        self._index: _ConstraintIndex | None = None
        # stem -> n such that every ``stem_k`` with k < n is taken.
        self._fresh_floor: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Element management
    # ------------------------------------------------------------------

    def add_domain(self, domain: Domain) -> Domain:
        """Add a domain; re-adding an identical domain is a no-op."""
        existing = self._domains.get(domain.name)
        if existing is not None:
            if existing != domain:
                raise DuplicateNameError("domain", domain.name)
            return existing
        self._domains[domain.name] = domain
        return domain

    def add_relation(self, relation: Relation) -> Relation:
        """Add a relation; all attribute domains must exist."""
        if relation.name in self._relations:
            raise DuplicateNameError("relation", relation.name)
        for attribute in relation.attributes:
            if attribute.domain not in self._domains:
                raise UnknownElementError("domain", attribute.domain)
        self._relations[relation.name] = relation
        return relation

    def replace_relation(self, relation: Relation) -> Relation:
        """Swap in a new version of an existing relation.

        Constraints referring to dropped attributes must have been
        removed first; this is validated.
        """
        if relation.name not in self._relations:
            raise UnknownElementError("relation", relation.name)
        for attribute in relation.attributes:
            if attribute.domain not in self._domains:
                raise UnknownElementError("domain", attribute.domain)
        self._relations[relation.name] = relation
        problems = [
            c.name
            for c in self._constraints.values()
            if self._constraint_dangles(c)
        ]
        if problems:
            raise SchemaError(
                f"replacing relation {relation.name!r} breaks constraints: "
                f"{problems}"
            )
        return relation

    def remove_relation(self, name: str) -> None:
        """Remove a relation; constraints touching it must be gone first."""
        if name not in self._relations:
            raise UnknownElementError("relation", name)
        users = [
            c.name for c in self._constraints.values() if name in c.relations_used()
        ]
        if users:
            raise SchemaError(
                f"relation {name!r} is still used by constraints: {users}"
            )
        del self._relations[name]

    def add_constraint(self, constraint: RelationalConstraint) -> RelationalConstraint:
        """Add a constraint; everything it references must exist."""
        if constraint.name in self._constraints:
            raise DuplicateNameError("constraint", constraint.name)
        if self._constraint_dangles(constraint):
            raise SchemaError(
                f"constraint {constraint.name!r} references unknown "
                "relations or attributes"
            )
        self._check_constraint_specifics(constraint)
        self._constraints[constraint.name] = constraint
        if self._index is not None:
            self._index.add(constraint)
        return constraint

    def remove_constraint(self, name: str) -> None:
        """Remove a constraint by name."""
        if name not in self._constraints:
            raise UnknownElementError("constraint", name)
        del self._constraints[name]
        self._index = None
        stem, _, suffix = name.rpartition("_")
        floor = self._fresh_floor.get(stem)
        if floor is not None and suffix.isdecimal() and 0 < int(suffix) < floor:
            self._fresh_floor[stem] = int(suffix)

    def _constraint_dangles(self, constraint: RelationalConstraint) -> bool:
        for relation_name, columns in constraint.columns_used().items():
            relation = self._relations.get(relation_name)
            if relation is None:
                return True
            for column in columns:
                if not relation.has_attribute(column):
                    return True
        return False

    def _check_constraint_specifics(self, constraint: RelationalConstraint) -> None:
        if isinstance(constraint, PrimaryKey):
            existing = self.primary_key(constraint.relation)
            if existing is not None:
                raise SchemaError(
                    f"relation {constraint.relation!r} already has primary "
                    f"key {existing.name!r}"
                )
        if isinstance(constraint, ForeignKey):
            if len(constraint.columns) != len(constraint.referenced_columns):
                raise SchemaError(
                    f"foreign key {constraint.name!r} has mismatched "
                    "column counts"
                )
            source = self._relations[constraint.relation]
            target = self._relations[constraint.referenced_relation]
            for src_col, dst_col in zip(
                constraint.columns, constraint.referenced_columns
            ):
                src_domain = source.attribute(src_col).domain
                dst_domain = target.attribute(dst_col).domain
                if (
                    self._domains[src_domain].datatype
                    != self._domains[dst_domain].datatype
                ):
                    raise SchemaError(
                        f"foreign key {constraint.name!r}: {src_col!r} and "
                        f"{dst_col!r} have incompatible domains "
                        f"({src_domain!r} vs {dst_domain!r})"
                    )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def domain(self, name: str) -> Domain:
        """The domain with the given name."""
        try:
            return self._domains[name]
        except KeyError:
            raise UnknownElementError("domain", name) from None

    def relation(self, name: str) -> Relation:
        """The relation with the given name."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownElementError("relation", name) from None

    def constraint(self, name: str) -> RelationalConstraint:
        """The constraint with the given name."""
        try:
            return self._constraints[name]
        except KeyError:
            raise UnknownElementError("constraint", name) from None

    def has_relation(self, name: str) -> bool:
        """True when a relation with this name exists."""
        return name in self._relations

    def has_constraint(self, name: str) -> bool:
        """True when a constraint with this name exists."""
        return name in self._constraints

    @property
    def domains(self) -> tuple[Domain, ...]:
        """All domains, in insertion order."""
        return tuple(self._domains.values())

    @property
    def relations(self) -> tuple[Relation, ...]:
        """All relations, in insertion order."""
        return tuple(self._relations.values())

    @property
    def constraints(self) -> tuple[RelationalConstraint, ...]:
        """All constraints, in insertion order."""
        return tuple(self._constraints.values())

    def constraints_on(self, relation_name: str) -> list[RelationalConstraint]:
        """All constraints that mention the relation."""
        return [
            c
            for c in self._constraints.values()
            if relation_name in c.relations_used()
        ]

    def _by_kind(self) -> _ConstraintIndex:
        if self._index is None:
            self._index = _ConstraintIndex(self._constraints.values())
        return self._index

    def primary_key(self, relation_name: str) -> PrimaryKey | None:
        """The relation's primary key constraint, if declared."""
        return self._by_kind().primary.get(relation_name)

    def candidate_keys(self, relation_name: str) -> list[CandidateKey]:
        """All candidate key constraints on the relation."""
        return list(self._by_kind().candidates.get(relation_name, ()))

    def keys_of(self, relation_name: str) -> list[tuple[str, ...]]:
        """Primary plus candidate key column tuples of the relation."""
        keys = []
        primary = self.primary_key(relation_name)
        if primary is not None:
            keys.append(primary.columns)
        keys.extend(c.columns for c in self.candidate_keys(relation_name))
        return keys

    def foreign_keys(self, relation_name: str | None = None) -> list[ForeignKey]:
        """Foreign keys, optionally restricted to one source relation."""
        index = self._by_kind()
        if relation_name is None:
            return list(index.all_foreign)
        return list(index.foreign.get(relation_name, ()))

    def checks(self, relation_name: str | None = None) -> list[CheckConstraint]:
        """CHECK constraints, optionally restricted to one relation."""
        index = self._by_kind()
        if relation_name is None:
            return list(index.all_checks)
        return list(index.checks.get(relation_name, ()))

    def view_constraints(self) -> list[RelationalConstraint]:
        """The extended (equality/subset view) constraints — the
        lossless rules most RDBMSs cannot enforce natively."""
        return list(self._by_kind().views)

    # ------------------------------------------------------------------
    # Whole-schema operations
    # ------------------------------------------------------------------

    def copy(self, name: str | None = None) -> "RelationalSchema":
        """An independent copy of the schema (its index is rebuilt on
        first lookup)."""
        duplicate = RelationalSchema(name or self.name)
        duplicate._domains = dict(self._domains)
        duplicate._relations = dict(self._relations)
        duplicate._constraints = dict(self._constraints)
        return duplicate

    def fresh_constraint_name(self, stem: str) -> str:
        """The unused constraint name ``STEM_n`` (the paper's ``STEM$_n``
        style) with the smallest ``n >= 1``.

        The search resumes from a per-stem floor below which every
        name is known to be taken; removing a ``STEM_k`` lowers it.
        """
        counter = self._fresh_floor.get(stem, 1)
        while f"{stem}_{counter}" in self._constraints:
            counter += 1
        self._fresh_floor[stem] = counter
        return f"{stem}_{counter}"

    def stats(self) -> dict[str, int]:
        """Element counts for reports and benchmarks."""
        return {
            "domains": len(self._domains),
            "relations": len(self._relations),
            "attributes": sum(len(r.attributes) for r in self._relations.values()),
            "constraints": len(self._constraints),
            "foreign_keys": len(self.foreign_keys()),
            "view_constraints": len(self.view_constraints()),
            "checks": len(self.checks()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        stats = self.stats()
        return (
            f"<RelationalSchema {self.name!r}: {stats['relations']} relations, "
            f"{stats['attributes']} attributes, {stats['constraints']} constraints>"
        )
