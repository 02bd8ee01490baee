"""Reference schemes — lexical representation types for NOLOTs.

Section 3.2 (function 4 of RIDL-A) requires every NOLOT to be
*referable*: it must be possible to refer uniquely and unambiguously
(one-to-one) to all of its instances, and this one-to-one property
must be inferable from the constraints of the binary schema.  Section
4.2.3 calls a way to refer to a NOLOT by a combination of LOTs a
*lexical representation type* or *naming convention*, notes that a
NOLOT may have many of them, and has RIDL-M select the "smallest" one
by default — fewest object types involved, then smallest physical
representation — unless the database engineer overrides the choice.

A :class:`ReferenceScheme` is derived from constraints:

* **self** — LOTs and LOT-NOLOTs are their own lexical representation;
* **simple** — a fact type from the NOLOT to some type with a
  uniqueness bar on both roles and a total role on the NOLOT side
  (a bijection between the NOLOT and the referencing population);
* **compound** — an external uniqueness constraint over the far roles
  of several such mandatory functional fact types;
* **inherited** — a subtype may be referenced the way its supertype is.

A scheme is *grounded* when, transitively, it bottoms out in lexical
types; grounded schemes can be *expanded* into a flat tuple of
:class:`LexicalLeaf` — the LOT-typed legs that become relational
attributes.  :class:`ReferenceResolver` grounds them with a semi-naive
fix-point: after a first pass over every candidate, a pass re-expands
only the schemes that read a type whose chosen expansion just changed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.brm.datatypes import DataType
from repro.brm.facts import RoleId
from repro.brm.schema import BinarySchema
from repro.errors import NotReferableError, SchemaError


@dataclass(frozen=True)
class ReferenceComponent:
    """One leg of a reference scheme.

    The *near* role is played by the referenced NOLOT, the *far* role
    by the referencing type (``target``), in fact type ``fact``.
    """

    fact: str
    near_role: str
    far_role: str
    target: str


@dataclass(frozen=True)
class ReferenceScheme:
    """A naming convention for ``owner``.

    ``kind`` is one of ``"self"``, ``"simple"``, ``"compound"`` or
    ``"inherited"``.  For inherited schemes ``via_sublink`` names the
    sublink and ``components`` are those of the supertype's scheme.
    """

    owner: str
    kind: str
    components: tuple[ReferenceComponent, ...] = ()
    via_sublink: str | None = None

    @property
    def key(self) -> tuple[str, ...]:
        """A stable identifier usable in preference overrides."""
        if self.kind == "self":
            return ("self",)
        prefix = () if self.via_sublink is None else (f"via:{self.via_sublink}",)
        return prefix + tuple(c.fact for c in self.components)

    @property
    def targets(self) -> tuple[str, ...]:
        """The referencing object types this scheme depends on."""
        return tuple(c.target for c in self.components)


@dataclass(frozen=True)
class LexicalLeaf:
    """A fully lexical leg of an expanded reference scheme.

    ``path`` is the chain of components from the owner down to the
    lexical type ``lot`` with data type ``datatype``.
    """

    path: tuple[ReferenceComponent, ...]
    lot: str
    datatype: DataType


def candidate_schemes(schema: BinarySchema, type_name: str) -> list[ReferenceScheme]:
    """All reference schemes the constraints of the schema support.

    Groundedness is *not* checked here; use :class:`ReferenceResolver`
    for the transitive analysis.
    """
    object_type = schema.object_type(type_name)
    schemes: list[ReferenceScheme] = []
    if object_type.is_lexical:
        schemes.append(ReferenceScheme(type_name, "self"))
    if not object_type.is_nolot:
        return schemes
    schemes.extend(_simple_schemes(schema, type_name))
    schemes.extend(_compound_schemes(schema, type_name))
    for sublink in schema.sublinks_from(type_name):
        # The subtype inherits the supertype's referability wholesale;
        # components are resolved against the supertype lazily by the
        # resolver, so an inherited scheme only records the sublink.
        schemes.append(
            ReferenceScheme(
                type_name,
                "inherited",
                components=(),
                via_sublink=sublink.name,
            )
        )
    return schemes


def _simple_schemes(schema: BinarySchema, type_name: str) -> list[ReferenceScheme]:
    schemes = []
    for near_id in schema.roles_played_by(type_name):
        fact = schema.fact_type(near_id.fact)
        if fact.is_ring:
            continue
        far_role = fact.co_role(near_id.role)
        far_id = RoleId(fact.name, far_role.name)
        if (
            schema.is_unique(near_id)
            and schema.is_unique(far_id)
            and schema.is_total(near_id)
        ):
            component = ReferenceComponent(
                fact.name, near_id.role, far_role.name, far_role.player
            )
            schemes.append(ReferenceScheme(type_name, "simple", (component,)))
    return schemes


def _compound_schemes(schema: BinarySchema, type_name: str) -> list[ReferenceScheme]:
    from repro.brm.indexes import indexes_for

    schemes = []
    for constraint in indexes_for(schema).external_uniqueness:
        components = []
        for far_id in constraint.roles:
            fact = schema.fact_type(far_id.fact)
            if fact.is_ring:
                components = []
                break
            near_role = fact.co_role(far_id.role)
            if near_role.player != type_name:
                components = []
                break
            near_id = RoleId(fact.name, near_role.name)
            if not (schema.is_unique(near_id) and schema.is_total(near_id)):
                components = []
                break
            components.append(
                ReferenceComponent(
                    fact.name,
                    near_role.name,
                    far_id.role,
                    schema.player_name(far_id),
                )
            )
        if components:
            schemes.append(
                ReferenceScheme(type_name, "compound", tuple(components))
            )
    return schemes


@dataclass(frozen=True)
class _Expansion:
    """A grounded scheme together with its flat lexical legs and cost."""

    scheme: ReferenceScheme
    leaves: tuple[LexicalLeaf, ...]
    object_types_involved: int
    physical_size: int

    @property
    def cost(self) -> tuple[int, int]:
        """Ordering key for the "smallest" representation (section 4.2.3)."""
        return (self.object_types_involved, self.physical_size)


def _smallest(expansion: _Expansion) -> tuple:
    """Order by cost, ties broken by scheme key (section 4.2.3)."""
    return (expansion.cost, expansion.scheme.key)


class ReferenceResolver:
    """Computes grounded reference schemes and their lexical expansions.

    ``preferences`` maps a NOLOT name to the :attr:`ReferenceScheme.key`
    of the scheme to use for it, overriding the default smallest-cost
    choice (the *lexical mapping option* of section 4.2.3).
    """

    def __init__(
        self,
        schema: BinarySchema,
        preferences: dict[str, tuple[str, ...]] | None = None,
    ) -> None:
        self.schema = schema
        self.preferences = dict(preferences or {})
        self._expansions: dict[str, list[_Expansion]] = {}
        self._chosen: dict[str, _Expansion] = {}
        self._resolve()

    # -- public API ----------------------------------------------------

    def grounded_schemes(self, type_name: str) -> list[ReferenceScheme]:
        """All grounded schemes of a type, cheapest first."""
        expansions = self._expansions.get(type_name, [])
        return [e.scheme for e in sorted(expansions, key=_smallest)]

    def is_referable(self, type_name: str) -> bool:
        """True when the type has at least one grounded scheme."""
        return type_name in self._chosen

    def non_referable(self) -> set[str]:
        """All NOLOTs without any grounded scheme (RIDL-A function 4)."""
        return {
            t.name
            for t in self.schema.object_types
            if t.is_nolot and t.name not in self._chosen
        }

    def chosen_scheme(self, type_name: str) -> ReferenceScheme:
        """The scheme selected for a type (preference or smallest)."""
        return self._chosen_expansion(type_name).scheme

    def leaves(self, type_name: str) -> tuple[LexicalLeaf, ...]:
        """The lexical legs of the chosen scheme — one per future column."""
        return self._chosen_expansion(type_name).leaves

    def representation_cost(self, type_name: str) -> tuple[int, int]:
        """(object types involved, physical size) of the chosen scheme."""
        expansion = self._chosen_expansion(type_name)
        return expansion.cost

    def _chosen_expansion(self, type_name: str) -> _Expansion:
        self.schema.object_type(type_name)
        try:
            return self._chosen[type_name]
        except KeyError:
            raise NotReferableError(type_name) from None

    # -- resolution ----------------------------------------------------

    def _resolve(self) -> None:
        """Semi-naive fix-point: ground schemes bottom-up from lexical types.

        ``_try_expand`` reads only ``_chosen``, which changes between
        passes, never within one.  So a scheme none of whose read types
        moved (changed its chosen expansion) in the last pass expands
        exactly as it did then, and re-trying it cannot change the
        state: after the first pass, which tries every candidate, each
        pass re-tries only the readers of the types that moved, in
        candidate order, so every type's expansions keep their order.
        """
        order: list[ReferenceScheme] = []
        readers: dict[str, set[int]] = {}
        for object_type in self.schema.object_types:
            for scheme in candidate_schemes(self.schema, object_type.name):
                for read in self._reads(scheme):
                    readers.setdefault(read, set()).add(len(order))
                order.append(scheme)
        pending = list(range(len(order)))
        while pending:
            changed: dict[str, None] = {}
            for position in pending:
                scheme = order[position]
                expansion = self._try_expand(scheme)
                if expansion is None:
                    continue
                stored = self._expansions.setdefault(scheme.owner, [])
                for index, existing in enumerate(stored):
                    if existing.scheme == scheme:
                        if existing != expansion:
                            # A type this scheme reads chose another
                            # expansion last pass: refresh.
                            stored[index] = expansion
                            changed[scheme.owner] = None
                        break
                else:
                    stored.append(expansion)
                    changed[scheme.owner] = None
            retry: set[int] = set()
            for type_name in changed:
                chosen = self._choose(type_name)
                if chosen is not self._chosen.get(type_name):
                    self._chosen[type_name] = chosen
                    retry.update(readers.get(type_name, ()))
            pending = sorted(retry)
        self._check_preferences()

    def _reads(self, scheme: ReferenceScheme) -> tuple[str, ...]:
        """The types whose chosen expansion ``_try_expand`` reads."""
        if scheme.kind == "inherited":
            return (self.schema.sublink(scheme.via_sublink).supertype,)
        return scheme.targets

    def _try_expand(self, scheme: ReferenceScheme) -> _Expansion | None:
        if scheme.kind == "self":
            object_type = self.schema.object_type(scheme.owner)
            if object_type.datatype is None:  # pragma: no cover - defensive
                return None
            leaf = LexicalLeaf((), scheme.owner, object_type.datatype)
            return _Expansion(scheme, (leaf,), 1, object_type.datatype.physical_size)
        if scheme.kind == "inherited":
            sublink = self.schema.sublink(scheme.via_sublink)
            parent = self._chosen.get(sublink.supertype)
            if parent is None:
                return None
            # The candidate scheme object is kept as-is so the fix-point
            # can recognize it as already expanded; the inherited legs
            # are exactly the supertype's.
            return _Expansion(
                scheme,
                parent.leaves,
                parent.object_types_involved,
                parent.physical_size,
            )
        leaves: list[LexicalLeaf] = []
        involved = 1  # the owner itself
        size = 0
        for component in scheme.components:
            target_expansion = self._chosen.get(component.target)
            if target_expansion is None:
                return None
            for leaf in target_expansion.leaves:
                leaves.append(
                    LexicalLeaf((component,) + leaf.path, leaf.lot, leaf.datatype)
                )
            involved += target_expansion.object_types_involved
            size += target_expansion.physical_size
        return _Expansion(scheme, tuple(leaves), involved, size)

    def _choose(self, type_name: str) -> _Expansion:
        """A type's expansion: the preferred one if grounded, else smallest."""
        expansions = self._expansions[type_name]
        preferred_key = self.preferences.get(type_name)
        if preferred_key is not None:
            for expansion in expansions:
                if expansion.scheme.key == tuple(preferred_key):
                    return expansion
        return min(expansions, key=_smallest)

    def _check_preferences(self) -> None:
        """A requested scheme that never grounded is an engineering error."""
        for type_name, preferred_key in self.preferences.items():
            self.schema.object_type(type_name)
            chosen = self._chosen.get(type_name)
            if chosen is None or chosen.scheme.key != tuple(preferred_key):
                raise SchemaError(
                    f"no grounded reference scheme {tuple(preferred_key)!r} "
                    f"for object type {type_name!r}; grounded schemes: "
                    f"{[e.scheme.key for e in self._expansions.get(type_name, [])]!r}"
                )
