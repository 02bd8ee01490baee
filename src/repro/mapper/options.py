"""The mapping options of section 4.2.

"The transformation process can be influenced by the database
engineer ... by exercising a number of *mapping options* that trigger
the rules which influence the mapping process" (section 4.2).  The
five option families of the paper:

1. control on the admissibility of null values (:class:`NullPolicy`),
2. the mapping of sublink types (:class:`SublinkPolicy`, a global
   option with per-sublink exceptions),
3. the choice of lexical representations per NOLOT,
4. the decision whether to combine tables,
5. when and how to omit certain tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum


class NullPolicy(Enum):
    """Section 4.2.1 — admissibility of null values in attributes."""

    #: Nulls forbidden in primary keys only ("Entity Integrity Rule");
    #: elsewhere admissible where the binary constraints allow.
    DEFAULT = "DEFAULT"
    #: "NULL NOT ALLOWED" — no attribute may be null; optional facts
    #: are split into satellite tables (grouped by role equality), so
    #: "a large number of small tables will in general be generated".
    NOT_ALLOWED = "NULL NOT ALLOWED"
    #: "NULL NOT IN KEYS" — no nulls in primary *or candidate* keys;
    #: optional alternate identifiers are split out.
    NOT_IN_KEYS = "NULL NOT ALLOWED IN KEYS"
    #: "NULL ALLOWED" — nulls even in primary keys, to support NOLOTs
    #: with a non-homogeneous lexical representation (two or more
    #: candidate keys, no single total one).
    ALLOWED = "NULL ALLOWED"


class SublinkPolicy(Enum):
    """Section 4.2.2 — how a sublink type is transformed."""

    #: "SUBOT & SUPOT SEPARATE" (default, strong typing): one
    #: sub-relation and one super-relation, linked by a foreign key.
    SEPARATE = "SUBOT & SUPOT SEPARATE"
    #: "SUBOT & SUPOT TOGETHER": all fact types of subtype and
    #: supertype grouped into one relation.
    TOGETHER = "SUBOT & SUPOT TOGETHER"
    #: "SUBOT INDICATOR FOR SUPOT": grouping as for SEPARATE, plus an
    #: indicator attribute on the super-relation, controlled by a
    #: conditional equality constraint.
    INDICATOR = "SUBOT INDICATOR FOR SUPOT"


@dataclass(frozen=True)
class MappingOptions:
    """Everything the database engineer can turn and twist.

    ``sublink_overrides`` maps sublink names to policies, overriding
    the global ``sublink_policy`` ("the selected option holds for all
    the sublink types of the binary schema, but may be overridden for
    chosen individual sublink types").

    ``lexical_preferences`` maps NOLOT names to reference-scheme keys
    (see :attr:`repro.brm.ReferenceScheme.key`), overriding the
    default smallest-representation choice.

    ``combine_tables`` lists ``(relation_a, relation_b)`` pairs to be
    joined into one relation when they are 1:1-related on their keys
    (mapping option 4).  ``omit_tables`` lists relation names to drop
    from the output, with subset lossless rules recorded (option 5).

    ``scope`` restricts the mapping to a subset of the schema's
    object types ("takes all or part of the binary schema", section
    3.3): only fact types and sublinks between in-scope types are
    mapped.
    """

    null_policy: NullPolicy = NullPolicy.DEFAULT
    sublink_policy: SublinkPolicy = SublinkPolicy.SEPARATE
    sublink_overrides: tuple[tuple[str, SublinkPolicy], ...] = ()
    lexical_preferences: tuple[tuple[str, tuple[str, ...]], ...] = ()
    combine_tables: tuple[tuple[str, str], ...] = ()
    omit_tables: tuple[str, ...] = ()
    scope: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        # Accept dicts and lists for the collection fields (callers
        # naturally write ``{"S": SublinkPolicy.TOGETHER}``) but store
        # hashable tuples: the advisor uses option sets as dict keys
        # and a frozen dataclass with a mutable field would break
        # ``__hash__`` silently.
        object.__setattr__(
            self,
            "sublink_overrides",
            _pairs(self.sublink_overrides),
        )
        object.__setattr__(
            self,
            "lexical_preferences",
            tuple(
                (name, tuple(key))
                for name, key in _pairs(self.lexical_preferences)
            ),
        )
        object.__setattr__(
            self,
            "combine_tables",
            tuple(tuple(pair) for pair in self.combine_tables),
        )
        object.__setattr__(self, "omit_tables", tuple(self.omit_tables))
        if self.scope is not None:
            object.__setattr__(self, "scope", tuple(self.scope))

    def policy_for(self, sublink_name: str) -> SublinkPolicy:
        """The effective policy for one sublink type."""
        for name, policy in self.sublink_overrides:
            if name == sublink_name:
                return policy
        return self.sublink_policy

    def preferences_dict(self) -> dict[str, tuple[str, ...]]:
        """Lexical preferences as the dict the resolver expects."""
        return {name: key for name, key in self.lexical_preferences}

    def with_overrides(self, **overrides: object) -> "MappingOptions":
        """A copy with some fields replaced (convenience for sweeps)."""
        return replace(self, **overrides)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Canonical forms — the advisor's dedup and grouping keys
    # ------------------------------------------------------------------

    def canonical(self) -> "MappingOptions":
        """An equivalent option set in canonical field order.

        Two option sets that behave identically — same effective
        per-sublink policies, same preferences, same combines and
        omissions — canonicalize to equal (and equal-hashing) values,
        which is what the advisor dedups candidates by.  Duplicate
        override/preference entries keep the *first* occurrence, the
        one :meth:`policy_for` honours; the survivors are then sorted.
        """
        return replace(
            self,
            sublink_overrides=_canonical_pairs(self.sublink_overrides),
            lexical_preferences=_canonical_pairs(self.lexical_preferences),
            combine_tables=tuple(sorted(set(self.combine_tables))),
            omit_tables=tuple(sorted(set(self.omit_tables))),
            scope=None if self.scope is None else tuple(sorted(set(self.scope))),
        )

    def candidate_key(self) -> tuple:
        """A hashable identity for the whole option set (canonical)."""
        c = self.canonical()
        return (
            c.null_policy,
            c.sublink_policy,
            c.sublink_overrides,
            c.lexical_preferences,
            c.combine_tables,
            c.omit_tables,
            c.scope,
        )

    def prefix_key(self) -> tuple:
        """The identity of the *prefix* of the pipeline: the binary
        phase and the plan synthesis.

        The binary-to-binary phase reads only the scope and the
        effective sublink policies (its own, coarser identity is
        :func:`repro.mapper.engine.binary_key`); the plan synthesis
        adds the null policy and the lexical preferences; the combine
        and omit choices act on the finished plan.  Candidates with
        equal prefix keys can therefore share one prefix run (see
        :func:`repro.mapper.engine.map_prefix`).
        """
        c = self.canonical()
        return (
            c.null_policy,
            c.sublink_policy,
            c.sublink_overrides,
            c.lexical_preferences,
            c.scope,
        )

    def prefix_options(self) -> "MappingOptions":
        """The canonical options with the plan-level (combine/omit)
        choices stripped — what a shared prefix run is keyed by."""
        return self.canonical().with_overrides(
            combine_tables=(), omit_tables=()
        )

    def describe(self) -> str:
        """A short, stable, human-readable label for reports."""
        parts = [self.null_policy.name, self.sublink_policy.name]
        for name, policy in self.canonical().sublink_overrides:
            parts.append(f"{name}={policy.name}")
        for name, key in self.canonical().lexical_preferences:
            parts.append(f"{name}:{'+'.join(key)}")
        for target, source in self.canonical().combine_tables:
            parts.append(f"combine({target}<-{source})")
        for table in self.canonical().omit_tables:
            parts.append(f"omit({table})")
        return " ".join(parts)


def _pairs(value) -> tuple[tuple, ...]:
    """Coerce a mapping or iterable of pairs to a tuple of tuples."""
    if isinstance(value, dict):
        return tuple(value.items())
    return tuple(tuple(pair) for pair in value)


def _canonical_pairs(pairs: tuple[tuple, ...]) -> tuple[tuple, ...]:
    """First-occurrence-wins dedup by key, then sorted by key."""
    seen: dict = {}
    for name, value in pairs:
        if name not in seen:
            seen[name] = value
    return tuple(sorted(seen.items(), key=lambda item: item[0]))
