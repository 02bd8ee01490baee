"""Seeded violation mutators — the negative side of losslessness.

:mod:`repro.robustness.faults` breaks the *mapper*; this sibling
breaks the *data*.  For every lossless-rule kind there is one
deterministic, seeded mutator that takes a valid relational dataset
(``relation name -> list of row dicts``) and produces a minimally
mutated copy violating exactly one target rule:

=====================  ============================================
mutator kind           injected defect
=====================  ============================================
``null-breach``        NULL in a mandatory column
``duplicate-key``      a second row under a primary/candidate key
``orphan-foreign-key`` a referencing tuple with no referenced match
``check-breach``       a row falsifying a CHECK predicate
                       (value restriction, dependent/equal
                       existence, ...)
``equality-asymmetry`` one side of a C_EQ$ pair gains a tuple the
                       other side lacks
``subset-leak``        a C_SUB$ subset tuple that escapes the
                       superset view
=====================  ============================================

Surgical injection is *searched*, not assumed: the lossless rules
overlap (a sub-relation's key columns are simultaneously its primary
key, a foreign key source and one side of an equality view), so each
mutator enumerates candidate mutation sites in a seeded deterministic
order and the planner keeps the first candidate whose full-rule check
flags the target rule *and nothing else*.  That check is every rule's
in-memory verdict, judged by its constraint's delta face
(:meth:`~repro.relational.constraints.RelationalConstraint.delta_index`);
the detection matrix then replays the accepted injections on the SQL
backends, where diagonality is an empirical result rather than a
construction.

Every candidate is a one-row :class:`Delta` against the clean
dataset — replace, append or delete one row of one relation — so
neither the planner nor the matrix ever copies or reloads a whole
relation to try one.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import TYPE_CHECKING, Callable, Iterator

from repro.brm.datatypes import DataTypeKind
from repro.engine.database import Database
from repro.observability.tracer import count as _obs_count
from repro.observability.tracer import span as _obs_span
from repro.relational.constraints import SelectSpec
from repro.relational.schema import RelationalSchema

if TYPE_CHECKING:  # imported lazily at runtime to avoid the cycle
    # robustness -> executor -> harness -> mapper -> robustness
    from repro.executor.compile import CompiledRule

#: Mutator kind -> the compiled-rule kinds it targets, in plan order.
MUTATOR_KINDS: dict[str, tuple[str, ...]] = {
    "null-breach": ("not-null",),
    "duplicate-key": ("primary-key", "candidate-key"),
    "orphan-foreign-key": ("foreign-key",),
    "check-breach": ("check",),
    "equality-asymmetry": ("equality-view",),
    "subset-leak": ("subset-view",),
}

#: Candidate mutation sites examined per rule before giving up.
MAX_CANDIDATES = 48

Dataset = dict[str, list[dict]]


@dataclass(frozen=True)
class Delta:
    """A one-row edit of one relation of the clean dataset.

    Replaces row ``index`` with ``row``, appends ``row`` (``index``
    None) or deletes row ``index`` (``row`` None).  A backend holding
    the clean state applies it by deleting :meth:`removed` and
    inserting :attr:`added`, and undoes it the other way round.
    """

    relation: str
    index: int | None = None
    row: dict | None = None

    @property
    def added(self) -> tuple[dict, ...]:
        """The row this edit puts in; none for a delete."""
        return () if self.row is None else (self.row,)

    def removed(self, dataset: Dataset) -> tuple[dict, ...]:
        """The clean row this edit takes out; none for an append."""
        if self.index is None:
            return ()
        return (dataset[self.relation][self.index],)

    def splice(self, rows: list[dict]) -> list[dict]:
        """A copy of the relation's clean ``rows`` with this edit made."""
        spliced = list(rows)
        if self.index is None:
            spliced.append(self.row)
        elif self.row is None:
            del spliced[self.index]
        else:
            spliced[self.index] = self.row
        return spliced


@dataclass(frozen=True)
class Injection:
    """One accepted violation: a one-row delta plus its target."""

    kind: str
    rule: str
    rule_kind: str
    relation: str
    description: str
    delta: Delta
    #: The clean dataset the delta edits (shared, never written).
    clean: Dataset = field(repr=False, compare=False)

    @property
    def touched(self) -> frozenset[str]:
        """The one relation whose rows differ from the clean dataset."""
        return frozenset((self.delta.relation,))

    @property
    def dataset(self) -> Dataset:
        """The full mutated dataset: the clean one with the delta made."""
        relation = self.delta.relation
        return {**self.clean, relation: self.delta.splice(self.clean[relation])}


def known_values(dataset: Dataset) -> frozenset:
    """Every non-NULL value appearing anywhere in the dataset."""
    values = set()
    for rows in dataset.values():
        values.update(chain.from_iterable(map(dict.values, rows)))
    values.discard(None)
    return frozenset(values)


def fresh_value(
    schema: RelationalSchema,
    relation: str,
    column: str,
    known: frozenset,
    offset: int,
):
    """A value of the column's type outside ``known``.

    Typed (integers for integer-like numerics, floats for scaled
    ones, strings otherwise) so the SQL backends accept it into the
    column, and globally fresh — ``known`` is the dataset's
    :func:`known_values` — so it cannot accidentally match a
    referenced key or a view tuple elsewhere.
    """
    datatype = schema.domain(
        schema.relation(relation).attribute(column).domain
    ).datatype
    if datatype.kind in (DataTypeKind.NUMERIC, DataTypeKind.INTEGER,
                         DataTypeKind.SMALLINT, DataTypeKind.REAL):
        scaled = (
            datatype.kind is DataTypeKind.REAL
            or (datatype.kind is DataTypeKind.NUMERIC
                and datatype.scale is not None)
        )
        candidate = 900000 + offset
        while candidate in known or (scaled and candidate + 0.5 in known):
            candidate += 1
        return candidate + 0.5 if scaled else candidate
    candidate = f"viol_{offset}"
    while candidate in known:
        candidate = candidate + "x"
    return candidate


def _row_order(rows: list[dict], rng: random.Random) -> list[int]:
    """A seeded deterministic visiting order over row indices."""
    indices = list(range(len(rows)))
    rng.shuffle(indices)
    return indices


def _other_key_columns(
    schema: RelationalSchema, relation: str, pinned: tuple[str, ...]
) -> list[str]:
    """Key columns of the relation outside the pinned column set."""
    columns: list[str] = []
    for key in schema.keys_of(relation):
        if tuple(key) == tuple(pinned):
            continue
        for column in key:
            if column not in pinned and column not in columns:
                columns.append(column)
    return columns


# ---------------------------------------------------------------------------
# One candidate generator per mutator kind.  Each yields
# ``(Delta, description)`` pairs in a seeded deterministic order; the
# planner verifies them for surgical-ness.  ``known`` is the clean
# dataset's :func:`known_values`, for :func:`fresh_value`.
# ---------------------------------------------------------------------------


def _null_breach(schema, rule, dataset, known, rng) -> Iterator[tuple[Delta, str]]:
    rows = dataset.get(rule.relation, [])
    column = rule.constraint.column
    for index in _row_order(rows, rng):
        row = dict(rows[index])
        row[column] = None
        yield Delta(rule.relation, index, row), (
            f"set {rule.relation}[{index}].{column} to NULL"
        )


def _duplicate_key(schema, rule, dataset, known, rng) -> Iterator[tuple[Delta, str]]:
    constraint = rule.constraint
    rows = dataset.get(rule.relation, [])
    others = _other_key_columns(schema, rule.relation, constraint.columns)
    for index in _row_order(rows, rng):
        base = rows[index]
        if any(base.get(c) is None for c in constraint.columns):
            continue
        # (a) re-insert the row with every *other* key freshened, so
        # only the target key collides.
        clone = dict(base)
        for offset, column in enumerate(others):
            clone[column] = fresh_value(
                schema, rule.relation, column, known, offset
            )
        yield Delta(rule.relation, row=clone), (
            f"duplicated {rule.relation}[{index}] under key "
            f"({', '.join(constraint.columns)})"
        )
        # (b) a verbatim duplicate (surgical when the relation has a
        # single key and no set-valued semantics elsewhere).
        yield Delta(rule.relation, row=dict(base)), (
            f"re-inserted {rule.relation}[{index}] verbatim"
        )
    # (c) overwrite another row's key with this row's key values.
    for index in _row_order(rows, rng):
        base = rows[index]
        if any(base.get(c) is None for c in constraint.columns):
            continue
        for victim in _row_order(rows, rng):
            if victim == index:
                continue
            row = dict(rows[victim])
            for column in constraint.columns:
                row[column] = base[column]
            yield Delta(rule.relation, victim, row), (
                f"overwrote {rule.relation}[{victim}] key with "
                f"{rule.relation}[{index}]'s"
            )
            break


def _orphan_foreign_key(
    schema, rule, dataset, known, rng
) -> Iterator[tuple[Delta, str]]:
    constraint = rule.constraint
    rows = dataset.get(rule.relation, [])
    others = _other_key_columns(schema, rule.relation, constraint.columns)
    for index in _row_order(rows, rng):
        base = rows[index]
        # (a) a new row whose FK columns reference nothing; other keys
        # freshened so no key rule fires alongside.
        clone = dict(base)
        for offset, column in enumerate(constraint.columns):
            clone[column] = fresh_value(
                schema, rule.relation, column, known, offset
            )
        for offset, column in enumerate(others, start=len(constraint.columns)):
            clone[column] = fresh_value(
                schema, rule.relation, column, known, offset
            )
        yield Delta(rule.relation, row=clone), (
            f"inserted {rule.relation} row with unmatched "
            f"({', '.join(constraint.columns)})"
        )
        # (b) redirect an existing row's FK to a fresh target.
        row = dict(base)
        for offset, column in enumerate(constraint.columns):
            row[column] = fresh_value(
                schema, rule.relation, column, known, offset
            )
        yield Delta(rule.relation, index, row), (
            f"redirected {rule.relation}[{index}] "
            f"({', '.join(constraint.columns)}) to a fresh target"
        )


def _check_breach(schema, rule, dataset, known, rng) -> Iterator[tuple[Delta, str]]:
    predicate = rule.constraint.predicate
    rows = dataset.get(rule.relation, [])
    for index in _row_order(rows, rng):
        base = rows[index]
        for column in sorted(predicate.columns()):
            for value in (
                None,
                fresh_value(schema, rule.relation, column, known, 0),
            ):
                candidate = dict(base)
                candidate[column] = value
                if predicate.evaluate(candidate):
                    continue  # still satisfied — not a breach
                yield Delta(rule.relation, index, candidate), (
                    f"set {rule.relation}[{index}].{column} to "
                    f"{value!r}, falsifying the CHECK"
                )


def _spec_mutations(
    schema, spec: SelectSpec, dataset, known, rng
) -> Iterator[tuple[Delta, str]]:
    """Deltas by which ``spec``'s tuple set gains a fresh member."""
    rows = dataset.get(spec.relation, [])
    for index in _row_order(rows, rng):
        base = rows[index]
        candidate = dict(base)
        for offset, column in enumerate(spec.columns):
            candidate[column] = fresh_value(
                schema, spec.relation, column, known, offset
            )
        if spec.where is not None and not spec.where.evaluate(candidate):
            continue
        # (a) in-place: the row now projects to a fresh tuple.
        yield Delta(spec.relation, index, candidate), (
            f"rewrote {spec.relation}[{index}] "
            f"({', '.join(spec.columns)}) to a fresh tuple"
        )
        # (b) as a new row (other keys freshened to stay surgical).
        clone = dict(candidate)
        for offset, column in enumerate(
            _other_key_columns(schema, spec.relation, spec.columns),
            start=len(spec.columns),
        ):
            clone[column] = fresh_value(
                schema, spec.relation, column, known, offset
            )
        yield Delta(spec.relation, row=clone), (
            f"inserted a {spec.relation} row projecting to a fresh "
            f"({', '.join(spec.columns)}) tuple"
        )


def _equality_asymmetry(
    schema, rule, dataset, known, rng
) -> Iterator[tuple[Delta, str]]:
    constraint = rule.constraint
    for spec, side in ((constraint.right, "right"), (constraint.left, "left")):
        for delta, description in _spec_mutations(
            schema, spec, dataset, known, rng
        ):
            yield delta, f"[{side} side] {description}"


def _subset_leak(schema, rule, dataset, known, rng) -> Iterator[tuple[Delta, str]]:
    constraint = rule.constraint
    # (a/b) the subset side gains a tuple the superset lacks.
    yield from _spec_mutations(schema, constraint.subset, dataset, known, rng)
    # (c) a superset witness disappears, stranding a subset tuple.
    spec = constraint.superset
    rows = dataset.get(spec.relation, [])
    for index in _row_order(rows, rng):
        row = rows[index]
        if spec.where is not None and not spec.where.evaluate(row):
            continue
        yield Delta(spec.relation, index), (
            f"deleted superset witness {spec.relation}[{index}]"
        )


MUTATORS: dict[str, Callable] = {
    "null-breach": _null_breach,
    "duplicate-key": _duplicate_key,
    "orphan-foreign-key": _orphan_foreign_key,
    "check-breach": _check_breach,
    "equality-asymmetry": _equality_asymmetry,
    "subset-leak": _subset_leak,
}


class _CleanDatabase(Database):
    """The clean dataset as a read-only database whose key counters
    are built once each.

    Rules projecting the same columns share one counter: a primary
    key and the foreign keys referencing it, or a view side over key
    columns.  The counters live as long as the one verifier holding
    this database.
    """

    def __init__(self, schema: RelationalSchema, baseline: Dataset) -> None:
        super().__init__(schema)
        for relation, rows in baseline.items():
            self.load_rows(relation, rows)
        self._counts: dict[tuple, Counter] = {}

    def key_counts(self, relation_name, columns, where=None) -> Counter:
        key = (relation_name, tuple(columns), where)
        if key not in self._counts:
            self._counts[key] = super().key_counts(relation_name, columns, where)
        return self._counts[key]


def default_verifier(
    schema: RelationalSchema,
    rules: tuple[CompiledRule, ...],
    baseline: Dataset,
) -> Callable[[Delta], set[str]]:
    """A full-rule checker of one-row deltas against ``baseline``.

    The clean database is built once (its rows shared with
    ``baseline``, not copied, since nothing writes them), and every
    rule's constraint indexes it once (:meth:`delta_index`).  A delta
    fires each rule whose index reports a violation once the clean row
    at ``delta.index`` is taken out and ``delta.row`` (normalized as
    :meth:`Database.insert` would) put in; a rule that does not read
    the delta's relation keeps its clean verdict.  No relation is
    re-scanned per delta.
    """
    clean = _CleanDatabase(schema, baseline)
    indexes = [(rule.name, rule.constraint.delta_index(clean)) for rule in rules]

    def verify(delta: Delta) -> set[str]:
        relation = delta.relation
        removed = added = None
        if delta.index is not None:
            removed = baseline[relation][delta.index]
        if delta.row is not None:
            added = clean.normalize(relation, delta.row)
        return {
            name
            for name, index in indexes
            if index.violated_after(relation, removed, added)
        }

    return verify


def plan_injections(
    schema: RelationalSchema,
    rules: tuple[CompiledRule, ...],
    dataset: Dataset,
    *,
    seed: int = 7,
) -> list[Injection]:
    """One surgical injection per mutator kind, where plannable.

    For each kind, candidate rules are visited in name order and
    candidate deltas in seeded order; the first delta whose verified
    violation set is exactly ``{rule}`` is accepted.  Kinds whose
    rules admit no surgical site (or that have no rules in this
    schema) are skipped — the harness reports them.
    """
    with _obs_span("robustness.plan_injections", rules=len(rules)):
        verify = default_verifier(schema, rules, dataset)
        known = known_values(dataset)
        verified = 0
        injections: list[Injection] = []
        for kind in MUTATOR_KINDS:
            targets = sorted(
                (r for r in rules if r.kind in MUTATOR_KINDS[kind]),
                key=lambda r: r.name,
            )
            accepted = None
            for rule in targets:
                rng = random.Random((seed, kind, rule.name).__repr__())
                candidates = MUTATORS[kind](schema, rule, dataset, known, rng)
                for delta, description in islice(candidates, MAX_CANDIDATES):
                    verified += 1
                    if verify(delta) == {rule.name}:
                        accepted = Injection(
                            kind, rule.name, rule.kind, rule.relation,
                            description, delta, dataset,
                        )
                        break
                if accepted is not None:
                    injections.append(accepted)
                    break
        _obs_count("robustness.candidates_verified", verified)
        return injections
