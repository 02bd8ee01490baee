"""An in-memory relational database enforcing the generic schema.

This is the substrate that stands in for the ORACLE/INGRES/DB2
installations of the paper: it stores tuples for a
:class:`~repro.relational.schema.RelationalSchema` and can check
*every* constraint type RIDL-M generates — including the extended
view constraints that the target DBMSs of 1989 could not enforce and
that the paper therefore emitted as pseudo-SQL specifications.
Executing the generated schemas here is how the reproduction
validates state equivalence end-to-end.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import partial
from itertools import compress, count
from operator import is_, itemgetter

from repro.engine.query import Row, select_rows
from repro.errors import EngineError, IntegrityViolation
from repro.relational.constraints import (
    CandidateKey,
    CheckConstraint,
    EqualityViewConstraint,
    ForeignKey,
    PrimaryKey,
    SelectSpec,
    SubsetViewConstraint,
)
from repro.relational.predicates import Predicate
from repro.relational.schema import RelationalSchema

_is_null = partial(is_, None)


def _key_tuples(rows: list[Row], columns: Sequence[str]) -> Iterator[tuple]:
    """Each row's ``columns`` values as one tuple, at C speed.

    Stored rows are complete dicts (every insert path fills absent
    columns with NULL), so ``itemgetter`` is exact here where the
    public :mod:`repro.engine.query` helpers need ``row.get``.
    """
    if len(columns) == 1:
        return zip(map(itemgetter(columns[0]), rows))
    return map(itemgetter(*columns), rows)


class Database:
    """Tuples for every relation of a relational schema."""

    def __init__(self, schema: RelationalSchema) -> None:
        self.schema = schema
        self._tables: dict[str, list[Row]] = {
            relation.name: [] for relation in schema.relations
        }

    # ------------------------------------------------------------------
    # Data manipulation
    # ------------------------------------------------------------------

    def insert(self, relation_name: str, row: Mapping[str, object]) -> Row:
        """Insert a row; unknown columns are rejected, missing ones NULL.

        Constraint checking is deferred to :meth:`check` /
        :meth:`validate`, matching how the generated pseudo-SQL
        constraints were meant to be verified by application programs
        rather than per-statement.
        """
        complete = self.normalize(relation_name, row)
        self._tables[relation_name].append(complete)
        return complete

    def normalize(self, relation_name: str, row: Mapping[str, object]) -> Row:
        """``row`` as stored: every attribute in order, missing ones NULL.

        Unknown columns are rejected.
        """
        relation = self.schema.relation(relation_name)
        unknown = set(row) - set(relation.attribute_names)
        if unknown:
            raise EngineError(
                f"relation {relation_name!r} has no columns {sorted(unknown)}"
            )
        return {name: row.get(name) for name in relation.attribute_names}

    def insert_many(
        self, relation_name: str, rows: Iterable[Mapping[str, object]]
    ) -> None:
        """Insert several rows."""
        relation = self.schema.relation(relation_name)
        names = relation.attribute_names
        name_set = set(names)
        table = self._tables[relation_name]
        for row in rows:
            unknown = set(row) - name_set
            if unknown:
                raise EngineError(
                    f"relation {relation_name!r} has no columns "
                    f"{sorted(unknown)}"
                )
            table.append({name: row.get(name) for name in names})

    def load_rows(
        self, relation_name: str, rows: Iterable[Mapping[str, object]]
    ) -> None:
        """Trusted bulk append for kernel-built rows.

        The batch forward state map constructs every row dict with
        exactly the relation's attributes already, so the per-row
        unknown-column scan and dict rebuild of :meth:`insert` are
        pure overhead on this path; rows whose key set differs are
        still normalized (and unknown columns still rejected).
        """
        relation = self.schema.relation(relation_name)
        names = relation.attribute_names
        name_set = set(names)
        table = self._tables[relation_name]
        for row in rows:
            if row.keys() != name_set:
                unknown = set(row) - name_set
                if unknown:
                    raise EngineError(
                        f"relation {relation_name!r} has no columns "
                        f"{sorted(unknown)}"
                    )
                row = {name: row.get(name) for name in names}
            elif not isinstance(row, dict):
                row = dict(row)
            table.append(row)

    def delete(
        self, relation_name: str, where: Predicate | None = None
    ) -> int:
        """Delete matching rows; returns how many were removed."""
        if relation_name not in self._tables:
            self.schema.relation(relation_name)  # raise UnknownElementError
        table = self._tables[relation_name]
        if where is None:
            removed = len(table)
            table.clear()
            return removed
        keep = [row for row in table if not where.evaluate(row)]
        removed = len(table) - len(keep)
        self._tables[relation_name] = keep
        return removed

    def remove(self, relation_name: str, row: Mapping[str, object]) -> None:
        """Delete one stored row equal to ``row`` (normalized first)."""
        self._tables[relation_name].remove(self.normalize(relation_name, row))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def rows(self, relation_name: str) -> list[Row]:
        """All rows of a relation (copies, in insertion order)."""
        if relation_name not in self._tables:
            self.schema.relation(relation_name)
        return [dict(row) for row in self._tables[relation_name]]

    def iter_rows(self, relation_name: str) -> Iterable[Row]:
        """The live rows of a relation, without copying.

        Read-only view for whole-table consumers (the backwards state
        map, bulk loaders); callers must not mutate the yielded dicts.
        """
        if relation_name not in self._tables:
            self.schema.relation(relation_name)
        return iter(self._tables[relation_name])

    def count(self, relation_name: str) -> int:
        """Number of rows in a relation."""
        if relation_name not in self._tables:
            self.schema.relation(relation_name)
        return len(self._tables[relation_name])

    def fetch_columns(
        self, relation_name: str, columns: tuple[str, ...] | None = None
    ) -> dict[str, list[object]]:
        """The relation as parallel value columns (insertion order).

        The bulk read path of the columnar backward map: one list per
        attribute instead of one dict per row, so whole-relation
        consumers never materialize row dicts at all.
        """
        if relation_name not in self._tables:
            self.schema.relation(relation_name)
        names = columns or self.schema.relation(relation_name).attribute_names
        table = self._tables[relation_name]
        return {name: [row.get(name) for row in table] for name in names}

    def tuple_set(self, relation_name: str) -> frozenset[tuple[object, ...]]:
        """One relation's rows as a set of attribute-ordered tuples.

        The row-diff currency of the round trip: two states agree on
        a relation iff their tuple sets are equal.
        """
        if relation_name not in self._tables:
            self.schema.relation(relation_name)
        names = self.schema.relation(relation_name).attribute_names
        return frozenset(
            tuple(row.get(name) for name in names)
            for row in self._tables[relation_name]
        )

    def select(
        self,
        relation_name: str,
        where: Predicate | None = None,
        columns: tuple[str, ...] | None = None,
    ) -> list[Row]:
        """Rows (optionally projected) satisfying ``where``."""
        if relation_name not in self._tables:
            self.schema.relation(relation_name)
        # Filter the live table and copy only the matches: callers
        # own the returned dicts, but non-matching rows are never
        # materialized.
        matched = select_rows(self._tables[relation_name], where)
        if columns is None:
            return [dict(row) for row in matched]
        return [{c: row.get(c) for c in columns} for row in matched]

    # ------------------------------------------------------------------
    # Checking kernels: one C-speed scan per constraint shape, shared by
    # :meth:`check` and the in-memory backend's rule interpreter.
    # ------------------------------------------------------------------

    def evaluate_select(self, spec: SelectSpec) -> set[tuple[object, ...]]:
        """The tuple set denoted by one side of a view constraint."""
        rows = self._tables[spec.relation]
        if spec.where is not None:
            rows = list(filter(spec.where.evaluate, rows))
        return set(_key_tuples(rows, spec.columns))

    def null_cells(
        self, relation_name: str, columns: Sequence[str]
    ) -> list[tuple[Row, str]]:
        """Every ``(row, column)`` holding NULL among ``columns``, in
        row-major order."""
        table = self._tables[relation_name]
        found = sorted(
            (position, index)
            for index, column in enumerate(columns)
            for position in compress(
                count(), map(_is_null, map(itemgetter(column), table))
            )
        )
        return [(table[position], columns[index]) for position, index in found]

    def duplicate_keys(
        self, relation_name: str, columns: Sequence[str]
    ) -> list[tuple[object, ...]]:
        """NULL-free key tuples held by more than one row, in order of
        first appearance."""
        counts = Counter(_key_tuples(self._tables[relation_name], columns))
        return [key for key, n in counts.items() if n > 1 and None not in key]

    def unmatched_rows(self, constraint: ForeignKey) -> list[Row]:
        """Rows whose NULL-free foreign-key tuple has no referenced match
        (partially or fully NULL tuples need none)."""
        table = self._tables[constraint.relation]
        referenced = set(
            _key_tuples(
                self._tables[constraint.referenced_relation],
                constraint.referenced_columns,
            )
        )
        missing = {
            key
            for key in set(_key_tuples(table, constraint.columns)) - referenced
            if None not in key
        }
        if not missing:  # the valid state: no second pass
            return []
        keys = _key_tuples(table, constraint.columns)
        return [row for row, key in zip(table, keys) if key in missing]

    # ------------------------------------------------------------------
    # Constraint checking
    # ------------------------------------------------------------------

    def check(self) -> list[IntegrityViolation]:
        """Every constraint violation in the current state."""
        violations: list[IntegrityViolation] = []
        violations.extend(self._check_not_null())
        for constraint in self.schema.constraints:
            if isinstance(constraint, (PrimaryKey, CandidateKey)):
                violations.extend(self._check_key(constraint))
            elif isinstance(constraint, ForeignKey):
                violations.extend(self._check_foreign_key(constraint))
            elif isinstance(constraint, CheckConstraint):
                violations.extend(self._check_check(constraint))
            elif isinstance(constraint, EqualityViewConstraint):
                violations.extend(self._check_equality_view(constraint))
            elif isinstance(constraint, SubsetViewConstraint):
                violations.extend(self._check_subset_view(constraint))
        return violations

    def is_valid(self) -> bool:
        """True when no constraint is violated."""
        return not self.check()

    def validate(self) -> None:
        """Raise the first few violations as an error."""
        violations = self.check()
        if violations:
            summary = "; ".join(str(v) for v in violations[:5])
            if len(violations) > 5:
                summary += f" (+{len(violations) - 5} more)"
            raise IntegrityViolation("multiple" if len(violations) > 1 else
                                     violations[0].constraint_name, summary)

    def _check_not_null(self) -> list[IntegrityViolation]:
        violations = []
        for relation in self.schema.relations:
            required = [a.name for a in relation.attributes if not a.nullable]
            for row, column in self.null_cells(relation.name, required):
                violations.append(
                    IntegrityViolation(
                        f"NOT NULL {relation.name}.{column}",
                        f"row {row!r} has NULL in mandatory column "
                        f"{column!r}",
                    )
                )
        return violations

    def _check_key(
        self, constraint: PrimaryKey | CandidateKey
    ) -> list[IntegrityViolation]:
        violations = []
        if isinstance(constraint, PrimaryKey):
            # Entity integrity — unless the attribute was explicitly made
            # nullable (the paper's "NULL ALLOWED" option deliberately
            # violates the Entity Integrity Rule, section 4.2.1), in
            # which case NULL keys are skipped for uniqueness.
            relation = self.schema.relation(constraint.relation)
            for column in constraint.columns:
                if relation.attribute(column).nullable:
                    continue
                for _ in self.null_cells(constraint.relation, (column,)):
                    violations.append(
                        IntegrityViolation(
                            constraint.name,
                            f"NULL in primary key column {column!r}",
                        )
                    )
        for key in self.duplicate_keys(constraint.relation, constraint.columns):
            violations.append(
                IntegrityViolation(
                    constraint.name,
                    f"duplicate key {key!r} in {constraint.relation!r}",
                )
            )
        return violations

    def _check_foreign_key(self, constraint: ForeignKey) -> list[IntegrityViolation]:
        return [
            IntegrityViolation(
                constraint.name,
                f"{constraint.relation!r} value "
                f"{tuple(row[c] for c in constraint.columns)!r} has no match "
                f"in {constraint.referenced_relation!r}"
                f"({', '.join(constraint.referenced_columns)})",
            )
            for row in self.unmatched_rows(constraint)
        ]

    def _check_check(self, constraint: CheckConstraint) -> list[IntegrityViolation]:
        return [
            IntegrityViolation(
                constraint.name,
                f"row {row!r} fails {constraint.predicate.render()}",
            )
            for row in self._tables[constraint.relation]
            if not constraint.predicate.evaluate(row)
        ]

    def _check_equality_view(
        self, constraint: EqualityViewConstraint
    ) -> list[IntegrityViolation]:
        left = self.evaluate_select(constraint.left)
        right = self.evaluate_select(constraint.right)
        if left == right:
            return []
        return [
            IntegrityViolation(
                constraint.name,
                f"view sets differ: only-left={sorted(left - right, key=repr)!r} "
                f"only-right={sorted(right - left, key=repr)!r}",
            )
        ]

    def _check_subset_view(
        self, constraint: SubsetViewConstraint
    ) -> list[IntegrityViolation]:
        subset = self.evaluate_select(constraint.subset)
        superset = self.evaluate_select(constraint.superset)
        stray = subset - superset
        if not stray:
            return []
        return [
            IntegrityViolation(
                constraint.name,
                f"tuples {sorted(stray, key=repr)!r} are not in the superset view",
            )
        ]

    # ------------------------------------------------------------------
    # Whole-database operations
    # ------------------------------------------------------------------

    def copy(self) -> "Database":
        """An independent copy sharing the schema object."""
        duplicate = Database(self.schema)
        duplicate._tables = {
            name: [dict(row) for row in rows] for name, rows in self._tables.items()
        }
        return duplicate

    def as_dict(self) -> dict[str, frozenset[tuple[object, ...]]]:
        """A canonical snapshot: relation -> set of attribute tuples."""
        return {
            relation.name: self.tuple_set(relation.name)
            for relation in self.schema.relations
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(len(rows) for rows in self._tables.values())
        return f"<Database of {self.schema.name!r}: {total} rows>"
