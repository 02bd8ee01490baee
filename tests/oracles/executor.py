"""The row-at-a-time reference checker and the full-reload matrix.

Three oracles, each the production code from before the engine's
C-speed checking kernels and the one-row delta replay, kept as it was
(the matrix loop without its trace counter):

- :class:`ScanDatabase` keeps :class:`Database`'s ``row.get`` scans
  for the view sides, NOT NULL, keys and foreign keys, and its own
  copy of ``check()``'s ``isinstance`` dispatch over the per-kind
  ``_check_*`` bodies, from before each constraint reported itself;
- :func:`run_rule` is the in-memory backend's rule interpreter over
  those scans;
- :func:`full_reload_matrix` replays every injection by reloading its
  whole mutated dataset and running every rule.

``tests/executor/test_memory_kernels.py`` and
``tests/executor/test_replay.py`` assert the production paths equal
these, result for result and in order.

:func:`rule_relations` keeps ``CompiledRule.relations`` as an
``isinstance`` chain over the constraint kinds, from before the rule
asked its constraint's ``relations_used()``;
``tests/executor/test_memory_kernels.py`` asserts both agree on every
compiled rule.
"""

from __future__ import annotations

from repro.engine.database import Database
from repro.engine.query import duplicates, project, select_rows
from repro.errors import IntegrityViolation
from repro.executor.backends import Violation, _sample
from repro.executor.harness import MatrixRow, load_dataset
from repro.relational.constraints import (
    CandidateKey,
    CheckConstraint,
    EqualityViewConstraint,
    ForeignKey,
    PrimaryKey,
    SelectSpec,
    SubsetViewConstraint,
)


class ScanDatabase(Database):
    """A :class:`Database` whose checks scan rows with ``row.get``."""

    @classmethod
    def sharing(cls, database: Database) -> "ScanDatabase":
        """A scan view over ``database``'s own tables (not copied)."""
        view = cls(database.schema)
        view._tables = database._tables
        return view

    def evaluate_select(self, spec: SelectSpec) -> set[tuple[object, ...]]:
        """The tuple set denoted by one side of a view constraint."""
        matched = select_rows(self._tables[spec.relation], spec.where)
        return set(project(matched, spec.columns, distinct=True))

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

    def _check_not_null(self) -> list[IntegrityViolation]:
        violations = []
        for relation in self.schema.relations:
            required = [a.name for a in relation.attributes if not a.nullable]
            for row in self._tables[relation.name]:
                for column in required:
                    if row.get(column) is None:
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
        table = self._tables[constraint.relation]
        if isinstance(constraint, PrimaryKey):
            # Entity integrity — unless the attribute was explicitly made
            # nullable (the paper's "NULL ALLOWED" option deliberately
            # violates the Entity Integrity Rule, section 4.2.1), in
            # which case NULL keys are skipped for uniqueness.
            relation = self.schema.relation(constraint.relation)
            for column in constraint.columns:
                if relation.attribute(column).nullable:
                    continue
                for row in table:
                    if row.get(column) is None:
                        violations.append(
                            IntegrityViolation(
                                constraint.name,
                                f"NULL in primary key column {column!r}",
                            )
                        )
        for key in duplicates(table, constraint.columns):
            violations.append(
                IntegrityViolation(
                    constraint.name,
                    f"duplicate key {key!r} in {constraint.relation!r}",
                )
            )
        return violations

    def _check_foreign_key(self, constraint: ForeignKey) -> list[IntegrityViolation]:
        referenced = {
            tuple(row.get(c) for c in constraint.referenced_columns)
            for row in self._tables[constraint.referenced_relation]
        }
        violations = []
        for row in self._tables[constraint.relation]:
            key = tuple(row.get(c) for c in constraint.columns)
            if any(value is None for value in key):
                continue  # partially/fully NULL FKs do not need a match
            if key not in referenced:
                violations.append(
                    IntegrityViolation(
                        constraint.name,
                        f"{constraint.relation!r} value {key!r} has no match "
                        f"in {constraint.referenced_relation!r}"
                        f"({', '.join(constraint.referenced_columns)})",
                    )
                )
        return violations

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


def run_rule(database: Database, rule) -> Violation | None:
    """``MemoryBackend.run_rule`` before the kernels (pass a
    :class:`ScanDatabase` for the scan ``evaluate_select``)."""
    # Read-only interpretation: iterate the engine's live rows
    # (``iter_rows``) instead of copying whole tables per rule —
    # the injection planner runs this checker hundreds of times.
    constraint = rule.constraint
    if rule.kind == "not-null":
        bad = [
            row
            for row in database.iter_rows(rule.relation)
            if row.get(rule.constraint.column) is None
        ]
    elif rule.kind in ("primary-key", "candidate-key"):
        bad = duplicates(
            list(database.iter_rows(rule.relation)), constraint.columns
        )
    elif rule.kind == "foreign-key":
        referenced = {
            tuple(row.get(c) for c in constraint.referenced_columns)
            for row in database.iter_rows(constraint.referenced_relation)
        }
        bad = [
            row
            for row in database.iter_rows(rule.relation)
            if None
            not in (key := tuple(row.get(c) for c in constraint.columns))
            and key not in referenced
        ]
    elif rule.kind == "check":
        bad = [
            row
            for row in database.iter_rows(rule.relation)
            if not constraint.predicate.evaluate(row)
        ]
    elif rule.kind == "equality-view":
        left = database.evaluate_select(constraint.left)
        right = database.evaluate_select(constraint.right)
        bad = sorted(left ^ right, key=repr)
    else:  # subset-view
        subset = database.evaluate_select(constraint.subset)
        superset = database.evaluate_select(constraint.superset)
        bad = sorted(subset - superset, key=repr)
    if not bad:
        return None
    return Violation(
        rule.name, rule.kind, rule.relation, len(bad), _sample(bad)
    )


def full_reload_matrix(backend, schema, rules, injections) -> list[MatrixRow]:
    """The detection matrix by reloading each mutated dataset whole and
    running every rule on it."""
    rows = []
    for injection in injections:
        load_dataset(backend, schema, injection.dataset)
        detected = tuple(
            sorted({v.rule for v in backend.check(rules)})
        )
        rows.append(
            MatrixRow(
                injection.kind,
                injection.rule,
                injection.relation,
                injection.description,
                detected,
            )
        )
    return rows


def rule_relations(rule) -> frozenset[str]:
    """Every relation a compiled rule's verdict depends on."""
    constraint = rule.constraint
    deps = {rule.relation}
    if isinstance(constraint, ForeignKey):
        deps.add(constraint.referenced_relation)
    elif isinstance(constraint, EqualityViewConstraint):
        deps.add(constraint.left.relation)
        deps.add(constraint.right.relation)
    elif isinstance(constraint, SubsetViewConstraint):
        deps.add(constraint.subset.relation)
        deps.add(constraint.superset.relation)
    return frozenset(deps)
