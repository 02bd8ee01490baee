"""The end-to-end validation harness: losslessness, empirically.

Three experiments over one mapped schema and one generated
population, all on a pluggable backend:

1. **Check** — forward-map the population, bulk-load it, run every
   compiled lossless rule: a valid state must violate nothing.
2. **Round-trip** — read the loaded rows back out of the backend,
   rebuild the database state, and map it backwards: the
   reconstructed population must equal the canonical original, and
   the re-forwarded database must equal what was loaded (Definition 2
   of the paper, now through a real SQL engine instead of symbolic
   state).
3. **Inject & detect** — plan one surgical violation per mutator
   kind (:mod:`repro.robustness.violations`), replay each one-row
   delta on the backend, and record the *detection matrix*: which
   rules fired for which injection.  Losslessness in the negative:
   the matrix must be exactly diagonal — every injection is caught by
   its target rule and by no other.

Everything is seeded and instrumented (``executor.*`` spans and
counters), and the result is a machine-readable
:class:`ValidationReport` the ``repro validate`` CLI prints.
"""

from __future__ import annotations

import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

from repro.brm.population import Population
from repro.brm.schema import BinarySchema
from repro.engine.database import Database
from repro.executor.backends import (
    Backend,
    ResolvedBackend,
    SqliteBackend,
    Violation,
    resolve_backend,
)
from repro.executor.compile import (
    CompiledRule,
    compile_rules,
    prunable_rules,
)
from repro.mapper import MappingOptions, map_schema
from repro.observability.tracer import NOOP_SPAN, Tracer
from repro.observability.tracer import active as _obs_active
from repro.observability.tracer import count as _obs_count
from repro.observability.tracer import span as _obs_span
from repro.robustness.violations import (
    MUTATOR_KINDS,
    Injection,
    plan_injections,
)
from repro.workloads.populations import generate_bulk_population

Dataset = dict[str, list[dict]]


def dataset_of(database: Database) -> Dataset:
    """The database's tables as a plain loadable dataset.

    The row dicts are *shared* with the database, not copied: every
    consumer (bulk loaders, the injection planner's delta verifier)
    treats dataset rows as read-only, so at harness scale there is no
    point duplicating a million dicts.
    """
    return {
        relation.name: list(database.iter_rows(relation.name))
        for relation in database.schema.relations
    }


def load_dataset(backend: Backend, schema, dataset: Dataset, *,
                 enforce: bool = False) -> int:
    """Create the tables and bulk-load every relation; returns rows."""
    loaded = 0
    with _obs_span("executor.load", backend=backend.name):
        backend.load_schema(schema, enforce=enforce)
        for relation, rows in dataset.items():
            backend.insert_rows(relation, rows)
            loaded += len(rows)
        backend.finish_load()
        _obs_count("executor.rows_loaded", loaded)
    return loaded


# ----------------------------------------------------------------------
# The (optionally sharded) check phase
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ShardTask:
    """One worker's slice of the compiled rules — the pool payload.

    ``trace_parent`` follows the advisor's span-grafting convention:
    the PID of the process whose tracer wants the worker's
    ``executor.*`` spans, or ``None`` when tracing is off.
    """

    db_path: str
    shard_index: int
    rules: tuple[tuple[int, CompiledRule], ...]
    trace_parent: int | None = None


@dataclass(frozen=True)
class _ShardResult:
    """Indexed violations plus, when traced in a worker, its spans."""

    violations: tuple[tuple[int, Violation], ...]
    spans: list | None = None
    metrics: dict | None = None


def _check_shard(task: _ShardTask) -> _ShardResult:
    """Run one rule shard against the snapshot (worker entry point).

    Module-level so the payload pickles; also usable in-process, so
    serial and sharded paths share one code path.
    """
    if task.trace_parent is not None and os.getpid() != task.trace_parent:
        collector = Tracer("executor-worker")
        with collector.activate():
            violations = _check_shard_violations(task)
        return _ShardResult(
            violations=violations,
            spans=collector.export_spans(),
            metrics=collector.metrics.snapshot(),
        )
    return _ShardResult(violations=_check_shard_violations(task))


def _check_shard_violations(
    task: _ShardTask,
) -> tuple[tuple[int, Violation], ...]:
    backend = SqliteBackend.open_snapshot(task.db_path)
    try:
        with _obs_span(
            "executor.check_shard",
            shard=task.shard_index,
            rules=len(task.rules),
        ):
            found = []
            for index, rule in task.rules:
                violation = backend.run_rule(rule)
                if violation is not None:
                    found.append((index, violation))
            return tuple(found)
    finally:
        backend.close()


def resolve_check_workers(workers: int | None, rules: int) -> int:
    """The effective check worker count: ``None`` auto-sizes to the
    CPU count, and never more workers than rules."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(workers, max(1, rules)))


def run_checks(
    backend: Backend,
    rules: tuple[CompiledRule, ...],
    *,
    workers: int = 1,
) -> tuple[list[Violation], int]:
    """Run every compiled rule, sharded across processes when asked.

    With ``workers > 1`` on a backend that can snapshot its loaded
    state (SQLite), the rules are dealt round-robin to worker
    processes that each open a read-only connection on the snapshot;
    violations are reassembled in compile order and worker spans are
    grafted in shard order, so the result — and the trace shape — is
    identical to a serial run.  Backends that cannot snapshot (and
    the ``workers <= 1`` case) run serially in-process.

    Returns ``(violations, effective_workers)``.
    """
    effective = resolve_check_workers(workers, len(rules))
    tracer = _obs_active()
    with _obs_span(
        "executor.check",
        backend=backend.name,
        rules=len(rules),
        workers=effective,
    ) as check_span:
        if effective <= 1:
            return backend.check(rules), 1
        with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
            snapshot = os.path.join(tmp, "state.db")
            if not backend.snapshot_to(snapshot):
                return backend.check(rules), 1
            shards: list[list[tuple[int, CompiledRule]]] = [
                [] for _ in range(effective)
            ]
            for index, rule in enumerate(rules):
                shards[index % effective].append((index, rule))
            tasks = [
                _ShardTask(
                    db_path=snapshot,
                    shard_index=shard_index,
                    rules=tuple(shard),
                    trace_parent=None if tracer is None else os.getpid(),
                )
                for shard_index, shard in enumerate(shards)
                if shard
            ]
            with ProcessPoolExecutor(max_workers=effective) as pool:
                results = list(pool.map(_check_shard, tasks))
        indexed: list[tuple[int, Violation]] = []
        for result in results:
            # Graft worker spans in shard order — deterministic
            # regardless of which worker ran which shard.
            if tracer is not None and result.spans:
                tracer.adopt(
                    result.spans,
                    parent=None if check_span is NOOP_SPAN else check_span,
                )
            if tracer is not None and result.metrics:
                tracer.metrics.merge(result.metrics)
            indexed.extend(result.violations)
        indexed.sort(key=lambda pair: pair[0])
        return [violation for _, violation in indexed], effective


@dataclass
class MatrixRow:
    """One injection replayed on one backend."""

    kind: str
    rule: str
    relation: str
    description: str
    detected: tuple[str, ...]

    @property
    def diagonal(self) -> bool:
        return self.detected == (self.rule,)


@dataclass
class DetectionMatrix:
    """The injection-by-rule detection matrix of one backend."""

    backend: str
    rows: list[MatrixRow] = field(default_factory=list)
    skipped_kinds: tuple[str, ...] = ()

    @property
    def diagonal(self) -> bool:
        return all(row.diagonal for row in self.rows)

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "diagonal": self.diagonal,
            "skipped_kinds": list(self.skipped_kinds),
            "rows": [
                {
                    "kind": row.kind,
                    "rule": row.rule,
                    "relation": row.relation,
                    "description": row.description,
                    "detected": list(row.detected),
                    "diagonal": row.diagonal,
                }
                for row in self.rows
            ],
        }


@dataclass(frozen=True)
class _MatrixItem:
    """One injection's replay payload: its delta's rows and rules."""

    index: int
    relation: str
    removed: tuple[dict, ...]
    added: tuple[dict, ...]
    rules: tuple[CompiledRule, ...]


@dataclass(frozen=True)
class _MatrixTask:
    """One worker's slice of the injection matrix.

    ``schema`` rides along because a snapshot connection alone cannot
    replay a delta (the row statements need the relations' attribute
    order).
    """

    db_path: str
    shard_index: int
    items: tuple[_MatrixItem, ...]
    schema: object = None
    trace_parent: int | None = None


@dataclass(frozen=True)
class _MatrixResult:
    fired: tuple[tuple[int, tuple[str, ...]], ...]
    spans: list | None = None
    metrics: dict | None = None


def _replay(backend: Backend, item: _MatrixItem) -> tuple[str, ...]:
    """Apply one delta, run its affected rules, apply the inverse."""
    backend.delete_rows(item.relation, item.removed)
    backend.insert_rows(item.relation, item.added)
    fired = tuple(sorted({v.rule for v in backend.check(item.rules)}))
    backend.delete_rows(item.relation, item.added)
    backend.insert_rows(item.relation, item.removed)
    return fired


def _matrix_shard(task: _MatrixTask) -> _MatrixResult:
    """Replay one injection shard on the snapshot (worker entry)."""
    if task.trace_parent is not None and os.getpid() != task.trace_parent:
        collector = Tracer("executor-worker")
        with collector.activate():
            fired = _matrix_shard_fired(task)
        return _MatrixResult(
            fired=fired,
            spans=collector.export_spans(),
            metrics=collector.metrics.snapshot(),
        )
    return _MatrixResult(fired=_matrix_shard_fired(task))


def _matrix_shard_fired(
    task: _MatrixTask,
) -> tuple[tuple[int, tuple[str, ...]], ...]:
    backend = SqliteBackend.open_snapshot(task.db_path)
    backend._schema = task.schema
    try:
        with _obs_span(
            "executor.inject_shard",
            shard=task.shard_index,
            injections=len(task.items),
        ):
            return tuple(
                (item.index, _replay(backend, item)) for item in task.items
            )
    finally:
        backend.close()


def _replay_injections(
    backend: Backend,
    schema,
    items: list[_MatrixItem],
    *,
    workers: int = 1,
    parent_span=None,
) -> list[tuple[str, ...]]:
    """Which affected rules fire per injection, optionally sharded.

    With ``workers > 1`` on a snapshot-capable backend, the loaded
    baseline is snapshotted *once* and each worker process replays
    its share of the deltas on its own copy.  Serially the deltas
    are replayed on the live backend.  Either way the result is
    deterministic and the backend is left holding the baseline rows.
    """
    effective = resolve_check_workers(workers, len(items))
    tracer = _obs_active()
    if effective > 1:
        with tempfile.TemporaryDirectory(prefix="repro-inject-") as tmp:
            snapshot = os.path.join(tmp, "baseline.db")
            if backend.snapshot_to(snapshot):
                tasks = [
                    _MatrixTask(
                        db_path=snapshot,
                        shard_index=shard_index,
                        items=tuple(items[shard_index::effective]),
                        schema=schema,
                        trace_parent=(
                            None if tracer is None else os.getpid()
                        ),
                    )
                    for shard_index in range(effective)
                ]
                with ProcessPoolExecutor(max_workers=effective) as pool:
                    results = list(pool.map(_matrix_shard, tasks))
                indexed: list[tuple[int, tuple[str, ...]]] = []
                for result in results:
                    # Graft worker spans in shard order, exactly like
                    # the sharded check phase.
                    if tracer is not None and result.spans:
                        tracer.adopt(
                            result.spans,
                            parent=(
                                None
                                if parent_span is NOOP_SPAN
                                else parent_span
                            ),
                        )
                    if tracer is not None and result.metrics:
                        tracer.metrics.merge(result.metrics)
                    indexed.extend(result.fired)
                indexed.sort(key=lambda pair: pair[0])
                return [fired for _, fired in indexed]
    return [_replay(backend, item) for item in items]


def detection_matrix(
    backend: Backend,
    schema,
    rules: tuple[CompiledRule, ...],
    injections: list[Injection],
    *,
    baseline: Dataset,
    skipped_kinds: tuple[str, ...] = (),
    reuse_loaded: bool = False,
    baseline_violations: frozenset[str] | None = None,
    workers: int = 1,
) -> DetectionMatrix:
    """Replay planned injections on a backend holding ``baseline``.

    ``baseline`` (the clean dataset) is loaded once, and each
    injection's one-row delta is applied, checked and undone in
    place (:meth:`Backend.delete_rows` plus
    :meth:`Backend.insert_rows`), so the backend ends holding the
    baseline rows again.

    Only the rules whose dependency relations
    (:attr:`CompiledRule.relations`) include the delta's relation are
    re-run; every other rule sees exactly the baseline rows, so its
    baseline verdict carries over.  Pass ``baseline_violations``
    (the rule names violated on the clean state) to skip re-deriving
    them, and ``reuse_loaded=True`` when the backend already holds
    the loaded baseline — the harness does both, so the dataset is
    loaded exactly once per validation run.  ``workers > 1`` shards
    the replays across processes, each forking the baseline snapshot
    (see :func:`_replay_injections`).
    """
    matrix = DetectionMatrix(backend.name, skipped_kinds=skipped_kinds)
    with _obs_span(
        "executor.inject",
        backend=backend.name,
        injections=len(injections),
    ) as inject_span:
        if not injections:
            return matrix
        if not reuse_loaded:
            load_dataset(backend, schema, baseline)
        if baseline_violations is None:
            baseline_violations = frozenset(
                violation.rule for violation in backend.check(rules)
            )
        deps = {rule.name: rule.relations for rule in rules}
        items = [
            _MatrixItem(
                index=index,
                relation=injection.delta.relation,
                removed=injection.delta.removed(baseline),
                added=injection.delta.added,
                rules=tuple(
                    rule
                    for rule in rules
                    if injection.delta.relation in deps[rule.name]
                ),
            )
            for index, injection in enumerate(injections)
        ]
        fired = _replay_injections(
            backend, schema, items, workers=workers, parent_span=inject_span,
        )
        for injection, fired_rules in zip(injections, fired):
            carried = {
                name
                for name in baseline_violations
                if injection.delta.relation not in deps[name]
            }
            detected = tuple(sorted(set(fired_rules) | carried))
            _obs_count("executor.violations", len(detected))
            matrix.rows.append(
                MatrixRow(
                    injection.kind,
                    injection.rule,
                    injection.relation,
                    injection.description,
                    detected,
                )
            )
    return matrix


@dataclass
class ValidationReport:
    """The machine-readable outcome of one harness run."""

    schema: str
    backend_requested: str
    backend_used: str
    backend_note: str | None
    seed: int
    scale: int
    rows_loaded: int
    rule_counts: dict[str, int]
    violations_on_valid: tuple[str, ...]
    round_trip_ok: bool
    round_trip_diff: dict[str, int]
    matrix: DetectionMatrix | None
    load_s: float
    check_s: float
    round_trip_s: float
    check_workers: int = 1
    #: How the backend served the bulk read: ``"arrow"`` (DuckDB with
    #: pyarrow), ``"native"`` (direct column extraction), or
    #: ``"fallback"`` (the default transpose of ``Backend.rows``).
    read_path: str = "native"
    #: Rules skipped under ``prune_implied`` (rule name -> the proof
    #: the implication engine produced).  Empty when pruning is off.
    pruned_rules: dict[str, str] = field(default_factory=dict)
    #: The injection phase: planning on the reference backend, and
    #: the detection matrix's replay.  Zero without ``inject``.
    plan_s: float = 0.0
    matrix_s: float = 0.0

    @property
    def ok(self) -> bool:
        return (
            not self.violations_on_valid
            and self.round_trip_ok
            and (self.matrix is None or self.matrix.diagonal)
        )

    def _rate(self, seconds: float) -> float:
        return self.rows_loaded / seconds if seconds > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "ok": self.ok,
            "backend": {
                "requested": self.backend_requested,
                "used": self.backend_used,
                "note": self.backend_note,
            },
            "seed": self.seed,
            "scale": self.scale,
            "rows_loaded": self.rows_loaded,
            "rules": self.rule_counts,
            "violations_on_valid": list(self.violations_on_valid),
            "round_trip": {
                "ok": self.round_trip_ok,
                "diff": self.round_trip_diff,
                "read_path": self.read_path,
            },
            "matrix": None if self.matrix is None else self.matrix.as_dict(),
            "pruned_rules": dict(sorted(self.pruned_rules.items())),
            # check_workers lives under "timings" deliberately: the
            # block is the report's only run-environment-dependent
            # part, and the workers-determinism contract is "reports
            # are byte-identical across --check-workers once timings
            # are stripped".
            "timings": {
                "load_s": round(self.load_s, 6),
                "check_s": round(self.check_s, 6),
                "round_trip_s": round(self.round_trip_s, 6),
                "load_rows_per_s": round(self._rate(self.load_s), 1),
                "check_rows_per_s": round(self._rate(self.check_s), 1),
                "round_trip_rows_per_s": round(
                    self._rate(self.round_trip_s), 1
                ),
                "plan_s": round(self.plan_s, 6),
                "matrix_s": round(self.matrix_s, 6),
                "check_workers": self.check_workers,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        lines = [
            f"validation of {self.schema!r} "
            f"on backend {self.backend_used!r} "
            f"(requested {self.backend_requested!r})",
        ]
        if self.backend_note:
            lines.append(f"  note: {self.backend_note}")
        lines.append(
            f"  loaded {self.rows_loaded} rows "
            f"({self._rate(self.load_s):,.0f} rows/s), "
            f"checked {sum(self.rule_counts.values())} rules "
            f"({self._rate(self.check_s):,.0f} rows/s)"
        )
        lines.append(
            "  valid state: "
            + (
                "no rule violated"
                if not self.violations_on_valid
                else f"VIOLATED {sorted(self.violations_on_valid)}"
            )
        )
        lines.append(
            "  round trip: "
            + (
                "empty diff"
                if self.round_trip_ok
                else f"DIFF {self.round_trip_diff}"
            )
            + f" ({self.read_path} read)"
        )
        if self.matrix is not None:
            lines.append(
                f"  detection matrix: "
                f"{len(self.matrix.rows)} injections, "
                + ("diagonal" if self.matrix.diagonal else "NOT diagonal")
                + f" (planned in {self.plan_s:.3f} s, "
                f"replayed in {self.matrix_s:.3f} s)"
            )
            for row in self.matrix.rows:
                mark = "ok" if row.diagonal else "MISMATCH"
                lines.append(
                    f"    {row.kind:20} -> {row.rule:24} "
                    f"detected={list(row.detected)} [{mark}]"
                )
            if self.matrix.skipped_kinds:
                lines.append(
                    "    (no surgical site for: "
                    + ", ".join(self.matrix.skipped_kinds)
                    + ")"
                )
        if self.pruned_rules:
            lines.append(
                f"  pruned {len(self.pruned_rules)} implied rule(s): "
                + ", ".join(sorted(self.pruned_rules))
            )
        lines.append(f"  result: {'OK' if self.ok else 'INVALID'}")
        return "\n".join(lines)


def run_validation(
    schema: BinarySchema,
    options: MappingOptions | None = None,
    *,
    backend: str = "auto",
    scale: int = 1000,
    seed: int = 7,
    inject: bool = True,
    check_workers: int = 1,
    prune_implied: bool = False,
    resolved: ResolvedBackend | None = None,
) -> ValidationReport:
    """Run the full harness on one schema under one option set.

    ``check_workers > 1`` shards the compiled checker queries across
    worker processes on backends that support it (see
    :func:`run_checks`); the report is byte-identical across worker
    counts except for the ``timings`` block.  ``prune_implied=True``
    skips checker queries for rules the implication engine proved
    implied by other enforced rules; the report records the pruned
    rule names with their proofs.
    """
    with _obs_span(
        "executor.validate", schema=schema.name, backend=backend, scale=scale
    ):
        result = map_schema(schema, options or MappingOptions())
        pruned = prunable_rules(result) if prune_implied else {}
        rules = compile_rules(
            result.relational, prune_implied=prune_implied, mapping=result
        )
        population = generate_bulk_population(
            schema, target_rows=scale, seed=seed
        )
        canonical = result.canonicalize(result.state.to_canonical(population))
        database = result.state_map.forward(canonical)
        dataset = dataset_of(database)
        if resolved is None:
            resolved = resolve_backend(backend)
        runner = resolved.backend
        try:
            started = perf_counter()
            rows_loaded = load_dataset(runner, result.relational, dataset)
            load_s = perf_counter() - started

            started = perf_counter()
            found, workers_used = run_checks(
                runner, rules, workers=check_workers
            )
            valid_violations = tuple(sorted({v.rule for v in found}))
            check_s = perf_counter() - started

            started = perf_counter()
            with _obs_span("executor.roundtrip", backend=runner.name):
                round_trip_ok, diff, read_path = _round_trip(
                    runner, result, database, canonical
                )
            round_trip_s = perf_counter() - started

            matrix = None
            skipped: tuple[str, ...] = ()
            plan_s = matrix_s = 0.0
            if inject:
                started = perf_counter()
                injections = plan_injections(
                    result.relational, rules, dataset, seed=seed
                )
                plan_s = perf_counter() - started
                planned = {injection.kind for injection in injections}
                skipped = tuple(
                    kind for kind in MUTATOR_KINDS if kind not in planned
                )
                # The backend still holds the loaded baseline (the
                # check phase and round trip only read), and the
                # clean-state check already ran: reuse both instead
                # of reloading and rechecking per injection.
                started = perf_counter()
                matrix = detection_matrix(
                    runner, result.relational, rules, injections,
                    baseline=dataset, skipped_kinds=skipped,
                    reuse_loaded=True,
                    baseline_violations=frozenset(valid_violations),
                    workers=check_workers,
                )
                matrix_s = perf_counter() - started
        finally:
            runner.close()
        rule_counts: dict[str, int] = {}
        for rule in rules:
            rule_counts[rule.kind] = rule_counts.get(rule.kind, 0) + 1
        return ValidationReport(
            schema=schema.name,
            backend_requested=resolved.requested,
            backend_used=resolved.used,
            backend_note=resolved.note,
            seed=seed,
            scale=scale,
            rows_loaded=rows_loaded,
            rule_counts=rule_counts,
            violations_on_valid=valid_violations,
            round_trip_ok=round_trip_ok,
            round_trip_diff=diff,
            matrix=matrix,
            load_s=load_s,
            check_s=check_s,
            round_trip_s=round_trip_s,
            check_workers=workers_used,
            read_path=read_path,
            pruned_rules=pruned,
            plan_s=plan_s,
            matrix_s=matrix_s,
        )


def _round_trip(
    backend: Backend, result, database: Database, canonical: Population
) -> tuple[bool, dict[str, int], str]:
    """Query the loaded state back and diff it against the original.

    Every relation is bulk-read once as value columns
    (:meth:`Backend.fetch_columns`), row-diffed as tuple sets against
    the in-memory original, and — on an empty row diff — mapped
    backwards with ``backward_columnar`` and compared to the canonical
    population by set algebra (``state_diff``).

    The diff counts, per relation, the rows that changed across the
    backend boundary (symmetric difference of tuple sets); population
    differences are reported per type/fact under
    ``<population:...>`` keys.  Returns ``(ok, diff, read_path)``.
    """
    schema = database.schema
    fetched = {
        relation.name: backend.fetch_columns(
            relation.name, relation.attribute_names
        )
        for relation in schema.relations
    }
    read_path = backend.read_path or "native"
    diff: dict[str, int] = {}
    for relation in schema.relations:
        names = relation.attribute_names
        if not names:  # pragma: no cover - no attribute-less relations
            readback = {
                () for _ in range(backend.count_rows(relation.name))
            }
            delta = len(database.tuple_set(relation.name) ^ readback)
            if delta:
                diff[relation.name] = delta
            continue
        cols = fetched[relation.name]
        # Fast path: backends preserve insertion order, so a loaded
        # relation usually reads back column-identical — a flat list
        # compare, with the order-insensitive tuple-set diff reserved
        # for states that actually differ (or got reordered).
        if cols == database.fetch_columns(relation.name, names):
            continue
        readback = set(zip(*(cols[name] for name in names)))
        delta = len(database.tuple_set(relation.name) ^ readback)
        if delta:
            diff[relation.name] = delta
    if diff:
        return False, diff, read_path
    reconstructed = result.state_map.backward_columnar(
        fetched, intern_like=canonical
    )
    population_diff = reconstructed.state_diff(canonical)
    if population_diff:
        return (
            False,
            {
                f"<population:{name}>": count
                for name, count in sorted(population_diff.items())
            },
            read_path,
        )
    return True, {}, read_path
