"""The four benchmark workloads, each as a plain op and a traced op.

Every workload draws its inputs from the benchmark seed during setup.
``run`` is one op exactly as a user of the library calls it; ``traced``
does the same work step by step through each layer's public
functions, timing every call from outside through a :class:`Recorder`.
Both return an :class:`Outcome` whose digest must agree, so the traced
op is checked against the plain one on every input.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import resource
from dataclasses import dataclass, field
from time import perf_counter

from repro.analyzer import analyze
from repro.analyzer.implication import check_implications
from repro.cris import cris_schema
from repro.executor import (
    ValidationReport,
    compile_rules,
    dataset_of,
    detection_matrix,
    load_dataset,
    resolve_backend,
    run_validation,
)
from repro.executor.harness import run_checks
from repro.lint import lint_schema
from repro.mapper import (
    MappingOptions,
    SublinkPolicy,
    advise,
    check_fixpoint,
    discover_space,
    enumerate_options,
    lift_schema,
    map_schema,
)
from repro.mapper.reverse import _schema_signature
from repro.robustness import MUTATOR_KINDS, plan_injections
from repro.sql.parse import parse_ddl
from repro.workloads import SchemaShape, generate_bulk_population, generate_schema

from catalogue import ADVISE, MAP, REVERSE, VALIDATE

#: The section-5 industrial shape (about 130-150 tables per draw); the
#: same figures as ``benchmarks/bench_industrial_scale.py``.
INDUSTRIAL_SHAPE = SchemaShape(
    entity_types=90,
    attributes_per_entity=(4, 9),
    optional_ratio=0.5,
    rich_constraints=True,
    exclusion_groups=5,
    subset_ratio=0.9,
    value_ratio=0.5,
    alternate_identifier_ratio=0.3,
    many_to_many_per_entity=0.6,
)

#: The advise workload's shape: the industrial constraint mix at a third
#: of the entity types (about 45 tables).  The option space is the same
#: (36 candidates in 9 prefix groups), but an op takes about 0.6 s
#: instead of 3-4 s, so a run covers about 30 ops, each on its own draw.
ADVISE_SHAPE = dataclasses.replace(INDUSTRIAL_SHAPE, entity_types=30)

#: Population size of a validate-cris op (about 29k relational rows).
#: The injection search's cost varies with the population seed by up
#: to 3x, so a run must cover several seeds to read the same twice.
VALIDATE_SCALE = 25_000


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def digest(*parts: str) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part.encode())
        sha.update(b"\0")
    return sha.hexdigest()


@dataclass
class Outcome:
    """What one op produced: its verdict, output digest and row count."""

    ok: bool
    digest: str
    #: Relational rows the op produced: rows loaded on validate-cris,
    #: tables designed on the schema workloads.
    rows: int


@dataclass
class Recorder:
    """Times each public layer call of a traced op from outside."""

    seconds: dict[str, float] = field(default_factory=dict)
    rss_growth_mb: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)

    def call(self, layer: str, fn, *args, **kwargs):
        before = peak_rss_mb()
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds[layer] = (
                self.seconds.get(layer, 0.0) + perf_counter() - started
            )
            self.rss_growth_mb[layer] = (
                self.rss_growth_mb.get(layer, 0.0) + peak_rss_mb() - before
            )

    def count_mapping(self, result) -> None:
        """Record the first mapping of the op (its input design)."""
        if "mapper.tables" not in self.counts:
            self.counts["mapper.tables"] = len(result.relational.relations)
            self.counts["mapper.constraints"] = (
                result.relational.stats()["constraints"]
            )


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


class MapIndustrial:
    """analyze -> map_schema(INDICATOR) -> sql("oracle") -> lint."""

    name = MAP
    #: Enough draws that each op of a run meets its own: a draw's op time
    #: varies by about 10%, so a run cycling over a few draws reads its
    #: seed's draws, not the code.
    pool = 48
    options = MappingOptions(sublink_policy=SublinkPolicy.INDICATOR)

    def inputs(self, seed: int) -> list:
        return [
            generate_schema(INDUSTRIAL_SHAPE, seed=s)
            for s in _seeds(seed, self.pool)
        ]

    @staticmethod
    def _outcome(result, ddl: str, lint) -> Outcome:
        return Outcome(
            ok=result.health.ok and not lint.errors,
            digest=digest(ddl),
            rows=len(result.relational.relations),
        )

    def run(self, schema) -> Outcome:
        analyze(schema)
        result = map_schema(schema, self.options)
        ddl = result.sql("oracle")
        return self._outcome(result, ddl, lint_schema(schema, result=result))

    def traced(self, schema, rec: Recorder) -> Outcome:
        rec.call("analyzer.analyze", analyze, schema)
        result = rec.call("mapper.map", map_schema, schema, self.options)
        rec.count_mapping(result)
        ddl = rec.call("sql.emit", result.sql, "oracle")
        rec.counts["sql.ddl_bytes"] = len(ddl.encode())
        lint = rec.call("lint.lint", lint_schema, schema, result=result)
        rec.counts["lint.findings"] = len(lint.diagnostics)
        return self._outcome(result, ddl, lint)


class ReverseIndustrial:
    """check_fixpoint(dialect="sql2"): map, emit, parse, lift, remap."""

    name = REVERSE
    pool = 24
    dialect = "sql2"

    inputs = MapIndustrial.inputs

    def run(self, schema) -> Outcome:
        report = check_fixpoint(schema, dialect=self.dialect)
        return Outcome(
            ok=report.ok,
            digest=digest(
                report.ddl_first,
                report.ddl_second,
                json.dumps(report.lift.report.as_dict(), sort_keys=True),
            ),
            rows=report.ddl_first.count("CREATE TABLE"),
        )

    def traced(self, schema, rec: Recorder) -> Outcome:
        # The rounds of check_fixpoint, one public call at a time.
        options = MappingOptions()
        results, ddls, lifts = [], [], []
        for round_ in range(3):
            rec.call("analyzer.analyze", analyze, schema)
            result = rec.call("mapper.map", map_schema, schema, options)
            rec.count_mapping(result)
            results.append(result)
            ddls.append(rec.call("sql.emit", result.sql, self.dialect))
            if round_ == 2:
                break
            parsed = rec.call("sql.parse", parse_ddl, ddls[-1], self.dialect)
            lifts.append(rec.call("mapper.lift", lift_schema, parsed))
            schema, options = lifts[-1].schema, lifts[-1].options
        closures = [
            rec.call("analyzer.implication", check_implications, lift.schema)
            for lift in lifts
        ]
        verdicts = [sorted(v.sort_key() for v in c.verdicts) for c in closures]
        # The fixpoint's own legs; _schema_signature is the structural
        # digest check_fixpoint compares, which has no public twin.
        ok = (
            ddls[2] == ddls[1]
            and _schema_signature(results[1].relational)
            == _schema_signature(results[2].relational)
            and verdicts[0] == verdicts[1]
            and closures[0].is_satisfiable
        )
        return Outcome(
            ok=ok,
            digest=digest(
                ddls[1],
                ddls[2],
                json.dumps(lifts[0].report.as_dict(), sort_keys=True),
            ),
            rows=ddls[1].count("CREATE TABLE"),
        )


class AdviseIndustrial:
    """advise(schema, workers=1) over the default option space.

    Serial, so that the op runs in the process whose speed ``speed.py``
    samples: with advisor workers the in-process samples compete with
    them for the host's two cores and scaled times spread more, not less.
    """

    name = ADVISE
    pool = 40
    workers = 1

    def inputs(self, seed: int) -> list:
        return [
            generate_schema(ADVISE_SHAPE, seed=s)
            for s in _seeds(seed, self.pool)
        ]

    @staticmethod
    def _outcome(report) -> Outcome:
        return Outcome(
            ok=report.winner is not None and not report.failures,
            digest=digest(report.to_json()),
            rows=sum(o.score.tables for o in report.ranked if o.score),
        )

    def run(self, schema) -> Outcome:
        return self._outcome(advise(schema, workers=self.workers))

    def traced(self, schema, rec: Recorder) -> Outcome:
        space = rec.call("mapper.optionspace", discover_space, schema)
        candidates = rec.call("mapper.optionspace", enumerate_options, space)
        report = rec.call(
            "mapper.advise", advise, schema, space, workers=self.workers
        )
        rec.counts["mapper.advise_candidates"] = len(candidates)
        rec.counts["mapper.advise_groups"] = report.prefix_groups
        rec.counts["mapper.advise_failed"] = len(report.failures)
        return self._outcome(report)


class ValidateCris:
    """run_validation(CRIS, sqlite, one check worker, with injections)."""

    name = VALIDATE
    pool = 12
    backend = "sqlite"

    def inputs(self, seed: int) -> list:
        resolve_backend(self.backend).backend.close()
        self.schema = cris_schema()
        return _seeds(seed, self.pool)

    @staticmethod
    def _outcome(report: ValidationReport) -> Outcome:
        payload = report.as_dict()
        del payload["timings"]
        return Outcome(
            ok=report.ok,
            digest=digest(json.dumps(payload, sort_keys=True)),
            rows=report.rows_loaded,
        )

    def run(self, seed: int) -> Outcome:
        return self._outcome(
            run_validation(
                self.schema,
                backend=self.backend,
                scale=VALIDATE_SCALE,
                seed=seed,
                check_workers=1,
                inject=True,
            )
        )

    def traced(self, seed: int, rec: Recorder) -> Outcome:
        # run_validation and its round trip, one public call at a time.
        schema = self.schema
        rec.call("analyzer.analyze", analyze, schema)
        result = rec.call("mapper.map", map_schema, schema, MappingOptions())
        rec.count_mapping(result)
        rules = rec.call(
            "executor.compile", compile_rules, result.relational,
            mapping=result,
        )
        population = rec.call(
            "workloads.generate", generate_bulk_population, schema,
            target_rows=VALIDATE_SCALE, seed=seed,
        )
        canonical = rec.call(
            "mapper.canonicalize", result.canonicalize,
            result.state.to_canonical(population), columnar=True,
        )
        database = rec.call("mapper.forward", result.state_map.forward, canonical)
        dataset = rec.call("mapper.forward", dataset_of, database)
        resolved = resolve_backend(self.backend)
        runner = resolved.backend
        relations = result.relational.relations
        try:
            rows_loaded = rec.call(
                "executor.load", load_dataset, runner, result.relational, dataset
            )
            found, workers = rec.call("executor.check", run_checks, runner, rules)
            violations = tuple(sorted({v.rule for v in found}))
            fetched = rec.call(
                "executor.fetch",
                lambda: {
                    r.name: runner.fetch_columns(r.name, r.attribute_names)
                    for r in relations
                },
            )
            diff = {}
            for relation in relations:
                names = relation.attribute_names
                cols = fetched[relation.name]
                if cols == database.fetch_columns(relation.name, names):
                    continue
                readback = set(zip(*(cols[name] for name in names)))
                delta = len(database.tuple_set(relation.name) ^ readback)
                if delta:
                    diff[relation.name] = delta
            if not diff:
                rebuilt = rec.call(
                    "mapper.backward", result.state_map.backward_columnar,
                    fetched, intern_like=canonical,
                )
                diff = {
                    f"<population:{name}>": n
                    for name, n in sorted(
                        rec.call(
                            "brm.state_diff", rebuilt.state_diff, canonical
                        ).items()
                    )
                }
            injections = rec.call(
                "robustness.plan_injections", plan_injections,
                result.relational, rules, dataset, seed=seed,
            )
            planned = {injection.kind for injection in injections}
            skipped = tuple(k for k in MUTATOR_KINDS if k not in planned)
            matrix = rec.call(
                "executor.matrix", detection_matrix, runner,
                result.relational, rules, injections,
                baseline=dataset, skipped_kinds=skipped, reuse_loaded=True,
                baseline_violations=frozenset(violations),
            )
            read_path = getattr(runner, "read_path", None) or "native"
        finally:
            runner.close()
        rule_counts: dict[str, int] = {}
        for rule in rules:
            rule_counts[rule.kind] = rule_counts.get(rule.kind, 0) + 1
        rec.counts.update({
            "executor.rows_loaded": rows_loaded,
            "executor.rules": len(rules),
            "executor.violations_on_valid": len(violations),
            "robustness.injections": len(injections),
            "robustness.skipped_kinds": len(skipped),
        })
        return self._outcome(
            ValidationReport(
                schema=schema.name,
                backend_requested=resolved.requested,
                backend_used=resolved.used,
                backend_note=resolved.note,
                seed=seed,
                scale=VALIDATE_SCALE,
                rows_loaded=rows_loaded,
                rule_counts=rule_counts,
                violations_on_valid=violations,
                round_trip_ok=not diff,
                round_trip_diff=diff,
                matrix=matrix,
                load_s=0.0,
                check_s=0.0,
                round_trip_s=0.0,
                check_workers=workers,
                read_path=read_path,
            )
        )


IMPLEMENTATIONS = {
    w.name: w
    for w in (MapIndustrial, ReverseIndustrial, AdviseIndustrial, ValidateCris)
}
