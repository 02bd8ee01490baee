"""RIDL-M's entry point: ``map_schema``.

Orchestrates a mapping session: analyzer gate (a schema with blocking
RIDL-A errors is refused), the rule-driven binary-to-binary phase,
plan synthesis, the combine/omit relational options, materialization
with lossless rules, and assembly of the
:class:`~repro.mapper.result.MappingResult`.

The session is fault tolerant (see ``docs/ROBUSTNESS.md``): every
rule firing runs under a :class:`~repro.robustness.GuardedExecutor`
that snapshots the state, re-validates invariants after the firing,
and rolls back and quarantines an offending rule; the phases can be
checkpointed through a :class:`~repro.robustness.CheckpointManager`
so a failed session resumes instead of restarting; and the
:class:`~repro.robustness.HealthReport` on the result records every
recovery decision.  ``robustness="strict"`` (default) aborts on the
first failure, ``robustness="best-effort"`` survives bad expert rules
and failed optional phases and reports the degradation.

The pipeline has a natural seam after plan synthesis: the binary
phase and the synthesis depend only on the *prefix* fields of the
options (null policy, sublink policies, lexical preferences, scope),
while combines, omissions and materialization act on the finished
plan.  :func:`map_prefix` runs the session up to that seam and
returns a reusable :class:`MappingPrefix`; :func:`map_from_prefix`
and :func:`plan_from_prefix` fork any number of combine/omit/
materialize suffixes from it.  ``map_schema`` is the composition of
the two halves, and the option advisor
(:mod:`repro.mapper.advisor`) uses the seam to run each distinct
prefix exactly once while exploring a whole option lattice.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.analyzer.api import analyze
from repro.brm.schema import BinarySchema
from repro.errors import AnalysisError, MappingError
from repro.mapper.lossless import materialize
from repro.mapper.options import MappingOptions, NullPolicy
from repro.mapper.relational_relational import apply_combines, apply_omissions
from repro.mapper.result import MappingResult
from repro.mapper.rulebase import Rule, TransformationEngine
from repro.mapper.state import MappingState, StateSnapshot
from repro.mapper.state_map import RelationalStateMap
from repro.mapper.synthesis import MappingPlan, build_plan
from repro.observability.tracer import span as _obs_span
from repro.robustness import (
    CheckpointManager,
    GuardedExecutor,
    RecoveryMode,
    faults,
    resolve_mode,
)
from repro.robustness.health import HealthReport


class _PhaseRunner:
    """Runs the named pipeline phases of one session.

    Factors the phase bookkeeping — fault-injection points, health
    records, optional checkpointing, and the best-effort rollback of
    the mapping-option phases — out of the pipeline functions so the
    full pipeline and the prefix/suffix halves share it exactly.
    """

    def __init__(
        self,
        state: MappingState,
        mode: RecoveryMode,
        health: HealthReport,
        checkpoints: CheckpointManager | None,
    ) -> None:
        self.state = state
        self.mode = mode
        self.health = health
        self.checkpoints = checkpoints

    def run(self, name, fn):
        with _obs_span(f"phase:{name}"):
            if self.checkpoints is not None:
                return self.checkpoints.run(
                    name, self.state, fn, self.health
                )
            faults.reach(f"phase:{name}", state=self.state)
            value = fn()
            self.health.completed_phases.append(name)
            return value

    def run_optional(self, name, fn, fallback):
        """A mapping-option phase: best-effort sessions survive its
        failure by rolling it back and continuing without it."""
        if self.mode is not RecoveryMode.BEST_EFFORT:
            return self.run(name, fn)
        entry = self.state.snapshot()
        # A cheap shallow restore point instead of deepcopy: the copy
        # cannot be deferred into the except path because the option
        # phases mutate the plan's dicts in place and may raise
        # mid-loop, after some entries were already replaced.
        backup = fallback.snapshot()
        try:
            return self.run(name, fn)
        except Exception as exc:  # best-effort: any phase failure rolls back
            self.state.restore(entry)
            self.health.rollback(f"phase:{name}", f"rolled back after {exc!r}")
            self.health.degrade(f"mapping option phase {name!r} skipped: {exc}")
            return backup


def _run_prefix(
    runner: _PhaseRunner, extra_rules: tuple[Rule, ...]
) -> MappingPlan:
    """The binary rule-firing phase and the plan synthesis."""
    executor = GuardedExecutor(runner.mode, runner.health)
    engine = TransformationEngine()
    for rule in extra_rules:
        engine.add_rule(rule)

    def binary_phase():
        engine.run(runner.state, executor=executor)
        return None

    runner.run("binary", binary_phase)
    return runner.run("plan", lambda: build_plan(runner.state))


def _run_option_phases(runner: _PhaseRunner, plan: MappingPlan) -> MappingPlan:
    """The combine and omit phases (mapping options 4 and 5)."""
    state = runner.state

    def combines_phase(p=plan):
        apply_combines(state, p)
        return p

    plan = runner.run_optional("combines", combines_phase, plan)

    def omissions_phase(p=plan):
        apply_omissions(state, p)
        return p

    return runner.run_optional("omissions", omissions_phase, plan)


def _run_materialize(
    runner: _PhaseRunner,
    source: BinarySchema,
    plan: MappingPlan,
) -> MappingResult:
    """Materialization and result assembly."""
    state = runner.state

    def materialize_phase(p=plan):
        relational, provenance = materialize(state, p)
        return relational, provenance, p

    relational, provenance, plan = runner.run(
        "materialize", materialize_phase
    )
    for pseudo in state.pseudo_constraints:
        provenance.add_forward(
            f"PSEUDO {pseudo.name}",
            pseudo.text,
        )
    return MappingResult(
        source=source,
        canonical=state.schema,
        relational=relational,
        options=state.options,
        plan=plan,
        provenance=provenance,
        steps=state.steps,
        pseudo_constraints=state.pseudo_constraints,
        state=state,
        state_map=RelationalStateMap(plan, relational),
        health=runner.health,
    )


def map_schema(
    schema: BinarySchema,
    options: MappingOptions | None = None,
    *,
    analyze_first: bool = True,
    extra_rules: tuple[Rule, ...] = (),
    robustness: RecoveryMode | str | None = None,
    checkpoints: CheckpointManager | None = None,
) -> MappingResult:
    """Map a binary conceptual schema to a relational design.

    ``options`` are the section-4.2 mapping options; ``extra_rules``
    are appended to the default rule base (the paper's externalized
    "expert rules").  With ``analyze_first`` (default) the schema must
    pass RIDL-A: correctness/consistency errors always block;
    non-referable object types block unless the NULL ALLOWED policy is
    chosen (a non-homogeneous reference may still make them mappable,
    which the synthesis verifies).

    ``robustness`` selects the recovery mode (``"strict"`` default,
    ``"best-effort"`` to survive bad rules and failed mapping-option
    phases); ``checkpoints`` is an optional
    :class:`~repro.robustness.CheckpointManager` — pass the same
    manager again after a failure to resume the session from the last
    completed phase.
    """
    options = options or MappingOptions()
    mode = resolve_mode(robustness)
    with _obs_span(
        "mapper.map_schema", schema=schema.name, mode=mode.value
    ):
        if analyze_first:
            _gate(schema, options)
        if checkpoints is not None:
            checkpoints.bind(schema.name, options)
        health = HealthReport(mode=mode.value)
        state = MappingState(
            schema=schema.copy(), options=options, original=schema
        )
        runner = _PhaseRunner(state, mode, health, checkpoints)
        plan = _run_prefix(runner, extra_rules)
        plan = _run_option_phases(runner, plan)
        return _run_materialize(runner, schema, plan)


@dataclass(frozen=True)
class MappingPrefix:
    """The shared binary-phase prefix of a family of mapping sessions.

    Captures the session right after plan synthesis: the post-plan
    state image (a cheap :class:`~repro.mapper.state.StateSnapshot`,
    not a deepcopy) plus the synthesized plan.  Every option set that
    agrees with ``options`` on its
    :meth:`~repro.mapper.options.MappingOptions.prefix_key` — i.e.
    differs only in combine/omit choices — can fork its suffix from
    this prefix through :func:`map_from_prefix` or
    :func:`plan_from_prefix` instead of redoing the binary phase.
    """

    source: BinarySchema
    options: MappingOptions  #: prefix-normalized (no combine/omit)
    snapshot: StateSnapshot
    plan: MappingPlan
    health: HealthReport
    mode: RecoveryMode

    def fork_state(self, options: MappingOptions) -> MappingState:
        """A fresh working state at the seam, under new options."""
        state = MappingState(
            schema=self.source.copy(),
            options=options,
            original=self.source,
        )
        state.restore(self.snapshot)
        return state

    def fork_plan(self, options: MappingOptions) -> MappingPlan:
        """An independent plan copy carrying the candidate's options."""
        plan = self.plan.snapshot()
        plan.options = options
        return plan


def map_prefix(
    schema: BinarySchema,
    options: MappingOptions | None = None,
    *,
    analyze_first: bool = True,
    extra_rules: tuple[Rule, ...] = (),
    robustness: RecoveryMode | str | None = None,
    checkpoints: CheckpointManager | None = None,
) -> MappingPrefix:
    """Run a mapping session up to the post-plan seam, reusably.

    Combine/omit fields of ``options`` are ignored (stripped via
    :meth:`~repro.mapper.options.MappingOptions.prefix_options`); they
    belong to the suffixes forked from the returned prefix.  A
    ``checkpoints`` manager, when given, is bound to the *prefix*
    options, so a failed prefix run can be resumed like any session.
    """
    options = (options or MappingOptions()).prefix_options()
    mode = resolve_mode(robustness)
    with _obs_span(
        "mapper.map_prefix", schema=schema.name, mode=mode.value
    ):
        if analyze_first:
            _gate(schema, options)
        if checkpoints is not None:
            checkpoints.bind(schema.name, options)
        health = HealthReport(mode=mode.value)
        state = MappingState(
            schema=schema.copy(), options=options, original=schema
        )
        runner = _PhaseRunner(state, mode, health, checkpoints)
        plan = _run_prefix(runner, extra_rules)
        state_snapshot = state.snapshot()
    return MappingPrefix(
        source=schema,
        options=options,
        snapshot=state_snapshot,
        plan=plan.snapshot(),
        health=health,
        mode=mode,
    )


def _fork(
    prefix: MappingPrefix,
    options: MappingOptions | None,
    robustness: RecoveryMode | str | None,
) -> tuple[_PhaseRunner, MappingPlan]:
    """A suffix session (runner + plan) forked from a prefix."""
    options = prefix.options if options is None else options
    if options.prefix_key() != prefix.options.prefix_key():
        raise MappingError(
            f"options {options.describe()!r} do not share the prefix "
            f"{prefix.options.describe()!r}: re-run map_prefix instead "
            "of forking"
        )
    mode = prefix.mode if robustness is None else resolve_mode(robustness)
    health = copy.deepcopy(prefix.health)
    health.mode = mode.value
    state = prefix.fork_state(options)
    plan = prefix.fork_plan(options)
    return _PhaseRunner(state, mode, health, None), plan


def map_from_prefix(
    prefix: MappingPrefix,
    options: MappingOptions | None = None,
    *,
    robustness: RecoveryMode | str | None = None,
) -> MappingResult:
    """Complete a mapping session from a shared prefix.

    Equivalent to ``map_schema(prefix.source, options)`` for any
    ``options`` sharing the prefix's
    :meth:`~repro.mapper.options.MappingOptions.prefix_key`, but
    without redoing the binary phase and plan synthesis.
    """
    with _obs_span("mapper.map_from_prefix", schema=prefix.source.name):
        runner, plan = _fork(prefix, options, robustness)
        plan = _run_option_phases(runner, plan)
        return _run_materialize(runner, prefix.source, plan)


def plan_from_prefix(
    prefix: MappingPrefix,
    options: MappingOptions | None = None,
    *,
    robustness: RecoveryMode | str | None = None,
) -> tuple[MappingPlan, HealthReport]:
    """The combined/omitted relation plans for one candidate, without
    materializing the relational schema.

    The advisor scores candidates on their plans (columns, keys,
    nullability and datatypes are all decided at plan level), which
    skips the materialization cost for every candidate that is not a
    winner; :func:`map_from_prefix` materializes the winners.
    """
    with _obs_span("mapper.plan_from_prefix", schema=prefix.source.name):
        runner, plan = _fork(prefix, options, robustness)
        plan = _run_option_phases(runner, plan)
        return plan, runner.health


def _gate(schema: BinarySchema, options: MappingOptions) -> None:
    with _obs_span("mapper.gate", schema=schema.name):
        report = analyze(schema)
        tolerated = (
            {"NOT_REFERABLE"}
            if options.null_policy is NullPolicy.ALLOWED
            else set()
        )
        blocking = [d for d in report.errors if d.code not in tolerated]
        if blocking:
            details = "; ".join(str(d) for d in blocking[:5])
            if len(blocking) > 5:
                details += f" (+{len(blocking) - 5} more)"
            raise AnalysisError(
                f"schema {schema.name!r} is not mappable: {details}"
            )
