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

The pipeline has two natural seams.  The binary phase reads only the
scope and the effective sublink policies (:func:`binary_key`); the
plan synthesis adds the null policy and the lexical preferences (the
*prefix* fields, :meth:`~repro.mapper.options.MappingOptions.\
prefix_key`); combines, omissions and materialization act on the
finished plan.  :func:`map_binary` runs the session up to the first
seam and returns a reusable :class:`BinaryPrefix`;
:func:`prefix_from_binary` runs the plan synthesis on a fork of it
and returns a reusable :class:`MappingPrefix`, and :func:`map_prefix`
is exactly those two halves behind the analyzer gate.
:func:`map_from_prefix` and :func:`plan_from_prefix` fork any number
of combine/omit/materialize suffixes from a prefix.  ``map_schema``
runs the same phases in one session, and the option advisor
(:mod:`repro.mapper.advisor`) uses both seams to run each distinct
binary phase and each distinct plan synthesis exactly once while
exploring a whole option lattice.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.analyzer.api import analyze
from repro.analyzer.referability import resolution_scope
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


def _run_binary(runner: _PhaseRunner, extra_rules: tuple[Rule, ...]) -> None:
    """The guarded binary rule-firing phase."""
    executor = GuardedExecutor(runner.mode, runner.health)
    engine = TransformationEngine()
    for rule in extra_rules:
        engine.add_rule(rule)

    def binary_phase():
        engine.run(runner.state, executor=executor)
        return None

    runner.run("binary", binary_phase)


def _run_plan(runner: _PhaseRunner) -> MappingPlan:
    """The plan synthesis."""
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
    ), resolution_scope():
        if analyze_first:
            _gate(schema, options)
        if checkpoints is not None:
            checkpoints.bind(schema.name, options)
        health = HealthReport(mode=mode.value)
        state = MappingState(
            schema=schema.copy(), options=options, original=schema
        )
        runner = _PhaseRunner(state, mode, health, checkpoints)
        _run_binary(runner, extra_rules)
        plan = _run_option_phases(runner, _run_plan(runner))
        return _run_materialize(runner, schema, plan)


def _fork_state(
    source: BinarySchema, snapshot: StateSnapshot, options: MappingOptions
) -> MappingState:
    """A fresh working state at a seam, under new options."""
    state = MappingState(schema=source.copy(), options=options, original=source)
    state.restore(snapshot)
    return state


def binary_key(
    schema: BinarySchema,
    options: MappingOptions,
    extra_rules: tuple[Rule, ...] = (),
) -> tuple:
    """The identity of the binary phase of mapping ``schema``.

    The default rule base reads only the scope (``restrict_scope``)
    and the effective policy of each sublink type
    (``apply_sublink_policies``), so option sets with equal keys reach
    equal post-binary states and may share one :class:`BinaryPrefix`.
    Expert rules may read any option: with ``extra_rules`` the key is
    the whole :meth:`~repro.mapper.options.MappingOptions.prefix_key`.
    """
    if extra_rules:
        return options.prefix_key()
    return (
        options.canonical().scope,
        tuple(options.policy_for(sublink.name) for sublink in schema.sublinks),
    )


@dataclass(frozen=True)
class BinaryPrefix:
    """The shared binary phase of a family of mapping sessions.

    Captures the session right after the binary-to-binary phase: the
    post-binary state image plus the health report so far.  Every
    option set whose :func:`binary_key` agrees with ``options`` can run
    its plan synthesis on a fork of it through
    :func:`prefix_from_binary` instead of redoing the binary phase.
    """

    source: BinarySchema
    options: MappingOptions  #: the options the binary phase ran under
    extra_rules: tuple[Rule, ...]
    snapshot: StateSnapshot
    health: HealthReport
    mode: RecoveryMode


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
        return _fork_state(self.source, self.snapshot, options)

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

    Exactly :func:`map_binary` then :func:`prefix_from_binary`, behind
    the analyzer gate.  Combine/omit fields of ``options`` are ignored
    (stripped via
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
        binary = map_binary(
            schema,
            options,
            extra_rules=extra_rules,
            robustness=mode,
            checkpoints=checkpoints,
        )
        return prefix_from_binary(binary, options, checkpoints=checkpoints)


def map_binary(
    schema: BinarySchema,
    options: MappingOptions,
    *,
    extra_rules: tuple[Rule, ...] = (),
    robustness: RecoveryMode | str | None = None,
    checkpoints: CheckpointManager | None = None,
) -> BinaryPrefix:
    """The binary half of :func:`map_prefix`: the guarded binary phase.

    Runs no analyzer gate and binds no ``checkpoints`` manager; the
    caller gates ``schema`` first, as :func:`map_prefix` does.
    """
    mode = resolve_mode(robustness)
    health = HealthReport(mode=mode.value)
    state = MappingState(schema=schema.copy(), options=options, original=schema)
    _run_binary(_PhaseRunner(state, mode, health, checkpoints), extra_rules)
    return BinaryPrefix(
        source=schema,
        options=options,
        extra_rules=extra_rules,
        snapshot=state.snapshot(),
        health=health,
        mode=mode,
    )


def prefix_from_binary(
    binary: BinaryPrefix,
    options: MappingOptions,
    *,
    checkpoints: CheckpointManager | None = None,
) -> MappingPrefix:
    """The plan half of :func:`map_prefix`: the plan synthesis on a
    fork of ``binary`` under ``options``, with a copy of its health.

    ``options`` must share the :func:`binary_key` of ``binary.options``;
    combine/omit fields are stripped as in :func:`map_prefix`.
    ``binary`` is not consumed, so it serves any number of plan halves.
    """
    options = options.prefix_options()
    rules = binary.extra_rules
    if binary_key(binary.source, options, rules) != binary_key(
        binary.source, binary.options, rules
    ):
        raise MappingError(
            f"options {options.describe()!r} do not share the binary "
            f"phase of {binary.options.describe()!r}: re-run map_binary "
            "instead of forking"
        )
    health = copy.deepcopy(binary.health)
    state = _fork_state(binary.source, binary.snapshot, options)
    plan = _run_plan(_PhaseRunner(state, binary.mode, health, checkpoints))
    return MappingPrefix(
        source=binary.source,
        options=options,
        snapshot=state.snapshot(),
        plan=plan.snapshot(),
        health=health,
        mode=binary.mode,
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
