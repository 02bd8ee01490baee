"""Per-step invariant guards for the transformation engine.

The paper's claim is that RIDL-M composes *provably lossless* basic
transformations — but expert rules are user code and prove nothing.
The :class:`GuardedExecutor` makes the claim operational at runtime:
every rule firing is snapshotted, the resulting state is re-validated
(schema well-formedness via RIDL-A's correctness function, structural
invariants of the state, and a population round-trip spot-check of
the registered state maps), and a firing that raises or fails
validation is rolled back and its rule quarantined.

In ``strict`` mode a quarantine aborts the session with
:class:`~repro.errors.QuarantinedRuleError`; in ``best-effort`` mode
the session continues without the rule and the
:class:`~repro.robustness.health.HealthReport` records what happened.
"""

from __future__ import annotations

from enum import Enum
from time import perf_counter
from typing import TYPE_CHECKING

from repro.analyzer.correctness import check_correctness
from repro.analyzer.diagnostics import Severity
from repro.brm.population import Population
from repro.errors import QuarantinedRuleError
from repro.observability.tracer import count as _obs_count
from repro.observability.tracer import span as _obs_span
from repro.robustness import faults
from repro.robustness.health import HealthReport

if TYPE_CHECKING:  # avoid a circular import with repro.mapper
    from repro.mapper.state import MappingState, StateSnapshot


class RecoveryMode(Enum):
    """How a mapping session reacts to a failed step."""

    #: Roll back, then abort the session with the failure.
    STRICT = "strict"
    #: Roll back, quarantine the offender, keep going, report.
    BEST_EFFORT = "best-effort"


def resolve_mode(mode: "RecoveryMode | str | None") -> RecoveryMode:
    """Accept the enum, its value string, or None (strict)."""
    if mode is None:
        return RecoveryMode.STRICT
    if isinstance(mode, RecoveryMode):
        return mode
    for candidate in RecoveryMode:
        if mode in (candidate.value, candidate.name):
            return candidate
    raise ValueError(
        f"unknown recovery mode {mode!r}; expected one of "
        f"{[c.value for c in RecoveryMode]}"
    )


# ----------------------------------------------------------------------
# State invariants
# ----------------------------------------------------------------------


def check_state_invariants(
    state: MappingState, *, before: StateSnapshot | None = None
) -> list[str]:
    """Everything that must hold of a :class:`MappingState` between
    steps.  Returns human-readable violation strings (empty = healthy).

    ``before`` is the pre-step snapshot; when given, the checks only
    re-examine what the step touched — the schema checks are skipped
    when the step left the schema's elements alone (the pre-step state
    already passed them) and the population round-trip spot-check only
    runs if the step registered new state maps.  This keeps the
    always-on guard cheap.
    """
    violations: list[str] = []
    if len(state.forward_maps) != len(state.backward_maps):
        violations.append(
            "population-map symmetry broken: "
            f"{len(state.forward_maps)} forward vs "
            f"{len(state.backward_maps)} backward maps"
        )
    # O(1) change detection: the snapshot's schema copy shares the
    # version stamp, so a stamp mismatch means some mutator ran.  A
    # matching stamp with diverging element counts means the step
    # bypassed the mutator API (corruption) — the schema changed *and*
    # the version-keyed analysis memos cannot be trusted for it.
    if before is None:
        schema_changed, stamp_stale = True, False
    else:
        stamp_stale = (
            state.schema.version == before.schema.version
            and state.schema.element_counts()
            != before.schema.element_counts()
        )
        schema_changed = (
            state.schema.version != before.schema.version or stamp_stale
        )
    if schema_changed:
        correctness = (
            check_correctness.uncached if stamp_stale else check_correctness
        )
        try:
            violations.extend(_structural_violations(state.schema))
            errors = [
                d
                for d in correctness(state.schema)
                if d.severity is Severity.ERROR
            ]
        except Exception as exc:  # a corrupted schema may not analyze
            violations.append(f"schema no longer analyzable: {exc!r}")
        else:
            violations.extend(
                f"schema correctness violated: {d}" for d in errors
            )
    maps_changed = before is None or len(state.forward_maps) != len(
        before.forward_maps
    )
    if maps_changed and not violations:
        violations.extend(_roundtrip_spot_check(state))
    return violations


def _structural_violations(schema) -> list[str]:
    """Referential integrity of the schema's own element graph: facts
    relate existing object types, constraints range over existing
    roles, sublinks connect existing types.  RIDL-G enforces this at
    construction time; a corrupting rule can break it afterwards."""
    from repro.brm.constraints import items_of
    from repro.brm.facts import RoleId

    violations: list[str] = []
    known_types = {t.name for t in schema.object_types}
    known_facts = {}
    for fact in schema.fact_types:
        known_facts[fact.name] = {fact.first.name, fact.second.name}
        for role in (fact.first, fact.second):
            if role.player not in known_types:
                violations.append(
                    f"fact type {fact.name!r} role {role.name!r} is "
                    f"played by unknown object type {role.player!r}"
                )
    for sublink in schema.sublinks:
        for endpoint in (sublink.subtype, sublink.supertype):
            if endpoint not in known_types:
                violations.append(
                    f"sublink {sublink.name!r} references unknown "
                    f"object type {endpoint!r}"
                )
    known_sublinks = {s.name for s in schema.sublinks}
    for constraint in schema.constraints:
        for item in items_of(constraint):
            if isinstance(item, RoleId):
                roles = known_facts.get(item.fact)
                if roles is None or item.role not in roles:
                    violations.append(
                        f"constraint {constraint.name!r} ranges over "
                        f"unknown role {item.fact}.{item.role}"
                    )
            elif item.sublink not in known_sublinks:
                violations.append(
                    f"constraint {constraint.name!r} ranges over "
                    f"unknown sublink {item.sublink!r}"
                )
    return violations


def _roundtrip_spot_check(state: MappingState) -> list[str]:
    """Losslessness smoke test: the empty population of the original
    schema must survive the forward/backward composition unchanged."""
    try:
        empty = Population(state.original)
        reconstructed = state.from_canonical(state.to_canonical(empty))
        if reconstructed != empty:
            return [
                "population round-trip spot-check failed: empty "
                "population not reconstructed by the backward maps"
            ]
    except Exception as exc:  # a broken map may raise anything; report it
        return [f"population round-trip spot-check raised: {exc!r}"]
    return []


# ----------------------------------------------------------------------
# The guarded step executor
# ----------------------------------------------------------------------


class GuardedExecutor:
    """Snapshot → fire → validate → (commit | rollback + quarantine).

    One executor guards one mapping session; the
    :class:`~repro.mapper.rulebase.TransformationEngine` consults
    :meth:`is_quarantined` before firing and calls :meth:`execute` for
    each firing.  ``rollback_budget`` bounds how many recoveries a
    session may attempt before it degrades to "stop firing rules"
    (best-effort) or aborts (strict).
    """

    def __init__(
        self,
        mode: RecoveryMode = RecoveryMode.STRICT,
        health: HealthReport | None = None,
        *,
        rollback_budget: int = 25,
    ) -> None:
        self.mode = mode
        self.health = health if health is not None else HealthReport(
            mode=mode.value
        )
        self.rollback_budget = rollback_budget
        self.rollbacks = 0
        self.quarantined: set[str] = set()
        self.exhausted_reason: str | None = None

    # -- budget --------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self.exhausted_reason is not None

    def exhaust(self, reason: str) -> None:
        """Give up on further guarded recovery (budget spent)."""
        if self.exhausted_reason is None:
            self.exhausted_reason = reason
            self.health.degrade(f"guard budget exhausted: {reason}")

    # -- quarantine ----------------------------------------------------

    def is_quarantined(self, rule_name: str) -> bool:
        return rule_name in self.quarantined

    def _fail(self, rule_name: str, reason: str, cause=None) -> bool:
        was_exhausted = self.exhausted
        _obs_count("rules.quarantined")
        self.quarantined.add(rule_name)
        self.health.rollback(f"rule:{rule_name}", reason)
        self.health.quarantine(rule_name, reason)
        self.rollbacks += 1
        if self.rollbacks >= self.rollback_budget:
            self.exhaust(
                f"{self.rollbacks} rollbacks reached the budget of "
                f"{self.rollback_budget}"
            )
        # Best-effort absorbs failures only while recovery budget
        # remains; once exhausted, further failures are fatal (healthy
        # rules keep firing either way).
        if self.mode is RecoveryMode.STRICT or was_exhausted:
            raise QuarantinedRuleError(rule_name, reason) from cause
        return False

    # -- the guarded step ----------------------------------------------

    def execute(self, rule, state: MappingState) -> bool:
        """Fire one rule under guard; True iff the firing was kept."""
        snapshot = state.snapshot()
        started = perf_counter()
        try:
            faults.reach(f"rule:{rule.name}", state=state, executor=self)
            rule.fire(state)
        except Exception as exc:  # any failing rule is rolled back, not fatal
            state.restore(snapshot)
            return self._fail(
                rule.name, f"action raised {exc!r}", cause=exc
            )
        _obs_count("guard.validations")
        with _obs_span("guard.validate", rule=rule.name):
            violations = check_state_invariants(state, before=snapshot)
        self.health.time_guard(
            f"rule:{rule.name}", perf_counter() - started
        )
        if violations:
            state.restore(snapshot)
            return self._fail(rule.name, "; ".join(violations))
        return True
