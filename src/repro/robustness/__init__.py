"""Fault tolerance for RIDL-M mapping sessions.

The paper's transformations are provably lossless; user-supplied
expert rules are not.  This subsystem makes a mapping session survive
them: per-step invariant guards with snapshot/rollback and rule
quarantine (:mod:`~repro.robustness.guards`), phase checkpoints with
resume (:mod:`~repro.robustness.checkpoint`), deterministic fault
injection for chaos tests (:mod:`~repro.robustness.faults`), and the
session health report (:mod:`~repro.robustness.health`).  See
``docs/ROBUSTNESS.md``.
"""

from repro.robustness.checkpoint import Checkpoint, CheckpointManager
from repro.robustness.faults import (
    Fault,
    FaultInjectedError,
    FaultInjector,
    INJECTOR,
    inject,
)
from repro.robustness.guards import (
    GuardedExecutor,
    RecoveryMode,
    check_state_invariants,
    resolve_mode,
)
from repro.robustness.health import (
    HealthReport,
    QuarantinedRule,
    RolledBackStep,
)
from repro.robustness.violations import (
    MUTATOR_KINDS,
    MUTATORS,
    Delta,
    Injection,
    plan_injections,
)

__all__ = [
    "Checkpoint",
    "CheckpointManager",
    "Delta",
    "Fault",
    "FaultInjectedError",
    "FaultInjector",
    "GuardedExecutor",
    "HealthReport",
    "INJECTOR",
    "Injection",
    "MUTATORS",
    "MUTATOR_KINDS",
    "plan_injections",
    "QuarantinedRule",
    "RecoveryMode",
    "RolledBackStep",
    "check_state_invariants",
    "inject",
    "resolve_mode",
]
