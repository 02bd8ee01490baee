"""Phase checkpoints: resume a mapping session instead of redoing it.

``map_schema`` runs five phases (binary rule firing, plan synthesis,
combines, omissions, materialization).  Without checkpoints an
exception in a late phase loses all prior work; with a
:class:`CheckpointManager` each completed phase stores a restorable
image of the :class:`~repro.mapper.state.MappingState` plus the
phase's value (the evolving plan, the materialized schema), and a
rerun of ``map_schema`` with the same manager fast-forwards through
the completed phases::

    manager = CheckpointManager()
    try:
        result = map_schema(schema, options, checkpoints=manager)
    except MappingError:
        fix_the_rule_base_or_options()
        result = map_schema(schema, options, checkpoints=manager)

A failed phase is rolled back to its entry snapshot before the error
propagates (wrapped in :class:`~repro.errors.CheckpointError`), so
the manager never stores a half-mutated phase.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import CheckpointError
from repro.observability.tracer import count as _obs_count
from repro.robustness import faults
from repro.robustness.health import HealthReport

if TYPE_CHECKING:  # avoid a circular import with repro.mapper
    from repro.mapper.state import MappingState, StateSnapshot


@dataclass(frozen=True)
class Checkpoint:
    """One completed phase: the state image and the phase's value."""

    phase: str
    snapshot: StateSnapshot
    value: Any


class CheckpointManager:
    """Stores one mapping session's completed phases, in order."""

    def __init__(self) -> None:
        self._completed: dict[str, Checkpoint] = {}
        self._order: list[str] = []
        self._session_key: tuple | None = None

    # ------------------------------------------------------------------
    # Session identity
    # ------------------------------------------------------------------

    def bind(self, schema_name: str, options: Any) -> None:
        """Tie the manager to one (schema, options) session.

        Resuming with a different schema or option set would silently
        mix sessions; refuse instead.
        """
        key = (schema_name, options)
        if self._session_key is None:
            self._session_key = key
        elif self._session_key != key:
            raise CheckpointError(
                "bind",
                f"manager holds checkpoints for session "
                f"{self._session_key[0]!r}; cannot resume "
                f"{schema_name!r} with different options or schema",
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def completed_phases(self) -> tuple[str, ...]:
        return tuple(self._order)

    def has(self, phase: str) -> bool:
        return phase in self._completed

    def clear(self) -> None:
        self._completed.clear()
        self._order.clear()
        self._session_key = None

    def invalidate_from(self, phase: str) -> None:
        """Drop a phase and everything after it (e.g. after changing
        an input that feeds that phase)."""
        if phase not in self._completed:
            return
        index = self._order.index(phase)
        for name in self._order[index:]:
            del self._completed[name]
        del self._order[index:]

    # ------------------------------------------------------------------
    # Running phases
    # ------------------------------------------------------------------

    def run(
        self,
        phase: str,
        state: MappingState,
        fn: Callable[[], Any],
        health: HealthReport | None = None,
    ) -> Any:
        """Run (or fast-forward) one phase.

        On a cache hit the state is restored to the phase's exit image
        and an independent copy of the stored value is returned.  On a
        miss the phase runs; success stores a checkpoint, failure
        rolls the state back to the phase entry and raises
        :class:`~repro.errors.CheckpointError`.
        """
        cached = self._completed.get(phase)
        if cached is not None:
            _obs_count("checkpoint.resumes")
            state.restore(cached.snapshot)
            if health is not None:
                health.resumed_phases.append(phase)
            return copy.deepcopy(cached.value)
        entry = state.snapshot()
        try:
            faults.reach(f"phase:{phase}", state=state)
            value = fn()
        except CheckpointError:
            raise
        except Exception as exc:  # restore the entry state on any failure
            state.restore(entry)
            raise CheckpointError(phase, str(exc)) from exc
        _obs_count("checkpoint.writes")
        self._completed[phase] = Checkpoint(
            phase, state.snapshot(), copy.deepcopy(value)
        )
        self._order.append(phase)
        if health is not None:
            health.completed_phases.append(phase)
        return value
