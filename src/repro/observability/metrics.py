"""Counters and gauges for one trace.

The pipeline's health is more than wall time: cache hit rates, index
rebuilds, schema version churn, quarantined rules and checkpoint
writes all explain *why* a run was fast or slow.  A
:class:`MetricsRegistry` lives on every
:class:`~repro.observability.tracer.Tracer` and is fed through the
module-level :func:`~repro.observability.tracer.count` /
:func:`~repro.observability.tracer.gauge` helpers (no-ops while
tracing is off).

Counter names used across the stack (grep for ``obs.count``):

======================================  ================================
``analysis.cache.hit`` / ``.miss``      version-stamped analyzer memos
``schema.version_bumps``                :meth:`BinarySchema._bump` calls
``schema.index_rebuilds``               :func:`~repro.brm.indexes.indexes_for`
``guard.validations``                   per-step invariant checks
``rules.fired`` / ``rules.quarantined`` transformation engine
``checkpoint.writes`` / ``.resumes``    phase checkpoint manager
``steps.recorded``                      applied transformation steps
``lint.diagnostics``                    lint findings before suppression
``sql.statements``                      emitted CREATE TABLE blocks
``advisor.binary_groups``               option-lattice binary phases (pool tasks)
``advisor.groups`` / ``.candidates``    option-lattice fan-out
======================================  ================================

Metrics are process-local; worker processes ship a :meth:`snapshot`
back to the parent, which :meth:`merge`\\ s it additively.  Counter
values that depend on cross-group cache warmth (the ``analysis.cache``
pair) are **not** deterministic across worker counts, which is why the
deterministic span-tree export omits the metrics section entirely.
"""

from __future__ import annotations

import threading


class MetricsRegistry:
    """Thread-safe counters and gauges for one tracer."""

    __slots__ = ("_lock", "_counters", "_gauges")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}

    # -- recording ----------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to the named counter (creating it at 0)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value) -> None:
        """Set the named gauge to its latest observed value."""
        with self._lock:
            self._gauges[name] = value

    # -- reading ------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """A picklable/JSON-able image: sorted, independent dicts."""
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
            }

    # -- cross-process merge ------------------------------------------

    def merge(self, payload: dict) -> None:
        """Fold a worker's :meth:`snapshot` into this registry:
        counters add, gauges keep the incoming value."""
        with self._lock:
            for name, value in payload.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(payload.get("gauges", {}))
