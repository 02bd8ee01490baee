"""Structured tracing for the RIDL-A/RIDL-M pipeline.

The ROADMAP's "fast as the hardware allows" goal needs measurement
built in: this module provides nested **spans** (monotonic-clock
timings plus structured attributes) that the whole stack — analyzer,
transformation engine, guards, lint, SQL emission, option advisor —
opens around its units of work.

The design constraint is *near-zero cost when off*: tracing is
disabled by default, and every instrumentation point is a single
:class:`contextvars.ContextVar` read returning a shared no-op object.
Enabling is scoped, not global::

    tracer = Tracer("map conference")
    with tracer.activate():
        map_schema(schema)
    print(render_profile(tracer))

Concurrency model:

* **Threads** — the current-span stack lives in a ``ContextVar``, so
  each thread (and each :mod:`asyncio` task) nests its own spans;
  spans started on a thread with no enclosing span become additional
  roots of the active tracer (appended under a lock).  A spawned
  thread starts with a fresh context, so propagate the activation by
  running its target inside ``contextvars.copy_context()`` (one copy
  per thread).
* **Processes** — a worker process exports its spans with
  :meth:`Tracer.export_spans` (plain picklable dicts) and the parent
  grafts them with :meth:`Tracer.adopt`, in deterministic task order;
  :func:`repro.observability.fanout.fan_out` does this for every
  process fan-out.

Spans that wrap *cache-filling* work (the version-stamped analyzer
memos) are marked ``volatile=True``: whether they appear depends on
what earlier work warmed the cache — scheduling, not semantics — so
the deterministic export of :mod:`repro.observability.export` prunes
them.
"""

from __future__ import annotations

import os
import threading
from contextvars import ContextVar
from time import perf_counter_ns

from repro.observability.metrics import MetricsRegistry

#: The active tracer of the current context, or ``None`` (tracing
#: off).  One read of this var is the entire disabled-path cost of
#: every instrumentation point.
_ACTIVE: ContextVar["Tracer | None"] = ContextVar(
    "repro_active_tracer", default=None
)

#: The innermost open span of the current thread/task.
_CURRENT: ContextVar["Span | None"] = ContextVar(
    "repro_current_span", default=None
)


class Span:
    """One timed, attributed unit of work; also its own context
    manager (``with tracer.span(...)``).

    ``attributes`` must hold deterministic values only (names, counts,
    option labels — never clock readings, memory addresses or version
    stamps), so the deterministic export stays byte-stable across
    runs and worker counts; timings live in the dedicated
    ``start_ns``/``end_ns`` fields.
    """

    __slots__ = (
        "name",
        "attributes",
        "start_ns",
        "end_ns",
        "children",
        "thread_id",
        "pid",
        "volatile",
        "_tracer",
        "_token",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: dict | None = None,
        *,
        volatile: bool = False,
    ) -> None:
        self.name = name
        self.attributes = attributes if attributes is not None else {}
        self.start_ns = 0
        self.end_ns = 0
        self.children: list[Span] = []
        self.thread_id = 0
        self.pid = 0
        self.volatile = volatile
        self._tracer = tracer
        self._token = None

    # -- context management -------------------------------------------

    def __enter__(self) -> "Span":
        self.thread_id = threading.get_ident()
        self.pid = os.getpid()
        parent = _CURRENT.get()
        if parent is not None:
            parent.children.append(self)
        else:
            self._tracer._add_root(self)
        self._token = _CURRENT.set(self)
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_ns = perf_counter_ns()
        _CURRENT.reset(self._token)
        self._token = None
        if exc_type is not None:
            self.attributes["error"] = exc_type.__name__

    # -- recording ----------------------------------------------------

    def set(self, key: str, value) -> "Span":
        """Attach one deterministic attribute."""
        self.attributes[key] = value
        return self

    @property
    def duration_ns(self) -> int:
        return max(0, self.end_ns - self.start_ns)

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        """A picklable/JSON-able image of the span subtree."""
        payload = {
            "name": self.name,
            "attributes": dict(self.attributes),
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "thread": self.thread_id,
            "pid": self.pid,
            "children": [child.to_dict() for child in self.children],
        }
        if self.volatile:
            payload["volatile"] = True
        return payload

    @classmethod
    def from_dict(cls, payload: dict, tracer: "Tracer") -> "Span":
        span = cls(
            tracer,
            payload["name"],
            dict(payload.get("attributes", {})),
            volatile=bool(payload.get("volatile", False)),
        )
        span.start_ns = payload.get("start_ns", 0)
        span.end_ns = payload.get("end_ns", 0)
        span.thread_id = payload.get("thread", 0)
        span.pid = payload.get("pid", 0)
        span.children = [
            cls.from_dict(child, tracer)
            for child in payload.get("children", ())
        ]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_ns / 1e6:.3f} ms, "
            f"{len(self.children)} children)"
        )


class _NoOpSpan:
    """The shared do-nothing span returned while tracing is off.

    Stateless and reentrant: one instance serves every disabled
    instrumentation point in the process.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, key: str, value) -> "_NoOpSpan":
        return self


NOOP_SPAN = _NoOpSpan()


class _Activation:
    """Context manager installing a tracer as the active one.

    Also resets the current-span stack for the activation's scope: a
    newly activated tracer starts its own span forest instead of
    attaching to whatever span an *outer* tracer (or, after a fork, a
    dead copy of the parent process's tracer) had open.
    """

    __slots__ = ("_tracer", "_token", "_span_token")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self._token = None
        self._span_token = None

    def __enter__(self) -> "Tracer":
        self._token = _ACTIVE.set(self._tracer)
        self._span_token = _CURRENT.set(None)
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        _CURRENT.reset(self._span_token)
        _ACTIVE.reset(self._token)
        self._token = None
        self._span_token = None


class Tracer:
    """Collects one trace: a forest of spans plus a metrics registry.

    A tracer does nothing until :meth:`activate` installs it in the
    current context; deactivation restores whatever was active
    before, so tracers nest (the innermost wins).
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.roots: list[Span] = []
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------

    def activate(self) -> _Activation:
        """``with tracer.activate():`` — scoped enablement."""
        return _Activation(self)

    def _add_root(self, span: Span) -> None:
        with self._lock:
            self.roots.append(span)

    # -- span creation ------------------------------------------------

    def span(
        self, name: str, attributes: dict | None = None, *, volatile=False
    ) -> Span:
        return Span(self, name, attributes, volatile=volatile)

    # -- cross-process grafting ---------------------------------------

    def export_spans(self) -> list[dict]:
        """The root spans as picklable dicts (worker → parent)."""
        with self._lock:
            return [root.to_dict() for root in self.roots]

    def adopt(
        self, payloads: list[dict], *, parent: Span | None = None
    ) -> None:
        """Graft exported spans (from a worker process) into this
        trace, under ``parent`` or the current span, preserving the
        payload order — callers are responsible for feeding payloads
        in a deterministic order."""
        target = parent if parent is not None else _CURRENT.get()
        for payload in payloads:
            span = Span.from_dict(payload, self)
            if target is not None:
                target.children.append(span)
            else:
                self._add_root(span)


# ----------------------------------------------------------------------
# Module-level instrumentation points
# ----------------------------------------------------------------------


def active() -> Tracer | None:
    """The tracer of the current context, or ``None``."""
    return _ACTIVE.get()


def span(name: str, *, volatile: bool = False, **attributes):
    """Open a span on the active tracer — or do nothing.

    This is *the* instrumentation point used across the codebase::

        with span("phase:binary", schema=schema.name):
            ...

    Disabled cost: one ContextVar read and a ``None`` check.
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        return NOOP_SPAN
    return Span(tracer, name, attributes or None, volatile=volatile)


def event(name: str, **attributes) -> None:
    """Record a zero-duration point span (no nesting scope).

    Cheaper than ``with span(...): pass`` — no ContextVar write — and
    used for high-frequency marks like applied transformation steps.
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        return
    mark = Span(tracer, name, attributes or None)
    mark.thread_id = threading.get_ident()
    mark.pid = os.getpid()
    mark.start_ns = mark.end_ns = perf_counter_ns()
    parent = _CURRENT.get()
    if parent is not None:
        parent.children.append(mark)
    else:
        tracer._add_root(mark)


def annotate(**attributes) -> None:
    """Attach attributes to the innermost open span, if tracing."""
    if _ACTIVE.get() is None:
        return
    current = _CURRENT.get()
    if current is not None:
        current.attributes.update(attributes)


def count(name: str, value: int = 1) -> None:
    """Bump a counter on the active tracer's metrics — or do nothing."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.metrics.count(name, value)


def gauge(name: str, value) -> None:
    """Set a gauge on the active tracer's metrics — or do nothing."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.metrics.gauge(name, value)
