"""Machine-speed sampling, so that times read the same on a busy host.

On a shared host the same pure-Python loop takes anywhere from 0.7x
to 1.4x its median time, in swings that last from a fraction of a
second to minutes.  A :class:`SpeedSampler` measures that drift while
the benchmark runs: every ``PERIOD_S`` a ``SIGALRM`` handler runs
:func:`calibrate`, a fixed ~4 ms loop, and records when it ran and how
long it took.  :meth:`SpeedSampler.scaled` reports an interval at
reference speed: its wall time minus the samples taken inside it,
times ``REFERENCE_S`` over their median.

Interval timers are not inherited across ``fork``, so a forked child
that wants scaled times starts its own sampler.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

PERIOD_S = 0.1
#: What :func:`calibrate` takes on the reference machine.
REFERENCE_S = 0.003
#: Intervals holding fewer samples borrow the latest ones before them.
MIN_SAMPLES = 3


class _Probe:
    __slots__ = ("key", "payload")

    def __init__(self, key: int, payload) -> None:
        self.key = key
        self.payload = payload


def calibrate() -> float:
    """CPU seconds a fixed pure-Python loop takes right now.

    It mixes string-keyed dict updates with object allocation, sorting
    and indexing, like the program's own work, and keeps nothing alive.
    CPU time, not wall time: a sample that waits for a core (say, behind
    the advisor's worker processes) still reads the core's speed.
    """
    started = thread_time()
    counts: dict[str, int] = {}
    for i in range(4_000):
        key = str(i % 509)
        counts[key] = counts.get(key, 0) + i
    sorted(counts.items())
    probes = [_Probe(i, {"k": i}) for i in range(2_000)]
    probes.sort(key=lambda probe: -probe.key)
    {probe.key: probe for probe in probes}
    return thread_time() - started


class SpeedSampler:
    """Calibration samples taken every ``PERIOD_S`` while started."""

    def __init__(self) -> None:
        #: (start time, wall seconds, CPU seconds) per sample, in order.
        self.samples: list[tuple[float, float, float]] = []

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        cpu = calibrate()
        self.samples.append((started, perf_counter() - started, cpu))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, started: float, ended: float) -> tuple[float, float]:
        """``(seconds at reference speed, scale)`` for an interval."""
        inside = [s for s in self.samples if started <= s[0] < ended]
        basis = [cpu for _, _, cpu in inside]
        if len(basis) < MIN_SAMPLES:
            before = [cpu for at, _, cpu in self.samples if at < ended]
            basis = before[-MIN_SAMPLES:] or [calibrate()]
        scale = REFERENCE_S / statistics.median(basis)
        pure = ended - started - sum(wall for _, wall, _ in inside)
        return pure * scale, scale
