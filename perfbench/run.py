"""Run one benchmark workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload map-industrial --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from
``src/``.  Setup draws the workload's inputs from ``--seed``, then one
warm-up op runs; closed-loop ops with one client follow for
``--seconds``.  Every op's verdict is checked, and its output digest is
compared with the digest the same input produced on its first pass.
Times are reported at reference machine speed (see ``speed.py``).

``--trace 0`` prints the end-to-end metrics, measured in-process with
tracing off.  ``--trace 1`` prints the per-layer metrics instead: it
alternates a plain op with a traced op (each layer's public functions
called one by one and timed from outside, with a ``repro`` tracer
active to read the program's own counters), each in a fresh fork, so
every layer's rise in peak RSS is measured from the same start.
``--workload all`` runs every workload, each in its own process.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from catalogue import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    TIMED_LAYERS,
    WORKLOADS,
    manifest_problems,
)
from speed import SpeedSampler  # noqa: E402

#: Input-generation passes per run; setup_s counts their median.
SETUP_REPEATS = 3


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    if best is None:
        return f"no percentile has ten samples beyond it (n={n})"
    value = ordered[max(0, math.ceil(best / 100 * n) - 1)]
    return f"p{best:g} {value:.4f} s (n={n})"


class Session:
    """One run of one workload: its inputs, op checks and timing."""

    def __init__(self, workload, seed: int, sampler: SpeedSampler) -> None:
        from repro.analyzer.cache import clear_all_caches

        self.workload = workload
        self.sampler = sampler
        self.clear_caches = clear_all_caches
        passes = []
        for _ in range(SETUP_REPEATS):
            started = perf_counter()
            self.inputs = workload.inputs(seed)
            passes.append(sampler.scaled(started, perf_counter())[0])
        self.setup_generate_s = statistics.median(passes)
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.served = 0

    def reset(self) -> None:
        """Cold analyzer caches and a collected heap, so every op
        starts from the same state."""
        self.clear_caches()
        gc.collect()

    def next_input(self):
        index = self.served % len(self.inputs)
        self.served += 1
        self.reset()
        return index, self.inputs[index]

    def check(self, index: int, outcome: dict) -> None:
        """Count the op; fail it on an error, a bad verdict, or a digest
        that differs from its input's first pass."""
        self.attempted += 1
        if "error" in outcome:
            print(outcome["error"], file=sys.stderr)
            self.failed += 1
            return
        first = self.digests.setdefault(index, outcome["digest"])
        if not outcome["ok"] or outcome["digest"] != first:
            print(f"op on input {index} failed its check: ok={outcome['ok']}, "
                  f"digest matches first pass={outcome['digest'] == first}",
                  file=sys.stderr)
            self.failed += 1

    def plain(self, inp) -> dict:
        started = perf_counter()
        try:
            outcome = self.workload.run(inp)
            result = {"ok": outcome.ok, "digest": outcome.digest,
                      "rows": outcome.rows}
        except Exception:
            result = {"error": traceback.format_exc()}
        ended = perf_counter()
        result["seconds"], result["scale"] = self.sampler.scaled(started, ended)
        result["wall"] = ended - started
        return result

    def traced(self, inp) -> dict:
        from repro.observability import Tracer
        from workloads import Recorder

        recorder = Recorder()
        tracer = Tracer("perfbench")
        started = perf_counter()
        with tracer.activate():
            outcome = self.workload.traced(inp, recorder)
        ended = perf_counter()
        seconds, scale = self.sampler.scaled(started, ended)
        counters = tracer.metrics.snapshot()["counters"]
        hits = counters.get("analysis.cache.hit", 0)
        lookups = hits + counters.get("analysis.cache.miss", 0)
        values = dict(recorder.counts)
        values["analyzer.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        values["mapper.rules_fired"] = counters.get("rules.fired", 0)
        values["robustness.guard_validations"] = counters.get(
            "guard.validations", 0
        )
        for layer, _ in TIMED_LAYERS:
            values[f"{layer}_s"] = recorder.seconds.get(layer, 0.0) * scale
            values[f"{layer}.rss_growth_mb"] = recorder.rss_growth_mb.get(
                layer, 0.0
            )
        # Layer times include the speed samples taken inside them, so
        # the remainder is taken on unsubtracted wall time.
        outside = ended - started - sum(recorder.seconds.values())
        values["unattributed_s"] = outside * scale
        values["unattributed_share"] = outside / (ended - started)
        return {"seconds": seconds, "scale": scale, "ok": outcome.ok,
                "digest": outcome.digest, "rows": outcome.rows,
                "values": values}

    def forked(self, fn) -> dict:
        """Run ``fn()`` in a forked child and return its JSON-able result.

        Forking starts the child's peak RSS at the parent's current
        RSS, so a layer's rise in peak RSS is measured afresh for every
        op.  The process must be single-threaded when it forks.
        """
        if threading.active_count() != 1:
            raise RuntimeError("refusing to fork a multi-threaded process")
        self.sampler.stop()
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            os.close(read_fd)
            try:
                self.sampler.start()
                payload = fn()
                self.sampler.stop()
            except BaseException:
                payload = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(payload, pipe)
            os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd) as pipe:
            data = pipe.read()
        os.waitpid(pid, 0)
        self.sampler.start()
        return json.loads(data)


def measure(args, workload, sampler: SpeedSampler, imported: float) -> dict:
    session = Session(workload, args.seed, sampler)
    index, inp = session.next_input()
    warm = session.plain(inp)
    session.check(index, warm)
    setup_s = (
        sampler.scaled(STARTED, imported)[0]
        + session.setup_generate_s
        + warm["seconds"]
    )
    print(f"{workload.name}: seed {args.seed}, {len(session.inputs)} inputs, "
          f"setup {setup_s:.3f} s (warm-up op {warm['seconds']:.3f} s)")

    plain, traced = [], []
    loop_started = perf_counter()
    while perf_counter() - loop_started < args.seconds:
        index, inp = session.next_input()
        if not args.trace:
            plain.append(session.plain(inp))
            session.check(index, plain[-1])
            continue
        plain.append(session.forked(lambda: session.plain(inp)))
        session.check(index, plain[-1])
        session.reset()
        traced.append(session.forked(lambda: session.traced(inp)))
        session.check(index, traced[-1])
    sampler.stop()

    timed = [o for o in plain if "seconds" in o]
    times = [o["seconds"] for o in timed]
    total = sum(times)
    p50 = statistics.median(times)
    print(f"  {len(times)} plain ops: p50 {p50:.4f} s at reference speed "
          f"({statistics.median(o['wall'] for o in timed):.4f} s wall), "
          f"{tail_percentile(times)}; error_rate "
          f"{session.failed / session.attempted:g} "
          f"({session.failed}/{session.attempted})")
    if not args.trace:
        units = {m.name: m.unit for m in END_TO_END}
        metrics = {
            "setup_s": setup_s,
            "op_s.p50": p50,
            "ops_per_s": len(times) / total,
            "rows_per_s": sum(o.get("rows", 0) for o in timed) / total,
            "peak_rss_mb": max(_rss_mb(resource.RUSAGE_SELF),
                               _rss_mb(resource.RUSAGE_CHILDREN)),
        }
    else:
        units = {m.name: m.unit for m in PER_LAYER}
        good = [o for o in traced if "values" in o]
        metrics = {
            name: statistics.median(o["values"].get(name, 0.0) for o in good)
            if good else 0.0
            for name in units
        }
        if good:
            metrics["trace_overhead"] = statistics.median(
                o["seconds"] for o in good
            ) / p50 - 1
    for name, value in metrics.items():
        print(f"  {name:40} {value:14.6f} {units[name]}")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def run_all(args) -> dict:
    """Every workload, each in its own process, so that setup_s and
    peak_rss_mb are per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("perfbench: run from a checkout root holding src/repro",
              file=sys.stderr)
        return 2
    try:
        manifest = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    problems = manifest_problems(manifest)
    if problems:
        print("perfbench: BENCHMARK.json disagrees with catalogue.py: "
              + "; ".join(problems), file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args)
    else:
        sampler = SpeedSampler()
        sampler.start()
        sys.path.insert(0, str(root / "src"))
        from workloads import IMPLEMENTATIONS

        result = measure(
            args, IMPLEMENTATIONS[args.workload](), sampler, perf_counter()
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
