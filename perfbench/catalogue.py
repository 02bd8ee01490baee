"""The benchmark's metric catalogue: every metric it prints, by name.

``END_TO_END`` are what a user of the tool sees, measured with tracing
off.  ``PER_LAYER`` come from the separate traced run, which calls
each layer's public functions one by one and times each call from
outside.  Every per-layer entry records the end-to-end metric, on the
workload named, that it should move: a change that speeds up a layer
must show up there, and nowhere else by more than that metric's bound.

``run.py`` refuses to run when ``BENCHMARK.json`` at the checkout root
disagrees with this catalogue, so the two cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

MAP = "map-industrial"
REVERSE = "reverse-industrial"
ADVISE = "advise-industrial"
VALIDATE = "validate-cris"

#: Workload name -> why it was chosen (one line each).
WORKLOADS = {
    MAP: "schema-side forward layers on fresh 130-table designs: "
    "analyzer, mapper rules and guards, SQL emitter, lint; no data work",
    REVERSE: "the mapper and SQL layers run inverted: emit, parse, lift "
    "and remap to a fixpoint, plus the implication-closure comparison",
    ADVISE: "the only load on the option space, prefix reuse and cost "
    "scoring; advises serially, mapping each 45-table design 36 times",
    VALIDATE: "nearly all load on the data layers: generate, forward, "
    "load, check, read back, backward, diff, injections, matrix",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: End-to-end metrics: the share of the parent's median by which
    #: the metric may worsen before a change counts as a regression.
    bound: float | None = None
    #: Per-layer metrics: the end-to-end metric and workload it moves.
    moves: str = ""


END_TO_END = (
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("op_s.p50", "s", "lower", bound=0.25),
    Metric("ops_per_s", "1/s", "higher", bound=0.25),
    Metric("rows_per_s", "rows/s", "higher", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.15),
)

#: Timed layers: (layer, the end-to-end metric and workload it moves).
#: Each yields ``<layer>_s`` (seconds in the layer's public calls per
#: op) and ``<layer>.rss_growth_mb`` (rise of peak RSS across them).
TIMED_LAYERS = (
    ("analyzer.analyze", f"op_s.p50 on {MAP}"),
    ("analyzer.implication", f"op_s.p50 on {REVERSE}"),
    ("mapper.map", f"op_s.p50 on {MAP} and {REVERSE}"),
    ("mapper.lift", f"op_s.p50 on {REVERSE}"),
    ("mapper.optionspace", f"op_s.p50 on {ADVISE}"),
    ("mapper.advise", f"op_s.p50 on {ADVISE}"),
    ("mapper.canonicalize", f"rows_per_s on {VALIDATE}"),
    ("mapper.forward", f"rows_per_s on {VALIDATE}"),
    ("mapper.backward", f"rows_per_s on {VALIDATE}"),
    ("sql.emit", f"op_s.p50 on {MAP}"),
    ("sql.parse", f"op_s.p50 on {REVERSE}"),
    ("lint.lint", f"op_s.p50 on {MAP}"),
    ("robustness.plan_injections", f"rows_per_s on {VALIDATE}"),
    ("workloads.generate", f"rows_per_s and peak_rss_mb on {VALIDATE}"),
    ("brm.state_diff", f"rows_per_s and peak_rss_mb on {VALIDATE}"),
    ("executor.compile", f"rows_per_s on {VALIDATE}"),
    ("executor.load", f"rows_per_s and peak_rss_mb on {VALIDATE}"),
    ("executor.check", f"rows_per_s and peak_rss_mb on {VALIDATE}"),
    ("executor.fetch", f"rows_per_s and peak_rss_mb on {VALIDATE}"),
    ("executor.matrix", f"rows_per_s and peak_rss_mb on {VALIDATE}"),
)

_COUNTS = (
    Metric("analyzer.cache_hit_ratio", "ratio", "higher",
           moves=f"op_s.p50 on {ADVISE} (about 0 on {MAP})"),
    Metric("mapper.tables", "count", "lower",
           moves=f"rows_per_s on {MAP}, {REVERSE} and {ADVISE}"),
    Metric("mapper.constraints", "count", "lower",
           moves=f"op_s.p50 on {MAP}"),
    Metric("mapper.rules_fired", "count", "lower",
           moves=f"op_s.p50 on {MAP}"),
    Metric("mapper.advise_candidates", "count", "higher",
           moves=f"rows_per_s on {ADVISE}"),
    Metric("mapper.advise_groups", "count", "lower",
           moves=f"op_s.p50 on {ADVISE}"),
    Metric("mapper.advise_failed", "count", "lower",
           moves=f"op_s.p50 on {ADVISE}"),
    Metric("sql.ddl_bytes", "bytes", "lower", moves=f"op_s.p50 on {MAP}"),
    Metric("lint.findings", "count", "lower", moves=f"op_s.p50 on {MAP}"),
    Metric("robustness.injections", "count", "higher",
           moves=f"rows_per_s on {VALIDATE}"),
    Metric("robustness.skipped_kinds", "count", "lower",
           moves=f"rows_per_s on {VALIDATE}"),
    Metric("robustness.guard_validations", "count", "lower",
           moves=f"op_s.p50 on {MAP}"),
    Metric("executor.rows_loaded", "count", "higher",
           moves=f"rows_per_s and peak_rss_mb on {VALIDATE}"),
    Metric("executor.rules", "count", "lower",
           moves=f"rows_per_s on {VALIDATE}"),
    Metric("executor.violations_on_valid", "count", "lower",
           moves=f"rows_per_s on {VALIDATE}"),
    Metric("unattributed_s", "s", "lower",
           moves="op_s.p50 on every workload (time outside named layers)"),
    Metric("unattributed_share", "ratio", "lower",
           moves="op_s.p50 on every workload (ROADMAP gate: at most 0.05)"),
    Metric("trace_overhead", "ratio", "lower",
           moves="none: traced op_s.p50 over untraced op_s.p50, minus 1"),
)

PER_LAYER = (
    tuple(
        Metric(f"{layer}_s", "s", "lower", moves=moves)
        for layer, moves in TIMED_LAYERS
    )
    + tuple(
        Metric(f"{layer}.rss_growth_mb", "MB", "lower",
               moves="peak_rss_mb on " + moves.split(" on ")[-1])
        for layer, moves in TIMED_LAYERS
    )
    + _COUNTS
)


def manifest_problems(manifest: dict) -> list[str]:
    """Where a parsed ``BENCHMARK.json`` disagrees with this catalogue."""
    problems = []
    names = [w.get("name") for w in manifest.get("workloads", ())]
    if names != list(WORKLOADS):
        problems.append(f"workloads {names} != {list(WORKLOADS)}")
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        want = [
            {"name": m.name, "unit": m.unit, "better": m.better}
            | ({} if m.bound is None else {"bound": m.bound})
            for m in metrics
        ]
        if manifest.get(key) != want:
            problems.append(f"{key} differs from perfbench/catalogue.py")
    return problems
