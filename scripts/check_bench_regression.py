#!/usr/bin/env python
"""Gate on a committed benchmark baseline.

Compares a freshly produced ``BENCH_*.json`` against the committed
baseline and fails (exit 1) when the guarded wall time regressed by
more than the threshold.  The wall-time key is configurable so the
same gate covers every benchmark that records one:

- ``BENCH_industrial_scale.json`` — ``guarded_map_schema_wall_s``
  (the default)
- ``BENCH_option_space.json`` — ``advisor_wall_s``

Raw wall times are not comparable across differently-powered
machines, so both runs carry a ``calibration_s`` figure (a fixed
pure-Python workload timed in the same process) and the gate compares
the *calibrated* ratio ``wall / calibration``.  A gate that cannot
compare fails (exit 1): a missing or unreadable file, or a named
wall-time key (or its block's ``calibration_s``) absent from either
run.  Commit the baseline before gating on it.

Usage:
    python scripts/check_bench_regression.py \
        --baseline BENCH_industrial_scale.json \
        --current /tmp/BENCH_industrial_scale.json \
        [--wall-key guarded_map_schema_wall_s] [--threshold 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_WALL_KEY = "guarded_map_schema_wall_s"
CALIBRATION_KEY = "calibration_s"


def _load_blocks(path: Path) -> list[dict] | None:
    """The data blocks of a benchmark record, or None when the file is
    missing or unreadable."""
    try:
        payload = json.loads(path.read_text())
        return [block.get("data", {}) for block in payload.get("blocks", ())]
    except (OSError, ValueError, AttributeError):
        return None


def _metrics(blocks: list[dict], wall_key: str) -> dict | None:
    for data in blocks:
        if wall_key in data and CALIBRATION_KEY in data:
            return data
    return None


def _gate_key(
    baseline_blocks: list[dict],
    current_blocks: list[dict],
    wall_key: str,
    threshold: float,
) -> bool:
    """Gate one wall-time key; returns False on regression, or when
    either run lacks the key or its calibration."""
    baseline = _metrics(baseline_blocks, wall_key)
    current = _metrics(current_blocks, wall_key)
    for side, metrics in (("baseline", baseline), ("current run", current)):
        if metrics is None:
            print(
                f"FAIL: the {side} has no block with both {wall_key} "
                f"and {CALIBRATION_KEY}"
            )
            return False

    baseline_score = baseline[wall_key] / baseline[CALIBRATION_KEY]
    current_score = current[wall_key] / current[CALIBRATION_KEY]
    regression = current_score / baseline_score - 1.0
    print(
        f"[{wall_key}] baseline: {baseline[wall_key]:.3f}s wall / "
        f"{baseline[CALIBRATION_KEY]:.4f}s calibration = "
        f"{baseline_score:.2f}"
    )
    print(
        f"[{wall_key}] current:  {current[wall_key]:.3f}s wall / "
        f"{current[CALIBRATION_KEY]:.4f}s calibration = "
        f"{current_score:.2f}"
    )
    print(
        f"[{wall_key}] calibrated change: {regression:+.1%} "
        f"(threshold +{threshold:.0%})"
    )
    if regression > threshold:
        print(f"FAIL: {wall_key} regressed past the threshold")
        return False
    print(f"[{wall_key}] OK")
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--current", type=Path, required=True)
    parser.add_argument(
        "--wall-key",
        dest="wall_keys",
        action="append",
        help=(
            "data key holding a wall time; repeatable to gate several "
            f"keys in one run (default {DEFAULT_WALL_KEY})"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum allowed fractional regression (default 0.25)",
    )
    args = parser.parse_args(argv)

    wall_keys = args.wall_keys or [DEFAULT_WALL_KEY]
    baseline = _load_blocks(args.baseline)
    current = _load_blocks(args.current)
    for path, blocks in ((args.baseline, baseline), (args.current, current)):
        if blocks is None:
            print(f"FAIL: no readable benchmark record at {path}")
            return 1
    ok = all(
        # Evaluate every key even after a failure so the log shows the
        # full picture, not just the first regression.
        [
            _gate_key(baseline, current, key, args.threshold)
            for key in wall_keys
        ]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
