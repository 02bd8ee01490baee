"""The calibrated benchmark regression gate (scripts/check_bench_regression.py).

A gate that cannot compare must fail: a missing baseline, or a gated
key absent from either run, exits 1 instead of passing silently.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (
    Path(__file__).resolve().parents[2] / "scripts" / "check_bench_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def record(path, **data):
    path.write_text(json.dumps({"name": "x", "blocks": [{"data": data}]}))
    return path


def run(gate, baseline, current, key="wall_s"):
    return gate(
        ["--baseline", str(baseline), "--current", str(current),
         "--wall-key", key]
    )


def test_within_threshold_passes(gate, tmp_path):
    baseline = record(tmp_path / "base.json", wall_s=1.0, calibration_s=0.1)
    current = record(tmp_path / "cur.json", wall_s=2.4, calibration_s=0.2)
    assert run(gate, baseline, current) == 0


def test_regression_fails(gate, tmp_path):
    baseline = record(tmp_path / "base.json", wall_s=1.0, calibration_s=0.1)
    current = record(tmp_path / "cur.json", wall_s=1.3, calibration_s=0.1)
    assert run(gate, baseline, current) == 1


def test_missing_baseline_fails(gate, tmp_path):
    current = record(tmp_path / "cur.json", wall_s=1.0, calibration_s=0.1)
    assert run(gate, tmp_path / "absent.json", current) == 1


def test_key_missing_from_the_baseline_fails(gate, tmp_path):
    baseline = record(tmp_path / "base.json", other_s=1.0, calibration_s=0.1)
    current = record(tmp_path / "cur.json", wall_s=1.0, calibration_s=0.1)
    assert run(gate, baseline, current) == 1


def test_key_missing_from_the_current_run_fails(gate, tmp_path):
    baseline = record(tmp_path / "base.json", wall_s=1.0, calibration_s=0.1)
    current = record(tmp_path / "cur.json", wall_s=1.0)
    assert run(gate, baseline, current) == 1
