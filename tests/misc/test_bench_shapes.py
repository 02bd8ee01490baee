"""The schema shapes the benchmarks draw from agree with one another.

``benchmarks/bench_industrial_scale.py`` defines the section-5
industrial shape that the committed ``BENCH_*.json`` baselines were
measured on.  The repository benchmark (``perfbench/workloads.py``)
and the tests restate it, and the advise workload scales it down; a
change to one copy alone would silently compare different designs.
Both benchmark modules are imported the way their runners import
them, with their own directory on ``sys.path``, and nothing in them
is changed.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from tests.brm.test_reference_oracle import ADVISE_SHAPE
from tests.executor.test_memory_kernels import INDUSTRIAL_SHAPE

ROOT = Path(__file__).resolve().parents[2]


def load(directory: str, module: str):
    """Import ``<directory>/<module>.py`` under a private name.

    Its bare-name sibling imports (``conftest``, ``catalogue``) resolve
    from its directory, even where a test directory's own
    ``conftest`` already holds that name; afterwards ``sys.modules``
    and ``sys.path`` are as they were.
    """
    folder = ROOT / directory
    siblings = {path.stem for path in folder.glob("*.py")}
    shadowed = {n: sys.modules.pop(n) for n in siblings if n in sys.modules}
    before = set(sys.modules)
    name = f"_shape_check_{directory}_{module}"
    spec = importlib.util.spec_from_file_location(name, folder / f"{module}.py")
    loaded = importlib.util.module_from_spec(spec)
    sys.modules[name] = loaded
    sys.path.insert(0, str(folder))
    try:
        spec.loader.exec_module(loaded)
    finally:
        sys.path.remove(str(folder))
        for added in set(sys.modules) - before:
            origin = getattr(sys.modules[added], "__file__", None) or ""
            if added == name or Path(origin).parent == folder:
                del sys.modules[added]
        sys.modules.update(shadowed)
    return loaded


@pytest.fixture(scope="module")
def benchmark_shape():
    return load("benchmarks", "bench_industrial_scale").INDUSTRIAL_SHAPE


@pytest.fixture(scope="module")
def perfbench():
    return load("perfbench", "workloads")


def test_perfbench_industrial_shape_is_the_benchmarks(benchmark_shape, perfbench):
    assert perfbench.INDUSTRIAL_SHAPE == benchmark_shape


def test_perfbench_advise_shape_is_a_third_of_the_entities(perfbench):
    assert perfbench.ADVISE_SHAPE == dataclasses.replace(
        perfbench.INDUSTRIAL_SHAPE, entity_types=30
    )


def test_test_copies_match(benchmark_shape, perfbench):
    assert INDUSTRIAL_SHAPE == benchmark_shape
    assert ADVISE_SHAPE == perfbench.ADVISE_SHAPE
