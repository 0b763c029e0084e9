"""Shared benchmark configuration.

The benchmarks regenerate every paper figure at a reduced-but-faithful
scale (see DESIGN.md's scale note).  Each prints the same rows/series
the paper reports, so ``pytest benchmarks/ --benchmark-only -s`` doubles
as the reproduction's results run.  For the full-scale pass, run
``python -m repro.experiments`` (``--jobs N`` fans the per-workload
slices out over processes).

Everything collected from this directory carries the ``bench`` marker
(registered in ``pytest.ini``), so ``pytest -m "not bench"`` gives a
fast correctness-only pass while the bare tier-1 command stays complete.

The benchmark traces go through the on-disk trace store; when
``REPRO_TRACE_STORE`` is not explicitly set (CI sets it to a cached
workspace directory), it is redirected to a throwaway directory so
benchmark runs never populate the user's real ``~/.cache``.  The user
cache root, where the native walks are built, gets the same
treatment when ``XDG_CACHE_HOME`` is not set.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.common import ExperimentConfig
from repro.trace.store import ensure_scratch_cache_home, ensure_scratch_store

ensure_scratch_store(prefix="repro-bench-traces-")
ensure_scratch_cache_home(prefix="repro-bench-cache-")

_BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items) -> None:
    """Tag every test under ``benchmarks/`` with the ``bench`` marker."""
    for item in items:
        if _BENCH_DIR in Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.bench)

#: Benchmark-scale experiment configuration: one core, medium traces.
BENCH_CONFIG = ExperimentConfig(instructions=700_000, cores=1, seed=42)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The shared benchmark experiment configuration."""
    return BENCH_CONFIG


def emit(result) -> None:
    """Print an experiment's table (visible with ``-s``)."""
    print()
    print(result.to_table())
