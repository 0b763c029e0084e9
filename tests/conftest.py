"""Shared fixtures: small cached traces and programs.

Trace generation is the expensive part of the suite, so traces are
generated once per session at a deliberately small scale; tests that
need different parameters build their own.

Hermeticity: unless the caller explicitly exported ``REPRO_TRACE_STORE``
(CI does, to cache traces across runs), the on-disk trace store is
redirected to a throwaway directory for the whole session, so test runs
never write archives into — or read state from — the user's real
``~/.cache/repro/traces``.  Likewise, unless the caller exported
``XDG_CACHE_HOME``, the user cache root (where the native walks are
built, :mod:`repro.sim.native`) is a throwaway directory, so a test
run writes nothing under the real ``~/.cache``.
"""

from __future__ import annotations

import pytest

from repro.common.config import CacheConfig
from repro.pipeline.tracegen import generate_trace
from repro.trace.store import ensure_scratch_cache_home, ensure_scratch_store
from repro.workloads.generator import build_program
from repro.workloads.spec import get_spec

ensure_scratch_store(prefix="repro-test-traces-")
ensure_scratch_cache_home(prefix="repro-test-cache-")

#: Cache used across trace-level tests: small so misses are plentiful
#: even in short traces.
TEST_CACHE = CacheConfig(capacity_bytes=16 * 1024, associativity=2)

#: Trace length for shared fixtures.
TEST_INSTRUCTIONS = 120_000


@pytest.fixture(scope="session")
def oltp_trace():
    """A small OLTP trace shared by read-only tests."""
    return generate_trace("oltp-db2", instructions=TEST_INSTRUCTIONS, seed=11)


@pytest.fixture(scope="session")
def web_trace():
    """A small Web trace shared by read-only tests."""
    return generate_trace("web-apache", instructions=TEST_INSTRUCTIONS, seed=11)


@pytest.fixture(scope="session")
def dss_trace():
    """A small DSS trace shared by read-only tests."""
    return generate_trace("dss-qry2", instructions=TEST_INSTRUCTIONS, seed=11)


@pytest.fixture(scope="session")
def small_program():
    """A generated synthetic program shared by structural tests."""
    return build_program(get_spec("web-zeus"), seed=5)


@pytest.fixture()
def test_cache_config():
    """A fresh copy of the test cache configuration."""
    return TEST_CACHE


@pytest.fixture(scope="session")
def repo_root():
    """The repository checkout root (for checked-in scenario files,
    README docs checks, and other non-package artifacts)."""
    from pathlib import Path

    return Path(__file__).resolve().parent.parent
