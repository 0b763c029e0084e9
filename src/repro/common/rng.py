"""Deterministic random-number plumbing.

Every stochastic component (workload generator, branch-outcome model,
interrupt injector, random replacement) draws from a named child of one
root seed, so that

* a whole experiment is reproducible from a single integer, and
* adding a new consumer never perturbs the draws seen by existing ones
  (each name hashes to an independent stream).
"""

from __future__ import annotations

import hashlib
import random


def child_seed(root_seed: int, *names: str) -> int:
    """Derive a stable 64-bit seed for the component addressed by ``names``.

    The derivation is a SHA-256 over the root seed and the name path, so
    it is stable across Python versions and platforms (unlike ``hash``).
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode("ascii"))
    for name in names:
        digest.update(b"/")
        digest.update(name.encode())
    return int.from_bytes(digest.digest()[:8], "big")


def make_rng(root_seed: int, *names: str) -> random.Random:
    """A ``random.Random`` seeded for the component addressed by ``names``."""
    return random.Random(child_seed(root_seed, *names))
