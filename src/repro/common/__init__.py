"""Shared primitives: addressing, bit vectors, LRU containers, configs, RNG."""
