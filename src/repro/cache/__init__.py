"""Instruction-cache substrate: the set-associative L1-I model, its
reference twin, replacement policies and counters."""
