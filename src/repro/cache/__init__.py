"""Instruction-cache substrate: the set-associative L1-I object model
(the reference walks' cache, which the native walks reproduce),
replacement policies and counters."""
