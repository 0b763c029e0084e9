"""Experiment harness: one module per paper figure, plus ablations."""
