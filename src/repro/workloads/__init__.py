"""Synthetic server workloads: specs, program generation, execution."""
