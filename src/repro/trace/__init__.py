"""Instruction-trace records, bundles, stream statistics, the on-disk
store and its replication tier."""
