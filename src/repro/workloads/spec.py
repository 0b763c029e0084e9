"""Workload specifications.

The paper evaluates six commercial server workloads (Table I): OLTP on
DB2 and Oracle (TPC-C), DSS queries 2 and 17 (TPC-H on DB2), and web
serving on Apache and Zeus (SPECweb99).  We cannot run those binaries,
so each is modelled as a :class:`WorkloadSpec` — the parameter vector of
a synthetic program whose *stream statistics* reproduce the properties
the paper attributes to that workload class:

* OLTP: multi-megabyte instruction footprint, deep call trees, many
  transaction types, moderate branch entropy, frequent OS interaction.
* DSS: smaller footprint, scan-dominated tight loops with high trip
  counts, long sequential runs (next-line prefetching works best here).
* Web: mid-size footprint of many small functions, high discontinuity,
  the strongest cache-filtering pathology (the paper's Figure 2 shows
  the miss stream losing >20 % coverage on Web).

The numbers are not calibrated against the originals — they are chosen
so the *relative* orderings in every figure reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Generation parameters of one synthetic server workload."""

    name: str
    suite: str
    #: Total code footprint in KB (functions + gaps), before handlers.
    code_footprint_kb: int
    #: Mean function size in basic blocks.
    mean_function_blocks: float
    #: Mean instructions per basic block.
    mean_block_instructions: float
    #: Number of distinct top-level transaction/request types.
    transaction_types: int
    #: Depth of the call-graph level structure (max call chain length).
    call_levels: int
    #: Mean number of call sites per non-leaf function.
    mean_calls_per_function: float
    #: Number of globally popular helper functions (Zipf-shared leaves).
    hot_helpers: int
    #: Size of the shared callee pool per call level.  Call sites across
    #: *all* transaction types draw from this pool, so types share
    #: mid-level code the way real transactions share library and DBMS
    #: internals.  This sharing creates the medium-reuse-distance blocks
    #: whose cache residency is history-dependent -- the raw material of
    #: the paper's miss-stream fragmentation (Section 2.1).
    callee_pool_per_level: int
    #: Probability a basic block ends in a local conditional branch.
    local_branch_probability: float
    #: Of local conditional branches, fraction that are data-dependent
    #: (taken probability drawn near 0.5) rather than stable (near 0/1).
    data_dependent_fraction: float
    #: Probability a function contains a loop.
    loop_probability: float
    #: Mean loop trip count (per-entry counts jitter around the site mean).
    mean_loop_iterations: float
    #: Relative sigma of per-entry trip counts around the loop site's
    #: mean.  Scan loops over fixed-cardinality data (DSS) are nearly
    #: deterministic; request-dependent loops (OLTP/Web) vary more.
    loop_trip_jitter: float
    #: Mean retired instructions between spontaneous interrupts.
    interrupt_interval: int
    #: Number of distinct interrupt handler routines.
    interrupt_handlers: int
    #: Mean handler size in basic blocks.
    mean_handler_blocks: float

    def __post_init__(self) -> None:
        if self.code_footprint_kb <= 0:
            raise ValueError("footprint must be positive")
        if not 0.0 <= self.local_branch_probability <= 1.0:
            raise ValueError("local_branch_probability must be a probability")
        if not 0.0 <= self.data_dependent_fraction <= 1.0:
            raise ValueError("data_dependent_fraction must be a probability")
        if not 0.0 <= self.loop_probability <= 1.0:
            raise ValueError("loop_probability must be a probability")
        if self.loop_trip_jitter < 0.0:
            raise ValueError("loop_trip_jitter cannot be negative")
        if self.interrupt_interval <= 0:
            raise ValueError("interrupt_interval must be positive")
        if self.call_levels < 2:
            raise ValueError("need at least two call levels (root + leaf)")


def _oltp(name: str, footprint_kb: int, transactions: int,
          data_dep: float) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        suite="oltp",
        code_footprint_kb=footprint_kb,
        mean_function_blocks=12.0,
        mean_block_instructions=8.0,
        transaction_types=transactions,
        call_levels=7,
        mean_calls_per_function=3.4,
        hot_helpers=24,
        callee_pool_per_level=110,
        local_branch_probability=0.34,
        data_dependent_fraction=data_dep,
        loop_probability=0.25,
        mean_loop_iterations=8.0,
        loop_trip_jitter=0.15,
        interrupt_interval=6_000,
        interrupt_handlers=6,
        mean_handler_blocks=7.0,
    )


def _dss(name: str, footprint_kb: int, loop_iterations: float) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        suite="dss",
        code_footprint_kb=footprint_kb,
        mean_function_blocks=14.0,
        mean_block_instructions=8.0,
        transaction_types=3,
        call_levels=6,
        mean_calls_per_function=3.0,
        hot_helpers=12,
        callee_pool_per_level=64,
        local_branch_probability=0.26,
        data_dependent_fraction=0.08,
        loop_probability=0.55,
        mean_loop_iterations=loop_iterations,
        loop_trip_jitter=0.05,
        interrupt_interval=14_000,
        interrupt_handlers=4,
        mean_handler_blocks=6.0,
    )


def _web(name: str, footprint_kb: int, data_dep: float) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        suite="web",
        code_footprint_kb=footprint_kb,
        mean_function_blocks=7.0,
        mean_block_instructions=6.0,
        transaction_types=12,
        call_levels=6,
        mean_calls_per_function=3.8,
        hot_helpers=32,
        callee_pool_per_level=110,
        local_branch_probability=0.38,
        data_dependent_fraction=data_dep,
        loop_probability=0.20,
        mean_loop_iterations=4.0,
        loop_trip_jitter=0.15,
        interrupt_interval=4_000,
        interrupt_handlers=8,
        mean_handler_blocks=7.0,
    )


#: The six paper workloads (Table I), as synthetic specs.
PAPER_WORKLOADS: Dict[str, WorkloadSpec] = {
    "oltp-db2": _oltp("oltp-db2", footprint_kb=2048, transactions=5, data_dep=0.12),
    "oltp-oracle": _oltp("oltp-oracle", footprint_kb=2560, transactions=5,
                         data_dep=0.16),
    "dss-qry2": _dss("dss-qry2", footprint_kb=768, loop_iterations=20.0),
    "dss-qry17": _dss("dss-qry17", footprint_kb=896, loop_iterations=30.0),
    "web-apache": _web("web-apache", footprint_kb=1536, data_dep=0.13),
    "web-zeus": _web("web-zeus", footprint_kb=1280, data_dep=0.11),
}

#: Display grouping used by every figure: (suite label, workload names).
WORKLOAD_GROUPS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("OLTP", ("oltp-db2", "oltp-oracle")),
    ("DSS", ("dss-qry2", "dss-qry17")),
    ("Web", ("web-apache", "web-zeus")),
)

#: Flat tuple of the six names in the paper's presentation order.
WORKLOAD_NAMES: Tuple[str, ...] = tuple(
    name for _, names in WORKLOAD_GROUPS for name in names
)


def get_spec(name: str) -> WorkloadSpec:
    """Look up a paper workload spec by name.

    Raises KeyError with the list of valid names, because a typo'd
    workload name in an experiment config is a common user error.
    """
    try:
        return PAPER_WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; valid names: {sorted(PAPER_WORKLOADS)}"
        ) from None
