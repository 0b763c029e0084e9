"""repro: a reproduction of "Proactive Instruction Fetch" (MICRO 2011).

The package implements the PIF instruction prefetcher, every substrate
it depends on (synthetic server workloads, a fetch/retire pipeline
model, branch predictors, an L1-I cache model), the baselines it is
compared against (next-line, TIFS, discontinuity, stride), and the full
evaluation harness regenerating each figure of the paper.

Quick start::

    from repro import generate_trace, ProactiveInstructionFetch
    from repro.sim import run_prefetch_simulation

    trace = generate_trace("oltp-db2", instructions=400_000, seed=1)
    result = run_prefetch_simulation(trace.bundle,
                                     ProactiveInstructionFetch())
    print(f"miss coverage: {result.coverage():.1%}")
"""

__version__ = "1.1.0"

__all__ = [
    "BranchPredictorConfig",
    "CacheConfig",
    "MemoryConfig",
    "PIFConfig",
    "PipelineConfig",
    "SystemConfig",
    "AccessOrderPIF",
    "ProactiveInstructionFetch",
    "GeneratedTrace",
    "cached_trace",
    "generate_trace",
    "make_prefetcher",
    "TraceBundle",
    "PAPER_WORKLOADS",
    "WORKLOAD_NAMES",
    "get_spec",
    "__version__",
]


def __getattr__(name: str):
    # The re-exports resolve on first use (PEP 562), so a command that
    # needs none of the simulator (``repro lint``, say) does not import
    # it.  Each name is defined in one of these modules; the others only
    # re-import the same object.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import prefetch
    from .common import config
    from .core import pif
    from .pipeline import tracegen
    from .trace import bundle
    from .workloads import spec

    for module in (config, pif, tracegen, prefetch, bundle, spec):
        if hasattr(module, name):
            globals()[name] = getattr(module, name)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
