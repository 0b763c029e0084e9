"""Figure 10: competitive coverage and speedup comparison.

What the test asserts, on every workload:

* coverage: PIF covers at least as much as TIFS and next-line
  (``pif_wins_everywhere``), and more than 75 % of baseline misses;
* speedup: PIF speeds up over no prefetching, is within 0.04 of TIFS
  or above it, and the perfect L1-I is within 0.03 of PIF or above it.

It asserts no order between TIFS and next-line: at full scale TIFS
covers *less* than next-line on both DSS workloads (78.3 % vs 80.7 % on
dss-qry2, 59.6 % vs 76.9 % on dss-qry17, seed 42).
"""

from conftest import emit
from repro.experiments.fig10 import run_fig10


def test_fig10(benchmark, bench_config):
    result = benchmark.pedantic(run_fig10, args=(bench_config,),
                                rounds=1, iterations=1)
    emit(result)
    assert result.pif_wins_everywhere()
    for workload in bench_config.workloads:
        coverage = result.coverage[workload]
        assert coverage["pif"] > 0.75, workload
        speedup = result.speedup[workload]
        assert speedup["perfect"] >= speedup["pif"] - 0.03, workload
        assert speedup["pif"] > 1.0, workload
        assert speedup["pif"] >= speedup["tifs"] - 0.04, workload
    # Average speedups, the paper's headline numbers.
    print(f"\nmean speedups: next-line={result.mean_speedup('next-line'):.3f} "
          f"tifs={result.mean_speedup('tifs'):.3f} "
          f"pif={result.mean_speedup('pif'):.3f} "
          f"perfect={result.mean_speedup('perfect'):.3f}")
