"""Run every paper experiment and print the tables.

Usage::

    python -m repro.experiments [--quick] [--instructions N] [--cores N]
                                [--jobs N] [--figures fig2,fig10]

This is the reproduction's equivalent of the paper's full evaluation
pass; DESIGN.md records how its half-scale regime maps onto the paper's.

``--jobs N`` fans the per-workload experiment slices out over N worker
processes (see :mod:`repro.experiments.parallel`).  Result tables are
bit-identical for any job count — only wall-clock changes — because
slices are deterministic and collected in workload order.  Progress and
timing lines go to stderr so stdout stays a clean, diffable table
stream.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import List, Optional, TextIO

from ..common.profiling import collecting
from .ablations import run_all_ablations
from .common import ExperimentConfig, QUICK_CONFIG
from .fig2 import run_fig2
from .fig3 import run_fig3
from .fig7 import run_fig7
from .fig8 import run_fig8
from .fig9 import run_fig9
from .fig10 import run_fig10
from .parallel import jobs_argument_type

#: argparse type for ``--jobs``: positive integer or ``auto``.
_jobs_value = jobs_argument_type

#: Figure name -> runner, in the paper's presentation order.
FIGURE_RUNNERS = {
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "fig9": run_fig9,
    "fig10": run_fig10,
}


def run_all(config: ExperimentConfig, include_ablations: bool = True,
            stream: Optional[TextIO] = None, jobs: int = 1,
            figures: Optional[List[str]] = None,
            profile: bool = False) -> List[object]:
    """Run every experiment, printing each table as it completes.

    ``figures`` restricts the run to a subset of :data:`FIGURE_RUNNERS`
    names (presentation order is preserved regardless of input order);
    unknown names raise ValueError rather than silently running
    nothing.  A figure subset also skips the ablation sweeps — they are
    not figures, and would dominate the wall-clock of the single-figure
    smoke runs the parameter exists for.

    ``profile`` prints, after each figure's timing line, the per-stage
    wall-clock breakdown (trace load / baseline replay / lane walk /
    timing walk) collected by :mod:`repro.common.profiling` — enough to
    spot a hot-path regression without running the benchmark suite.
    Stage collection is process-local, so with ``jobs > 1`` the stages
    executed inside worker processes are not attributed.
    """
    out = stream if stream is not None else sys.stdout
    results: List[object] = []
    if figures is None:
        selected = list(FIGURE_RUNNERS)
    else:
        unknown = sorted(set(figures) - set(FIGURE_RUNNERS))
        if unknown or not figures:
            raise ValueError(f"figures must name at least one of "
                             f"{list(FIGURE_RUNNERS)}; got {sorted(figures)}")
        selected = [name for name in FIGURE_RUNNERS if name in set(figures)]
        include_ablations = False

    def emit(result) -> None:
        results.append(result)
        print(result.to_table(), file=out)
        print(file=out)

    if profile and jobs > 1:
        print("[--profile] note: stage timers cover the parent process "
              f"only; --jobs {jobs} runs slices in workers whose stages "
              "are not attributed", file=sys.stderr)

    def run_step(label: str, step) -> None:
        step_start = time.time()
        if profile:
            with collecting() as stages:
                emit(step())
            print(f"[{label} took {time.time() - step_start:.1f}s]",
                  file=sys.stderr)
            print(stages.format_table(indent="    "), file=sys.stderr)
        else:
            emit(step())
            print(f"[{label} took {time.time() - step_start:.1f}s]",
                  file=sys.stderr)

    started = time.time()
    for name in selected:
        runner = FIGURE_RUNNERS[name]
        run_step(runner.__name__,
                 lambda runner=runner: runner(config, jobs=jobs))
    if include_ablations:
        for ablation in run_all_ablations(config, jobs=jobs):
            emit(ablation)
    print(f"Total: {time.time() - started:.1f}s", file=sys.stderr)
    return results


def build_parser() -> argparse.ArgumentParser:
    """The runner's argument parser (exposed for tests and the README
    docs check)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce every figure of 'Proactive Instruction Fetch'")
    parser.add_argument("--quick", action="store_true",
                        help="small traces for a fast smoke run")
    parser.add_argument("--instructions", type=int, default=None,
                        help="trace length per core")
    parser.add_argument("--cores", type=int, default=None,
                        help="cores (independent traces) per workload")
    parser.add_argument("--seed", type=int, default=None, help="root seed")
    parser.add_argument("--jobs", type=_jobs_value, default=1,
                        help="worker processes for the per-workload fan-out, "
                             "or 'auto' for all CPUs but one (tables are "
                             "identical for any value)")
    parser.add_argument("--no-ablations", action="store_true",
                        help="skip the ablation sweeps")
    parser.add_argument("--figures", default=None,
                        help="comma-separated subset of figures to run "
                             f"(choices: {','.join(FIGURE_RUNNERS)}); "
                             "implies --no-ablations")
    parser.add_argument("--profile", action="store_true",
                        help="print per-figure, per-stage wall-clock "
                             "(trace load / baseline / lane walk / timing "
                             "walk) to stderr")
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)

    figures = None
    if args.figures is not None:
        figures = [name.strip() for name in args.figures.split(",")
                   if name.strip()]
    config = QUICK_CONFIG if args.quick else ExperimentConfig()
    overrides = {}
    if args.instructions is not None:
        overrides["instructions"] = args.instructions
    if args.cores is not None:
        overrides["cores"] = args.cores
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = replace(config, **overrides)

    try:
        run_all(config, include_ablations=not args.no_ablations,
                jobs=args.jobs, figures=figures, profile=args.profile)
    except ValueError as error:
        parser.error(str(error))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
