"""Switches for the ``repro.perf`` optimization layer.

The fast paths (pattern index, net cache, incremental placement, array
kernels) are the only runtime paths; each naive twin they replaced stays
as a test and audit oracle behind a reference seam (see
``docs/SCALING.md``), not as an option.  What remains to choose is how
much parallelism to use: ``--jobs N`` and ``--procs N`` on the CLI.
Results are identical for any value.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["PerfOptions"]


@dataclass(frozen=True)
class PerfOptions:
    """Parallelism of the mapping flow.

    Attributes:
        jobs: worker threads for the parallel per-cone match prewarm
            (1 = sequential; results are identical for any value).
        procs: worker *processes* for suite runs (``run_table1`` /
            ``run_table2``); circuits fan out over a process pool and
            per-circuit rows/profiles merge deterministically in
            submission order (identical for any value).
    """

    jobs: int = 1
    procs: int = 1

    def with_jobs(self, jobs: int) -> "PerfOptions":
        return replace(self, jobs=max(1, int(jobs)))

    def with_procs(self, procs: int) -> "PerfOptions":
        return replace(self, procs=max(1, int(procs)))
