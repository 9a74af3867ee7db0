"""Switches for the ``repro.perf`` optimization layer.

All caches default to *on* — they are bit-identical to the naive paths —
while parallel mapping defaults to one job (the executor is opt-in via
``--jobs N`` on the CLI).  ``PerfOptions.naive()`` turns everything off;
the golden-equivalence tests map every circuit both ways and assert the
results are identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["PerfOptions"]


@dataclass(frozen=True)
class PerfOptions:
    """Tuning switches of the mapping hot path.

    Attributes:
        index_patterns: prune candidate patterns with the root/child-kind
            and gate-height index instead of trying the full library.
        incremental_nets: cache per-net true-fanout lists and pin points
            with delta invalidation on commit (Lily cost hooks).
        incremental_place: per-net bounding-box caches with O(pins-of-
            moved-cell) delta updates in annealing and the detailed
            swap pass (bit-identical to full recomputation).
        warm_replace: seed Lily's periodic quadratic re-place CG solves
            with the previous solution.  Only affects flows with
            ``replace_interval > 0``; warm CG matches a cold solve to
            solver tolerance, not bitwise.
        vec_place: struct-of-arrays numpy kernels (``repro.perf.vec``)
            for the placement hot paths — vectorized quadratic-system
            assembly and bulk net-box builds (bit-identical to the naive
            folds; see ``docs/SCALING.md``).
        vec_sta: levelized array-form STA
            (:mod:`repro.timing.array_sta`) for full timing passes and
            the level-batched dirty-frontier updates of
            :class:`repro.timing.incremental.IncrementalTiming`;
            bit-identical to :func:`repro.timing.sta.analyze`.
        vec_route: struct-of-arrays routing estimators — the
            :class:`~repro.perf.vec.PinTable` wirelength/Steiner folds
            of :func:`repro.route.wirelength.netlist_wirelength`, the
            batched Prim kernel of
            :func:`repro.route.spanning.mst_lengths_batched`, and the
            ordered length fold of global routing (bit-identical to the
            naive per-net loops; see ``docs/SCALING.md``).
        jobs: worker threads for the parallel per-cone match prewarm
            (1 = sequential; results are identical for any value).
        procs: worker *processes* for suite runs (``run_table1`` /
            ``run_table2``); circuits fan out over a process pool and
            per-circuit rows/profiles merge deterministically in
            submission order (identical for any value).
    """

    index_patterns: bool = True
    incremental_nets: bool = True
    incremental_place: bool = True
    warm_replace: bool = True
    vec_place: bool = True
    vec_sta: bool = True
    vec_route: bool = True
    jobs: int = 1
    procs: int = 1

    @staticmethod
    def naive() -> "PerfOptions":
        """Every optimization off — the reference paths."""
        return PerfOptions(
            index_patterns=False,
            incremental_nets=False,
            incremental_place=False,
            warm_replace=False,
            vec_place=False,
            vec_sta=False,
            vec_route=False,
            jobs=1,
            procs=1,
        )

    def with_jobs(self, jobs: int) -> "PerfOptions":
        return replace(self, jobs=max(1, int(jobs)))

    def with_procs(self, procs: int) -> "PerfOptions":
        return replace(self, procs=max(1, int(procs)))
