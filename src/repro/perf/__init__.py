"""Hot-path optimization layer for the mapping and layout stack.

The techniques below are always on; :class:`PerfOptions` only sets the
parallelism (``jobs``, ``procs``):

* **pattern indexing** (:mod:`repro.perf.patindex`, used by
  :mod:`repro.perf.memomatch`) — the pattern set is pre-bucketed by
  root/child base-function kinds and required gate height, so the matcher
  tries only plausible patterns;
* **incremental net caching** (:mod:`repro.perf.netcache`) — per-net
  true-fanout lists and pin points are cached across cones and invalidated
  by delta on commit instead of recomputed from scratch per candidate;
* **parallel cone mapping** (:mod:`repro.perf.parallel`) — an opt-in
  ``concurrent.futures`` executor pre-computes the per-cone match lists in
  parallel with a deterministic merge order;
* **incremental placement bookkeeping** (:mod:`repro.perf.incremental`) —
  per-net bounding-box caches giving the annealer and the detailed swap
  pass O(pins-of-moved-cell) cost deltas instead of full-net re-folds;
* **incremental timing** (:mod:`repro.timing.incremental`, always on for
  its callers) — dirty-node frontier propagation so a gate move re-times
  only its fanout cone.

Every path is bit-identical to the naive one it replaces.  The naive
twins are test and audit oracles reached through reference seams — an
injected plain :class:`~repro.match.treematch.Matcher` (``matcher=``),
:func:`repro.core.rectangles.true_fanouts`, ``detailed_place`` /
``simulated_annealing(incremental=False)`` and the ``vec=False``
engines of the struct-of-arrays kernels — never runtime options.  Each
fast path reports cache hit/miss counters through ``repro.obs``
(visible in ``report --profile``).
"""

import importlib

from repro.perf.options import PerfOptions

__all__ = [
    "PerfOptions",
    "PatternIndex",
    "MemoMatcher",
    "NetCache",
    "prewarm_match_cache",
    "NetBoxCache",
    "StampedNetBoxCache",
]

# The heavier members live in submodules that import from repro.map /
# repro.core; loading them here eagerly would close an import cycle
# (map.base -> repro.perf -> netcache -> repro.map).  PEP 562 lazy
# attributes keep `from repro.perf import NetCache` working regardless
# of which package loads first.
_LAZY = {
    "PatternIndex": "repro.perf.patindex",
    "MemoMatcher": "repro.perf.memomatch",
    "NetCache": "repro.perf.netcache",
    "prewarm_match_cache": "repro.perf.parallel",
    "NetBoxCache": "repro.perf.incremental",
    "StampedNetBoxCache": "repro.perf.incremental",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
