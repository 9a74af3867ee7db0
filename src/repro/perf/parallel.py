"""Parallel per-cone match precomputation (``--jobs N``).

The only thread-hostile state in the covering engine is the *sequential*
part: lifecycle transitions, placement updates and cover commitment must
see cones in order (each cone's costs depend on the hawks committed by
the previous ones).  Structural matching, by contrast, is a pure function
of the immutable subject graph — so that is what fans out.

Each logic cone owns the gate nodes that first appear in it (walking
cones in processing order); an executor computes ``matches_at`` for every
owned node, cone-per-task, and the results are merged into the mapper's
match cache in cone order before the sequential DP sweep starts.  The
merge order is deterministic and the computed lists are pure, so mapping
results are bit-identical for any job count — asserted by the
equivalence tests.

Sharing one :class:`~repro.perf.memomatch.MemoMatcher` across workers is
safe: its pattern index is read-only and its gate-height table stores
deterministic values, so racing writers publish identical entries (dict
operations are atomic under the GIL).  Observability counters bumped from workers may
under-count by a few on a race; span accounting stays exact thanks to
the tracer's per-thread stacks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Sequence, Set, Tuple

from repro.network.subject import SubjectNode
from repro.obs import OBS

__all__ = ["prewarm_match_cache", "cone_ownership"]


def cone_ownership(
    cones: Sequence[Tuple[SubjectNode, Set[SubjectNode]]],
    order: Sequence[int],
) -> List[Tuple[SubjectNode, List[SubjectNode]]]:
    """Assign every gate node to the first cone (in processing order)
    that contains it; nodes within a cone are sorted by uid."""
    owned: List[Tuple[SubjectNode, List[SubjectNode]]] = []
    claimed: Set[int] = set()
    for index in order:
        po, cone = cones[index]
        mine = [
            n
            for n in sorted(cone, key=lambda n: n.uid)
            if n.is_gate and n.uid not in claimed
        ]
        claimed.update(n.uid for n in mine)
        owned.append((po, mine))
    return owned


def prewarm_match_cache(mapper, cones, order, jobs: int) -> None:
    """Fill ``mapper._match_cache`` for every cone's gates, in parallel.

    Args:
        mapper: a :class:`~repro.map.base.BaseMapper`; only its (pure)
            ``matcher`` and its ``_match_cache`` dict are touched.
        cones: ``logic_cones(subject)`` output.
        order: cone processing order (indices into ``cones``).
        jobs: worker thread count; values <= 1 prewarm inline.
    """
    owned = cone_ownership(cones, order)
    total = sum(len(nodes) for _, nodes in owned)
    matcher = mapper.matcher
    cache: Dict[int, list] = mapper._match_cache
    with OBS.span("map.prewarm", cones=len(owned), nodes=total,
                  jobs=jobs) as parent:

        def work(batch: Tuple[SubjectNode, List[SubjectNode]]):
            po, nodes = batch
            with OBS.span_in(parent, "map.prewarm.cone", po=po.name,
                             nodes=len(nodes)):
                return [(n.uid, matcher.matches_at(n)) for n in nodes]

        if jobs <= 1:
            results = [work(batch) for batch in owned]
        else:
            with ThreadPoolExecutor(
                max_workers=jobs, thread_name_prefix="prewarm"
            ) as executor:
                results = list(executor.map(work, owned))
        for batch_result in results:
            for uid, matches in batch_result:
                cache[uid] = matches
