"""Index-pruned structural matcher.

Drop-in :class:`~repro.match.treematch.Matcher` replacement that every
mapper builds unless a caller injects one (``matcher=``): each node
enumerates only the patterns the
:class:`~repro.perf.patindex.PatternIndex` deems plausible, in the naive
matcher's order, which the DP cover's tie-breaking observes.  The plain
:class:`~repro.match.treematch.Matcher` is the reference seam: the
golden-equivalence tests inject it and assert bit-identical mappings.  The matcher is
safe to share across worker threads: the index is read-only after build
and the per-graph gate heights are deterministic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.library.patterns import PatternSet
from repro.match.treematch import _KIND_FOR_TYPE, Match, Matcher
from repro.network.subject import SubjectGraph, SubjectNode
from repro.obs import OBS
from repro.perf.patindex import PatternIndex

__all__ = ["MemoMatcher"]


class MemoMatcher(Matcher):
    """A :class:`Matcher` that tries only the pattern index's candidates."""

    def __init__(
        self,
        patterns: PatternSet,
        tree_mode: bool = False,
        shared_index: "Optional[PatternIndex]" = None,
    ) -> None:
        """``shared_index`` lets a resident service (``repro.serve``) reuse
        one prebuilt :class:`PatternIndex`; per-graph state (``_heights``)
        stays private to each matcher instance."""
        super().__init__(patterns, tree_mode=tree_mode)
        self.index = (shared_index if shared_index is not None
                      else PatternIndex(patterns))
        #: uid -> gate height of the currently bound graph.
        self._heights: Dict[int, int] = {}

    def bind(self, subject: SubjectGraph) -> None:
        """Reset per-graph state (gate heights key off node uids)."""
        self._heights = {}

    # -- gate heights (for the index's embeddability filter) -----------------

    def _gate_height(self, node: SubjectNode) -> int:
        h = self._heights.get(node.uid)
        if h is not None:
            return h
        heights = self._heights
        stack = [node]
        while stack:
            n = stack[-1]
            if n.uid in heights:
                stack.pop()
                continue
            pending = [
                f for f in n.fanins if f.is_gate and f.uid not in heights
            ]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            heights[n.uid] = 1 + max(
                (heights[f.uid] for f in n.fanins if f.is_gate), default=0
            )
        return heights[node.uid]

    # -- matching ------------------------------------------------------------

    def matches_at(self, snode: SubjectNode) -> List[Match]:
        kind = _KIND_FOR_TYPE.get(snode.type)
        if kind is None:
            return []
        candidates = self.index.candidates(snode, self._gate_height(snode))
        if OBS.enabled:
            OBS.metrics.counter("perf.patterns_pruned").inc(
                len(self.patterns.rooted_at(kind)) - len(candidates)
            )
        return self._enumerate(snode, candidates)
