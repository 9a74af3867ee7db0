"""Structural tree matching of pattern graphs on the subject graph.

A *match* anchors a pattern tree's root at a subject node: interior pattern
nodes must coincide with subject NAND2/INV nodes (commutatively for NAND),
and pattern leaves bind to arbitrary subject nodes, one per cell pin.
Repeated pins in a pattern (e.g. the shared ``!c`` of an AOI21) must bind
to the same subject node; distinct pins must bind distinct nodes.

Two covering regimes use the same matcher:

* **tree mode** (DAGON): a match may not cross a multi-fanout stem — every
  covered non-root node must have exactly one fanout.
* **cone mode** (MIS, Lily): matches may cover stems; nodes whose signal is
  still needed elsewhere get duplicated by later matches (Section 2's dove
  reincarnation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.library.patterns import (
    CellPattern,
    PatternKind,
    PatternNode,
    PatternSet,
)
from repro.network.subject import SubjectGraph, SubjectNode, SubjectNodeType
from repro.obs import OBS

__all__ = ["Match", "Matcher", "find_matches"]

_KIND_FOR_TYPE = {
    SubjectNodeType.NAND2: PatternKind.NAND2,
    SubjectNodeType.INV: PatternKind.INV,
}


@dataclass(frozen=True)
class Match:
    """A pattern bound at a subject node.

    Attributes:
        pattern: the pattern graph (cell + tree).
        root: subject node where the pattern root (the cell output) sits.
        inputs: subject nodes feeding the cell, indexed by cell pin.
        covered: subject nodes merged into this gate (root included).
    """

    pattern: CellPattern
    root: SubjectNode
    inputs: Tuple[SubjectNode, ...]
    covered: FrozenSet[SubjectNode]

    @property
    def cell(self):
        return self.pattern.cell

    @property
    def inner(self) -> FrozenSet[SubjectNode]:
        """Covered nodes other than the root (the prospective doves)."""
        return self.covered - {self.root}

    def __repr__(self) -> str:
        ins = ",".join(n.name for n in self.inputs)
        return f"Match({self.cell.name} @ {self.root.name} <- [{ins}])"


def _match_pattern(
    pnode: PatternNode, snode: SubjectNode
) -> Iterator[Tuple[Dict[int, SubjectNode], FrozenSet[SubjectNode]]]:
    """Yield (pin binding, covered interior nodes) for pattern-at-node."""
    if pnode.kind is PatternKind.LEAF:
        yield {pnode.pin_index: snode}, frozenset()
        return
    expected = _KIND_FOR_TYPE.get(snode.type)
    if expected is not pnode.kind:
        return
    if pnode.kind is PatternKind.INV:
        for binding, covered in _match_pattern(pnode.children[0], snode.fanins[0]):
            yield binding, covered | {snode}
        return
    # NAND2: try both child orders (commutative matching).
    pa, pb = pnode.children
    fa, fb = snode.fanins
    orders = [(fa, fb)]
    if fa is not fb:
        orders.append((fb, fa))
    emitted: Set[tuple] = set()
    for sa, sb in orders:
        for bind_a, cov_a in _match_pattern(pa, sa):
            for bind_b, cov_b in _match_pattern(pb, sb):
                merged = _merge_bindings(bind_a, bind_b)
                if merged is None:
                    continue
                covered = cov_a | cov_b | {snode}
                key = (tuple(sorted((k, v.uid) for k, v in merged.items())),
                       tuple(sorted(n.uid for n in covered)))
                if key in emitted:
                    continue
                emitted.add(key)
                yield merged, covered


def _merge_bindings(
    a: Dict[int, SubjectNode], b: Dict[int, SubjectNode]
) -> Optional[Dict[int, SubjectNode]]:
    """Union two pin bindings; ``None`` if the same pin binds differently."""
    merged = dict(a)
    for pin, node in b.items():
        existing = merged.get(pin)
        if existing is None:
            merged[pin] = node
        elif existing is not node:
            return None
    return merged


def _binding_is_injective(binding: Dict[int, SubjectNode]) -> bool:
    """Distinct pins must bind to distinct subject nodes."""
    nodes = list(binding.values())
    return len({n.uid for n in nodes}) == len(nodes)


class Matcher:
    """Finds all legal matches of a pattern set at subject nodes.

    Mappers build the index-pruned
    :class:`~repro.perf.memomatch.MemoMatcher` by default; this plain
    matcher, injected through ``matcher=``, is its reference seam.
    """

    def __init__(self, patterns: PatternSet, tree_mode: bool = False) -> None:
        self.patterns = patterns
        self.tree_mode = tree_mode

    def matches_at(self, snode: SubjectNode) -> List[Match]:
        """All matches whose root is ``snode``."""
        kind = _KIND_FOR_TYPE.get(snode.type)
        if kind is None:
            return []
        return self._enumerate(snode, self.patterns.rooted_at(kind))

    def _enumerate(
        self, snode: SubjectNode, candidates: Sequence[CellPattern]
    ) -> List[Match]:
        """Try ``candidates`` at ``snode``; order follows the candidate
        list, so a filtered-but-complete candidate subset yields exactly
        the full-library match list."""
        found: List[Match] = []
        seen: Set[tuple] = set()
        observing = OBS.enabled
        if observing:
            OBS.metrics.counter("match.calls").inc()
            OBS.metrics.counter("match.patterns_tried").inc(len(candidates))
        for pattern in candidates:
            for binding, covered in _match_pattern(pattern.root, snode):
                if len(binding) != pattern.cell.num_inputs:
                    continue
                if not _binding_is_injective(binding):
                    continue
                # A leaf may not also be an interior node of the match.
                if any(node in covered for node in binding.values()):
                    continue
                if self.tree_mode and not _within_tree(snode, covered):
                    continue
                inputs = tuple(
                    binding[i] for i in range(pattern.cell.num_inputs)
                )
                key = (pattern.cell.name, tuple(n.uid for n in inputs),
                       tuple(sorted(n.uid for n in covered)))
                if key in seen:
                    continue
                seen.add(key)
                found.append(Match(pattern, snode, inputs, frozenset(covered)))
        if observing:
            OBS.metrics.counter("match.found").inc(len(found))
        return found

    def all_matches(self, graph: SubjectGraph) -> Dict[int, List[Match]]:
        """Matches for every gate node, keyed by subject node uid."""
        return {
            node.uid: self.matches_at(node)
            for node in graph.nodes
            if node.is_gate
        }


def _within_tree(root: SubjectNode, covered: FrozenSet[SubjectNode]) -> bool:
    """Tree-mode legality: no covered non-root node may be a stem."""
    for node in covered:
        if node is root:
            continue
        if node.num_fanouts != 1:
            return False
    return True


def find_matches(
    snode: SubjectNode, patterns: PatternSet, tree_mode: bool = False
) -> List[Match]:
    """Convenience wrapper: all matches rooted at one subject node."""
    return Matcher(patterns, tree_mode).matches_at(snode)
