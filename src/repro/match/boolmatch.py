"""Boolean matching by cut enumeration (the DAGON alternative).

Structural tree matching only finds a cell where the subject graph happens
to be decomposed in one of the cell's pattern shapes.  Boolean matching
sidesteps that: enumerate the k-feasible *cuts* of every subject node,
compute each cut's function, and look it up — canonical under input
permutation (P-equivalence) — in a table of library-cell functions.  Any
cone computing a library function matches, whatever its shape.

Input/output negations are deliberately not canonised away: a negated
match would need inverters the covering engine would have to synthesise;
restricting to P-equivalence keeps Boolean matches drop-in compatible
with structural :class:`~repro.match.treematch.Match` objects.
"""

from __future__ import annotations

import itertools
from typing import (Container, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.library.cell import Cell, Library
from repro.library.patterns import CellPattern, pattern_set_for
from repro.match.treematch import Match
from repro.network.logic import TruthTable, variable_bits
from repro.network.subject import SubjectGraph, SubjectNode, SubjectNodeType

__all__ = ["BooleanMatcher", "cut_function", "cut_cone"]

#: Cuts retained per node during enumeration (priority: fewer leaves).
DEFAULT_CUTS_PER_NODE = 24

_GATE_TYPES = (SubjectNodeType.NAND2, SubjectNodeType.INV)


def _cone_nodes(
    root: SubjectNode, leaf_uids: Container[int]
) -> Optional[List[SubjectNode]]:
    """Interior nodes of the cut cone in topological order (root last).

    An iterative depth-first walk from the root that stops at the leaves
    (given by uid), so cone depth is not bounded by the interpreter's
    recursion limit.  Returns ``None`` if a path from the root escapes to
    a PI/constant not in the leaf set (not a valid cut).
    """
    if root.uid in leaf_uids:
        return []
    if root.type not in _GATE_TYPES:
        return None
    order: List[SubjectNode] = []
    done: Set[int] = set()
    stack = [root]
    while stack:
        node = stack[-1]
        for fanin in node.fanins:
            uid = fanin.uid
            if uid in leaf_uids or uid in done:
                continue
            if fanin.type not in _GATE_TYPES:
                return None
            stack.append(fanin)
            break
        else:  # every fanin is a leaf or already placed
            stack.pop()
            done.add(node.uid)
            order.append(node)
    return order


def cut_cone(
    root: SubjectNode, leaves: Iterable[SubjectNode]
) -> Optional[List[SubjectNode]]:
    """Interior of the cut ``(root, leaves)``: gates in topological order.

    The cut mapper (:mod:`repro.map.cuts`) walks it to turn a committed
    cut's interior into doves, and the Boolean matcher to fill a match's
    covered set; both share :func:`cut_function`'s definition of a cone.
    """
    return _cone_nodes(root, {leaf.uid for leaf in leaves})


def cut_function(
    root: SubjectNode, leaves: Sequence[SubjectNode]
) -> Optional[TruthTable]:
    """Truth table of ``root`` over the ordered cut leaves.

    Leaf ``i`` is variable ``i``.  Every cone gate is evaluated on all
    ``2**len(leaves)`` minterms at once, as one plain int, in one pass
    over :func:`_cone_nodes`; only the result becomes a
    :class:`TruthTable`.  Returns ``None`` if ``leaves`` is not a cut of
    ``root``.
    """
    n = len(leaves)
    values: Dict[int, int] = {
        leaf.uid: variable_bits(i, n) for i, leaf in enumerate(leaves)
    }
    cone = _cone_nodes(root, values)
    if cone is None:
        return None
    full = (1 << (1 << n)) - 1
    for node in cone:
        fanins = node.fanins
        if len(fanins) == 1:  # INV
            values[node.uid] = full ^ values[fanins[0].uid]
        else:  # NAND2
            values[node.uid] = full ^ (
                values[fanins[0].uid] & values[fanins[1].uid])
    return TruthTable(n, values[root.uid])


class BooleanMatcher:
    """Cut-based P-equivalent matching against a library.

    Drop-in alternative to the structural
    :class:`~repro.match.treematch.Matcher`: ``matches_at`` returns the
    same :class:`Match` objects, so either can drive the covering engine.
    Requires :meth:`bind` (or a first ``matches_at`` call through
    :meth:`all_matches`) against the subject graph to enumerate cuts.
    """

    def __init__(
        self,
        library: Library,
        cuts_per_node: int = DEFAULT_CUTS_PER_NODE,
        tree_mode: bool = False,
    ) -> None:
        self.library = library
        self.cuts_per_node = cuts_per_node
        self.tree_mode = tree_mode
        self.k = library.max_fanin()
        # P-canonical function -> cells computing it.
        self._cells_by_p: Dict[Tuple[int, int], List[Cell]] = {}
        for cell in library:
            key = self._p_key(cell.truth_table)
            self._cells_by_p.setdefault(key, []).append(cell)
        patterns = pattern_set_for(library)
        self._a_pattern: Dict[str, CellPattern] = {}
        for pattern in patterns.patterns:
            self._a_pattern.setdefault(pattern.cell.name, pattern)
        self._graph: Optional[SubjectGraph] = None
        self._cuts: Dict[int, List[Tuple[SubjectNode, ...]]] = {}

    @staticmethod
    def _p_key(tt: TruthTable) -> Tuple[int, int]:
        live = tt.shrink_to_support()[0]
        canonical = live.p_canonical()
        return (canonical.num_inputs, canonical.bits)

    def bind(self, graph: SubjectGraph) -> None:
        """Enumerate cuts for a subject graph (required before matching)."""
        from repro.map.cuts import enumerate_priority_cuts

        self._graph = graph
        self._cuts = enumerate_priority_cuts(graph, self.k, self.cuts_per_node)

    def matches_at(self, node: SubjectNode) -> List[Match]:
        if not node.is_gate:
            return []
        if self._graph is None:
            raise RuntimeError("BooleanMatcher.bind(graph) must run first")
        found: List[Match] = []
        seen: Set[tuple] = set()
        for leaves in self._cuts.get(node.uid, []):
            tt = cut_function(node, leaves)
            if tt is None:
                continue
            live_tt, keep = tt.shrink_to_support()
            if len(keep) != len(leaves):
                continue  # cut with vacuous leaves; a smaller cut covers it
            for cell in self._cells_by_p.get(self._p_key(live_tt), []):
                if cell.num_inputs != len(leaves):
                    continue
                perm = self._pin_assignment(cell, live_tt)
                if perm is None:
                    continue
                inputs = tuple(leaves[perm[i]] for i in range(len(leaves)))
                covered = frozenset(cut_cone(node, leaves))
                if self.tree_mode and any(
                    n is not node and n.num_fanouts != 1 for n in covered
                ):
                    continue
                key = (cell.name, tuple(n.uid for n in inputs))
                if key in seen:
                    continue
                seen.add(key)
                found.append(
                    Match(self._a_pattern[cell.name], node, inputs, covered)
                )
        return found

    def all_matches(self, graph: SubjectGraph) -> Dict[int, List[Match]]:
        self.bind(graph)
        return {
            node.uid: self.matches_at(node)
            for node in graph.nodes
            if node.is_gate
        }

    @staticmethod
    def _pin_assignment(cell: Cell, tt: TruthTable) -> Optional[Tuple[int, ...]]:
        """Permutation ``perm`` with cell(x_pin) == cut(leaf perm[pin])."""
        n = cell.num_inputs
        for perm in itertools.permutations(range(n)):
            if tt.permuted(perm) == cell.truth_table:
                # cell pin i reads leaf perm[i]... verify orientation:
                # permuted(perm): new var j reads old var perm[j], i.e.
                # cell pin j corresponds to cut leaf perm[j].
                return perm
        return None


class UnionMatcher:
    """Union of a structural and a Boolean matcher (deduplicated)."""

    def __init__(self, structural, boolean: BooleanMatcher) -> None:
        self.structural = structural
        self.boolean = boolean

    def bind(self, graph: SubjectGraph) -> None:
        self.boolean.bind(graph)

    def matches_at(self, node: SubjectNode) -> List[Match]:
        merged: Dict[tuple, Match] = {}
        for match in self.structural.matches_at(node) + \
                self.boolean.matches_at(node):
            key = (match.cell.name, tuple(n.uid for n in match.inputs),
                   tuple(sorted(n.uid for n in match.covered)))
            merged.setdefault(key, match)
        return list(merged.values())
