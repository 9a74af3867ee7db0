"""Pattern index: pruning must never drop a matching pattern."""

from __future__ import annotations

import pytest

from repro.library.patterns import pattern_set_for
from repro.match.treematch import _KIND_FOR_TYPE, Matcher
from repro.network.decompose import decompose_to_subject
from repro.perf.memomatch import MemoMatcher
from repro.perf.patindex import PatternIndex, interior_height


@pytest.fixture(scope="module")
def patterns(request):
    from repro.library.standard import big_library

    return pattern_set_for(big_library())


def test_candidates_are_an_ordered_subset(patterns, small_network):
    subject = decompose_to_subject(small_network)
    index = PatternIndex(patterns)
    matcher = MemoMatcher(patterns)
    for node in subject.nodes:
        kind = _KIND_FOR_TYPE.get(node.type)
        if kind is None:
            continue
        full = patterns.rooted_at(kind)
        candidates = index.candidates(node, matcher._gate_height(node))
        positions = [full.index(p) for p in candidates]
        assert positions == sorted(positions)  # order preserved
        assert len(set(positions)) == len(positions)


def test_pruned_patterns_never_matched(patterns, small_network):
    """The naive matcher's results survive the index's pruning intact."""
    subject = decompose_to_subject(small_network)
    naive = Matcher(patterns)
    pruned = MemoMatcher(patterns)
    checked = 0
    for node in subject.nodes:
        if not node.is_gate:
            continue
        a = [(m.pattern, m.inputs, m.covered) for m in naive.matches_at(node)]
        b = [(m.pattern, m.inputs, m.covered) for m in pruned.matches_at(node)]
        assert a == b
        checked += 1
    assert checked > 0


def test_interior_height_of_single_node_pattern(patterns):
    # Every pattern's interior height is at most its depth, and a bare
    # root (e.g. the nand2/inv1 cell patterns) has height 1.
    for p in patterns.patterns:
        h = interior_height(p.root)
        assert 1 <= h <= max(1, p.root.depth())


def test_index_prunes_something(patterns, small_network):
    """On a real circuit the index must actually cut the candidate list
    somewhere, otherwise it is dead weight."""
    subject = decompose_to_subject(small_network)
    index = PatternIndex(patterns)
    matcher = MemoMatcher(patterns)
    saved = 0
    for node in subject.nodes:
        kind = _KIND_FOR_TYPE.get(node.type)
        if kind is None:
            continue
        full = patterns.rooted_at(kind)
        saved += len(full) - len(
            index.candidates(node, matcher._gate_height(node))
        )
    assert saved > 0
