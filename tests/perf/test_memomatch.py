"""Index-pruned matching: identical results to the naive matcher."""

from __future__ import annotations

import pytest

from repro.library.patterns import pattern_set_for
from repro.match.treematch import Matcher
from repro.network.decompose import decompose_to_subject
from repro.perf.memomatch import MemoMatcher


@pytest.fixture(scope="module")
def patterns():
    from repro.library.standard import big_library

    return pattern_set_for(big_library())


def _match_key(m):
    return (
        m.pattern.cell.name,
        id(m.pattern),
        m.root.uid,
        tuple(v.uid for v in m.inputs),
        frozenset(c.uid for c in m.covered),
    )


@pytest.mark.parametrize("tree_mode", [False, True])
def test_equals_naive_matcher(patterns, small_network, tree_mode):
    subject = decompose_to_subject(small_network)
    naive = Matcher(patterns, tree_mode=tree_mode)
    indexed = MemoMatcher(patterns, tree_mode=tree_mode)
    indexed.bind(subject)
    for node in subject.nodes:
        if not node.is_gate:
            continue
        a = [_match_key(m) for m in naive.matches_at(node)]
        b = [_match_key(m) for m in indexed.matches_at(node)]
        assert a == b  # same matches, same order


def test_default_matcher_and_injection():
    """Mappers build the indexed matcher unless a caller injects one."""
    from repro.library.standard import big_library
    from repro.map.mis import MisAreaMapper

    library = big_library()
    reference = Matcher(pattern_set_for(library))
    assert type(MisAreaMapper(library).matcher) is MemoMatcher
    assert MisAreaMapper(library, matcher=reference).matcher is reference
