"""Golden equivalence: every mapper is bit-identical to its reference.

The reference run injects the plain :class:`Matcher` (``matcher=``) in
place of the index-pruned default, and Lily's reference walks true
fanouts from scratch (:func:`true_fanouts`) instead of reading its net
cache, costing matches through :meth:`_evaluate_general`.  The DP cover
breaks cost ties by scan order, positions feed back into later cones,
and the final netlist hashes all of it together — so the fingerprints
below (cells, fanins, exact positions, exact arrivals, exact solution
costs) catch any divergence, not just large ones.  The layout kernels
are held by the ``invariant.perf.vec`` audit.
"""

from __future__ import annotations

import pytest

from repro.circuits.suite import build_circuit
from repro.core.lily import LilyAreaMapper, LilyDelayMapper
from repro.core.rectangles import true_fanouts
from repro.library.patterns import pattern_set_for
from repro.map.mis import MisAreaMapper, MisDelayMapper
from repro.match.treematch import Matcher
from repro.network.decompose import decompose_to_subject
from repro.perf import PerfOptions

CIRCUITS = ["misex1", "b9", "apex7"]

VARIANTS = {
    "default": PerfOptions(),
    "parallel": PerfOptions().with_jobs(2),
}


class _UncachedNets:
    """Lily reading true fanouts from scratch instead of its net cache."""

    def _true_fanouts(self, node):
        return true_fanouts(node, self.lifecycle)


class _ReferenceLilyArea(_UncachedNets, LilyAreaMapper):
    def evaluate_match(self, node, match, inputs):
        return self._evaluate_general(node, match, inputs)


class _ReferenceLilyDelay(_UncachedNets, LilyDelayMapper):
    pass


_REFERENCE_CLASS = {
    LilyAreaMapper: _ReferenceLilyArea,
    LilyDelayMapper: _ReferenceLilyDelay,
}


def _reference(cls, library, subject):
    """Fingerprint of ``cls``'s reference mapping ``subject``: the plain
    matcher and, for Lily, uncached true fanouts and the general cost."""
    matcher = Matcher(pattern_set_for(library))
    reference = _REFERENCE_CLASS.get(cls, cls)
    return _fingerprint(reference(library, matcher=matcher).map(subject))


def _fingerprint(result):
    rows = []
    for g in sorted(result.mapped.gates, key=lambda g: g.name):
        pos = g.position
        rows.append(
            (
                g.name,
                g.cell.name,
                tuple(f.name for f in g.fanins),
                None if pos is None else (pos.x, pos.y),
                g.arrival,
            )
        )
    total_area = sum(g.cell.area for g in result.mapped.gates)
    return tuple(rows), total_area, tuple(result.cone_order)


@pytest.fixture(scope="module")
def subjects():
    return {
        name: decompose_to_subject(build_circuit(name)) for name in CIRCUITS
    }


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_lily_area_all_variants(subjects, big_lib, circuit):
    subject = subjects[circuit]
    golden = _reference(LilyAreaMapper, big_lib, subject)
    for name, perf in VARIANTS.items():
        fp = _fingerprint(LilyAreaMapper(big_lib, perf=perf).map(subject))
        assert fp == golden, f"{circuit}/{name} diverged from the reference"


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_mis_area_fast_vs_naive(subjects, big_lib, circuit):
    subject = subjects[circuit]
    golden = _reference(MisAreaMapper, big_lib, subject)
    fast = _fingerprint(MisAreaMapper(big_lib).map(subject))
    assert fast == golden


def test_delay_mappers_fast_vs_naive(subjects, big_lib):
    subject = subjects["misex1"]
    for cls in (LilyDelayMapper, MisDelayMapper):
        golden = _reference(cls, big_lib, subject)
        for name, perf in VARIANTS.items():
            fp = _fingerprint(cls(big_lib, perf=perf).map(subject))
            assert fp == golden, f"{cls.__name__}/{name} diverged"


@pytest.mark.parametrize("circuit", CIRCUITS)
def test_fast_audit_of_fast_path_results(subjects, big_lib, circuit):
    """Fast-path results don't just match the naive fingerprint — they
    also pass the full fast-tier ``repro.verify`` audit (structural
    invariants + source↔mapped equivalence), so perf work inherits the
    checkers automatically."""
    from repro.verify import audit_mapping

    net = build_circuit(circuit)
    for cls in (LilyAreaMapper, MisAreaMapper):
        result = cls(big_lib).map(subjects[circuit])
        report = audit_mapping(result, net=net, level="fast")
        report.raise_on_failure()
