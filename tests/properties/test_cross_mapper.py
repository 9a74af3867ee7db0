"""Differential cross-mapper fleet: tree covering vs cut covering.

The tree mapper (:mod:`repro.map.mis`) and the cut mapper
(:mod:`repro.map.cuts`) take completely different routes to a cover —
pattern matching on a decomposition vs priority-cut enumeration with
NPN boolean matching — so agreement between them is strong evidence for
both.  Five families:

* **suite differential** — every Table 1/2 circuit, tree- and cut-mapped
  in area mode: both covers are functionally equivalent to each other
  (``repro.verify`` equivalence), the cut cover passes the full fast
  audit, and the area ratio sits in the measured sanity band;
* **synth differential** — Rent's-rule ``synth:SEED:GATES`` circuits
  (seeds derived from the session seed) with the same equivalence and a
  tighter area band (large homogeneous netlists: the backends land
  within a few percent of each other);
* **delay differential** — delay-mode covers on the suite: cut-cover
  arrival vs tree-cover arrival stays in the measured band;
* **fusion floor** — the fused cover's area (or worst arrival) is the
  better of the two backends' (the fusion acceptance bound);
* **random fleet** — derived random circuits: cut covers audit clean,
  remapping is bit-identical, and cut area never exceeds the tree
  cover's by more than the fleet band.

Sanity bands (measured on this repo's library, 2026-08):

=============  ==================  ===============
family         measured ratio      asserted band
=============  ==================  ===============
suite area     0.82 .. 1.12        0.70 .. 1.30
synth area     0.99 .. 1.04        0.80 .. 1.25
suite delay    0.53 .. 1.24        0.40 .. 1.45
fleet area     0.15 .. 1.18        <= 1.50
=============  ==================  ===============

Every randomized case derives from the session seed; a red case names
the ``REPRO_TEST_SEED`` to replay with.
"""

from __future__ import annotations

import os

import pytest

from repro.circuits.suite import (
    TABLE1_CIRCUITS,
    TABLE2_CIRCUITS,
    build_circuit,
)
from repro.map.cuts import (
    CutMapper,
    CutMapResult,
    FusionMapper,
    worst_arrival,
)
from repro.map.blif_io import write_mapped_blif
from repro.map.mis import MisAreaMapper, MisDelayMapper
from repro.network.decompose import decompose_to_subject
from repro.timing.sta import analyze
from repro.verify import EquivBudget, audit_mapping, check_equivalence

pytestmark = [pytest.mark.property, pytest.mark.slow]

#: The session seed, read directly (as the other fleet files do) so the
#: parametrized synth specs are fixed at collection time.
TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "19910611"))

#: All Table 1/2 circuits, deduplicated, in stable order.
SUITE_CIRCUITS = sorted(set(TABLE1_CIRCUITS) | set(TABLE2_CIRCUITS))

#: Rent's-rule workloads for the synth differential family.  The seed
#: derives from the session seed so ``REPRO_TEST_SEED`` replays the
#: exact circuits; sizes span half a decade.
SYNTH_SPECS = [
    f"synth:{(TEST_SEED + i) % 100000}:{gates}"
    for i, gates in enumerate((300, 800, 1500))
]

#: Sanity bands (see module docstring for the measured ranges).
SUITE_AREA_BAND = (0.70, 1.30)
SYNTH_AREA_BAND = (0.80, 1.25)
SUITE_DELAY_BAND = (0.40, 1.45)
FLEET_AREA_CEILING = 1.50

#: Random-fleet case count.
FLEET_CASES = 25

#: Circuits for the (slower) fusion-floor family: small, medium, and
#: the Table 2 headline circuit.
FUSION_CIRCUITS = ["misex1", "b9", "apex7", "C880"]


def _map_pair(net, library, mode):
    """(tree MapResult, cut CutMapResult) for one circuit and mode."""
    tree_cls = MisAreaMapper if mode == "area" else MisDelayMapper
    tree = tree_cls(library).map(decompose_to_subject(net))
    cuts = CutMapper(library, mode=mode).map(decompose_to_subject(net))
    return tree, cuts


def _assert_cross_equivalent(tree, cuts, label):
    """The two covers realise the same function (fast equiv budget)."""
    checks = check_equivalence(
        tree.mapped, cuts.mapped, EquivBudget.for_level("fast"),
        name="equiv.tree_vs_cuts")
    bad = [str(c) for c in checks if not c.passed]
    assert not bad, f"{label}: tree and cut covers disagree: {bad}"


@pytest.mark.parametrize("circuit", SUITE_CIRCUITS)
def test_suite_tree_vs_cuts_area_differential(circuit, fleet_library):
    net = build_circuit(circuit)
    tree, cuts = _map_pair(net, fleet_library, "area")
    report = audit_mapping(cuts, net=net, level="fast")
    assert report.passed, (
        f"{circuit}: cut cover failed audit: "
        f"{[str(c) for c in report.failures]}")
    _assert_cross_equivalent(tree, cuts, circuit)
    ratio = (cuts.mapped.total_cell_area()
             / tree.mapped.total_cell_area())
    lo, hi = SUITE_AREA_BAND
    assert lo <= ratio <= hi, (
        f"{circuit}: cuts/tree area ratio {ratio:.3f} outside the "
        f"measured sanity band [{lo}, {hi}] — a real QoR regression "
        f"in one backend, not noise")


@pytest.mark.parametrize("spec", SYNTH_SPECS)
def test_synth_tree_vs_cuts_area_differential(spec, fleet_library):
    net = build_circuit(spec)
    tree, cuts = _map_pair(net, fleet_library, "area")
    _assert_cross_equivalent(tree, cuts, spec)
    ratio = (cuts.mapped.total_cell_area()
             / tree.mapped.total_cell_area())
    lo, hi = SYNTH_AREA_BAND
    assert lo <= ratio <= hi, (
        f"{spec}: cuts/tree area ratio {ratio:.3f} outside [{lo}, {hi}] "
        f"[replay: REPRO_TEST_SEED={TEST_SEED}]")


@pytest.mark.parametrize("circuit", SUITE_CIRCUITS)
def test_suite_tree_vs_cuts_delay_differential(circuit, fleet_library):
    net = build_circuit(circuit)
    tree, cuts = _map_pair(net, fleet_library, "timing")
    _assert_cross_equivalent(tree, cuts, circuit)
    tree_arrival = analyze(tree.mapped, wire_model=None).critical_delay
    cut_arrival = analyze(cuts.mapped, wire_model=None).critical_delay
    if tree_arrival <= 0.05:
        return  # degenerate near-constant cone; ratio is meaningless
    ratio = cut_arrival / tree_arrival
    lo, hi = SUITE_DELAY_BAND
    assert lo <= ratio <= hi, (
        f"{circuit}: cuts/tree arrival ratio {ratio:.3f} outside the "
        f"measured sanity band [{lo}, {hi}]")


@pytest.mark.parametrize("mode", ["area", "timing"])
@pytest.mark.parametrize("circuit", FUSION_CIRCUITS)
def test_fusion_floor_whole_netlist(circuit, mode, fleet_library):
    """The fusion acceptance bound: the fused cover's area (area mode) or
    worst output arrival (timing mode) equals the better backend's, and
    the fused netlist passes the fast audit — including the cut-cover
    re-derivation whenever the cut backend wins."""
    net = build_circuit(circuit)
    tree, cuts = _map_pair(net, fleet_library, mode)
    result = FusionMapper(fleet_library, mode=mode).map(
        decompose_to_subject(net))
    report = audit_mapping(result, net=net, level="fast")
    assert report.passed, (
        f"{circuit}/{mode}: fused cover failed audit: "
        f"{[str(c) for c in report.failures]}")
    if isinstance(result, CutMapResult):
        assert "invariant.map.cut_cover" in {c.name for c in report.checks}
    if mode == "area":
        assert result.cell_area == min(tree.cell_area, cuts.cell_area), (
            f"{circuit}: fused area {result.cell_area} is not "
            f"min(tree={tree.cell_area}, cuts={cuts.cell_area})")
    else:
        floor = min(worst_arrival(tree), worst_arrival(cuts))
        assert worst_arrival(result) <= floor, (
            f"{circuit}: fused worst arrival {worst_arrival(result)} "
            f"exceeds the better backend's {floor}")


@pytest.mark.parametrize("case", range(FLEET_CASES))
def test_fleet_tree_vs_cuts_differential(case, fleet_case, fleet_library,
                                         replay_hint):
    net, _ = fleet_case("xmap", case)
    hint = replay_hint("xmap", case)
    tree, cuts = _map_pair(net, fleet_library, "area")
    report = audit_mapping(cuts, net=net, level="fast")
    assert report.passed, (
        f"cut cover failed audit on {net.name}: "
        f"{[str(c) for c in report.failures]} {hint}")
    _assert_cross_equivalent(tree, cuts, f"{net.name} {hint}")
    tree_area = tree.mapped.total_cell_area()
    if tree_area:
        ratio = cuts.mapped.total_cell_area() / tree_area
        assert ratio <= FLEET_AREA_CEILING, (
            f"cuts/tree area ratio {ratio:.3f} above the fleet ceiling "
            f"{FLEET_AREA_CEILING} {hint}")
    # Remapping the same circuit is bit-identical (determinism).
    again = CutMapper(fleet_library, mode="area").map(
        decompose_to_subject(net))
    assert write_mapped_blif(again.mapped) == \
        write_mapped_blif(cuts.mapped), f"non-deterministic cover {hint}"


@pytest.mark.parametrize("circuit", ["misex1", "b9"])
def test_lut_mode_covers_suite_circuits(circuit, fleet_library):
    """FPGA-style LUT covering stays functionally faithful on real
    circuits, with every gate a generated LUT of width ≤ 4."""
    net = build_circuit(circuit)
    result = CutMapper(fleet_library, lut_k=4).map(
        decompose_to_subject(net))
    report = audit_mapping(result, net=net, level="fast")
    assert report.passed, (
        f"{circuit}: LUT cover failed audit: "
        f"{[str(c) for c in report.failures]}")
    assert all(g.cell.name.startswith("lut")
               for g in result.mapped.gates)
