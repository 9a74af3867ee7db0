"""Unit and oracle tests for the cut-based covering backend.

Five families:

* **enumeration oracle** — on random ≤12-gate DAGs, a brute-force
  (unbounded) k-feasible cut enumeration is the ground truth: the
  priority-cut set must be a subset, must retain the direct-fanin
  fallback cut and the best cut under the priority order, and with an
  unbounded budget must equal the full set exactly;
* **NPN table** — every binding stored in the match table realises
  exactly the function it is filed under (``realized_bits`` round-trip),
  and LUT cells synthesise their defining truth table;
* **covering** — area/timing/LUT covers of the shared small circuit pass
  the fast audit (including the cut-cover invariant), fusion is never
  worse than either backend, and mapper specs parse/reject
  with the pinned messages;
* **per-run cut records** — the mapper derives each (node, cut)
  function once per run and reuses it in every cone; a reference mapper
  that re-derives every cut in every cone from scratch (a ``TruthTable``
  composed gate by gate) yields the identical cover, netlist and
  ``cut.states_expanded`` count, and cones deeper than the recursion
  limit map and audit;
* **determinism** — two *separate interpreter processes* with different
  hash seeds produce bit-identical covers.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import subprocess
import sys

import pytest

import repro.map.cuts as cuts_module
from repro.circuits.suite import build_circuit
from repro.map.base import NoMatchError
from repro.map.blif_io import write_mapped_blif
from repro.map.cuts import (
    CutError,
    CutMapper,
    CutMapResult,
    CutSolution,
    FusionMapper,
    MapperSpec,
    MapperSpecError,
    NpnBinding,
    _cut_priority,
    enumerate_priority_cuts,
    lut_cell,
    match_table_for,
    parse_mapper_spec,
    worst_arrival,
)
from repro.map.mis import MisAreaMapper, MisDelayMapper
from repro.match.boolmatch import cut_cone, cut_function
from repro.network.decompose import decompose_to_subject
from repro.network.logic import TruthTable
from repro.network.subject import SubjectGraph, SubjectNodeType
from repro.obs import OBS
from repro.verify import audit_mapping
from repro.verify.invariants import check_cut_cover

#: Cut width used throughout the oracle tests.
ORACLE_K = 4
#: Random-DAG shape for the oracle family (the brute-force enumeration
#: is exponential in cut count, so stay small).
ORACLE_INPUTS = 4
ORACLE_GATES = 12
ORACLE_CASES = 20


# -- random DAGs and the brute-force oracle -----------------------------------


def _random_subject(rng, num_inputs=ORACLE_INPUTS, num_gates=ORACLE_GATES):
    """A random NAND/INV subject DAG with every sink node made an output."""
    g = SubjectGraph("oracle_dag")
    pis = [g.add_primary_input(f"i{j}") for j in range(num_inputs)]
    pool = list(pis)
    tries = 0
    while len(g.gates) < num_gates and tries < 20 * num_gates:
        tries += 1
        if rng.random() < 0.3:
            node = g.inv(rng.choice(pool))
        else:
            node = g.nand(rng.choice(pool), rng.choice(pool))
        pool.append(node)
    for idx, node in enumerate(list(g.gates)):
        if not node.fanouts:
            g.add_primary_output(f"o{idx}", node)
    return g


def _all_k_feasible_cuts(graph, k):
    """Ground truth: *every* non-trivial k-feasible cut, per gate uid.

    Textbook bottom-up definition with no pruning and no ordering: a cut
    of a node is the union of one cut (possibly trivial) per fanin,
    feasible when it has at most ``k`` leaves.
    """
    with_trivial = {}
    result = {}
    for node in graph.topological_order():
        if node.is_po:
            continue
        if not node.is_gate:
            with_trivial[node.uid] = {frozenset([node])}
            continue
        merged = set()
        fanin_sets = [with_trivial[f.uid] for f in node.fanins]
        for combo in itertools.product(*fanin_sets):
            union = frozenset().union(*combo)
            if len(union) <= k:
                merged.add(union)
        result[node.uid] = merged
        with_trivial[node.uid] = merged | {frozenset([node])}
    return result


@pytest.mark.parametrize("case", range(ORACLE_CASES))
def test_priority_cuts_against_brute_force_oracle(case, seeded_rng):
    """Subset + fallback + best-cut retention, against the full set."""
    graph = _random_subject(seeded_rng("cuts-oracle", case))
    full = _all_k_feasible_cuts(graph, ORACLE_K)
    # Bound 3 forces real pruning (full sets reach dozens of cuts here).
    pruned = enumerate_priority_cuts(graph, ORACLE_K, cuts_per_node=3)
    for node in graph.gates:
        cuts = pruned[node.uid]
        cut_sets = [frozenset(c) for c in cuts]
        full_set = full[node.uid]
        assert set(cut_sets) <= full_set, (
            f"{node.name}: pruned enumeration invented a cut "
            f"not in the brute-force set (case {case})")
        assert len(set(cut_sets)) == len(cut_sets), (
            f"{node.name}: duplicate cuts in priority set")
        direct = frozenset(node.fanins)
        if len(direct) <= ORACLE_K:
            assert direct in cut_sets, (
                f"{node.name}: direct-fanin fallback cut was pruned away")
        best = min(full_set, key=_cut_priority)
        assert best in cut_sets, (
            f"{node.name}: best-priority cut {sorted(n.name for n in best)} "
            f"lost to pruning (case {case})")


@pytest.mark.parametrize("case", range(ORACLE_CASES))
def test_unbounded_priority_cuts_equal_full_set(case, seeded_rng):
    """With an unbounded budget the enumeration is *complete*."""
    graph = _random_subject(seeded_rng("cuts-complete", case))
    full = _all_k_feasible_cuts(graph, ORACLE_K)
    unbounded = enumerate_priority_cuts(
        graph, ORACLE_K, cuts_per_node=10 ** 6)
    for node in graph.gates:
        got = {frozenset(c) for c in unbounded[node.uid]}
        assert got == full[node.uid], f"{node.name} (case {case})"
        # And the returned order is exactly the priority order.
        keys = [_cut_priority(frozenset(c)) for c in unbounded[node.uid]]
        assert keys == sorted(keys), f"{node.name}: cuts out of order"


def test_cut_tuples_are_uid_sorted(seeded_rng):
    graph = _random_subject(seeded_rng("cuts-sorted"))
    for cuts in enumerate_priority_cuts(graph, ORACLE_K).values():
        for cut in cuts:
            uids = [n.uid for n in cut]
            assert uids == sorted(uids)


def test_cyclic_subject_graph_raises_cut_error():
    """A cycle dies with a contextual :class:`CutError`, never a hang."""
    g = SubjectGraph("cyclic")
    a = g.add_primary_input("a")
    b = g.add_primary_input("b")
    n1 = g.nand(a, b)
    n2 = g.nand(n1, a)
    g.add_primary_output("o", n2)
    # Introduce the cycle behind the builder's back: n1 now reads n2.
    n1.fanins[1] = n2
    n2.fanouts.append(n1)
    with pytest.raises(CutError, match="cyclic subject graph"):
        enumerate_priority_cuts(g, ORACLE_K)


def test_nonpositive_cut_width_rejected():
    g = SubjectGraph("empty")
    with pytest.raises(CutError, match="cut width must be positive"):
        enumerate_priority_cuts(g, 0)


# -- NPN match table and LUT cells --------------------------------------------


def test_npn_table_bindings_realize_their_key(tiny_lib):
    """Every stored binding's realised function is the function it's
    filed under — the core soundness of the expansion table."""
    table = match_table_for(tiny_lib, 3)
    assert len(table) > 0
    for (n, bits), bindings in table._table.items():
        for binding in bindings:
            assert binding.cell.num_inputs == n
            assert binding.realized_bits() == bits, (
                f"{binding.cell.name} filed under {bits:#x} realises "
                f"{binding.realized_bits():#x}")


def test_npn_table_binding_lists_sorted_by_area(big_lib):
    table = match_table_for(big_lib, 4)
    for bindings in table._table.values():
        keys = [(b.cell.area, b.cell.name) for b in bindings]
        assert keys == sorted(keys)


def test_npn_table_covers_base_functions(big_lib):
    """NAND2 and INV functions must be matchable — they are the fallback
    that makes the direct-fanin cut always coverable."""
    table = match_table_for(big_lib, 4)
    nand2 = TruthTable(2, 0b0111)
    inv = TruthTable(1, 0b01)
    assert table.lookup(nand2), "no binding for NAND2"
    assert table.lookup(inv), "no binding for INV"


def test_match_table_is_memoised(big_lib):
    assert match_table_for(big_lib, 4) is match_table_for(big_lib, 4)


@pytest.mark.parametrize("case", range(12))
def test_lut_cell_synthesises_its_truth_table(case, seeded_rng):
    rng = seeded_rng("lut-cell", case)
    n = rng.randint(2, 4)
    # Draw until the function depends on every input (the mapper only
    # requests full-support functions, post support-shrink).
    while True:
        bits = rng.randrange(1 << (1 << n))
        tt = TruthTable(n, bits)
        if len(tt.support()) == n:
            break
    cell = lut_cell(n, bits)
    assert cell.truth_table.bits == bits
    assert cell.num_inputs == n
    assert cell.name == f"lut{n}_{bits:x}"
    assert lut_cell(n, bits) is cell  # cached


# -- mapper spec parsing ------------------------------------------------------


def test_parse_mapper_spec_round_trips():
    assert parse_mapper_spec("tree") == MapperSpec("tree")
    assert parse_mapper_spec("cuts") == MapperSpec("cuts")
    assert parse_mapper_spec(" fusion ") == MapperSpec("fusion")
    spec = parse_mapper_spec("lut:4")
    assert spec == MapperSpec("lut", 4)
    assert spec.canonical == "lut:4"
    assert parse_mapper_spec(spec.canonical) == spec


@pytest.mark.parametrize("bad, message", [
    ("lut", "mapper 'lut': lut mode needs a width, e.g. 'lut:4'"),
    ("lut:", "mapper 'lut:': lut mode needs a width, e.g. 'lut:4'"),
    ("lut:x", "mapper 'lut:x': lut width 'x' is not an integer"),
    ("lut:1", "mapper 'lut:1': lut width must be in 2..6, got 1"),
    ("lut:9", "mapper 'lut:9': lut width must be in 2..6, got 9"),
    ("dag", "unknown mapper: 'dag' (expected tree|cuts|fusion|lut:K)"),
    ("", "unknown mapper: '' (expected tree|cuts|fusion|lut:K)"),
])
def test_parse_mapper_spec_pins_error_messages(bad, message):
    with pytest.raises(MapperSpecError) as info:
        parse_mapper_spec(bad)
    assert str(info.value) == message


def test_parse_mapper_spec_rejects_non_strings():
    with pytest.raises(MapperSpecError, match="must be a string"):
        parse_mapper_spec(4)


# -- covering -----------------------------------------------------------------


def _check_names(report):
    return {c.name for c in report.checks}


def test_cut_cover_area_mode_passes_fast_audit(small_network, big_lib):
    result = CutMapper(big_lib, mode="area").map(
        decompose_to_subject(small_network))
    assert result.cut_cover, "cut mapper committed no cover records"
    report = audit_mapping(result, net=small_network, level="fast")
    assert report.passed, [str(c) for c in report.failures]
    assert "invariant.map.cut_cover" in _check_names(report), (
        "the cut-cover invariant never ran")


def test_cut_cover_timing_mode_passes_fast_audit(small_network, big_lib):
    result = CutMapper(big_lib, mode="timing").map(
        decompose_to_subject(small_network))
    report = audit_mapping(result, net=small_network, level="fast")
    assert report.passed, [str(c) for c in report.failures]
    for record in result.cut_cover:
        instance = result.mapped[record.instance]
        assert instance.arrival is not None


def test_lut_mode_covers_with_generated_luts(small_network, big_lib):
    result = CutMapper(big_lib, lut_k=4).map(
        decompose_to_subject(small_network))
    report = audit_mapping(result, net=small_network, level="fast")
    assert report.passed, [str(c) for c in report.failures]
    for gate in result.mapped.gates:
        assert gate.cell.name.startswith("lut"), gate.cell.name
        assert gate.cell.num_inputs <= 4


def test_lut_width_bounds_enforced(big_lib):
    with pytest.raises(ValueError, match="lut width must be in 2..6"):
        CutMapper(big_lib, lut_k=1)
    with pytest.raises(ValueError, match="lut width must be in 2..6"):
        CutMapper(big_lib, lut_k=7)


def test_unknown_mode_rejected(big_lib):
    with pytest.raises(ValueError, match="unknown mode"):
        CutMapper(big_lib, mode="delay")
    with pytest.raises(ValueError, match="unknown mode"):
        FusionMapper(big_lib, mode="delay")


def test_fusion_no_worse_than_either_backend(small_network, big_lib):
    """The acceptance bound: the fused cover's area (area mode) or worst
    output arrival (timing mode) is the better backend's."""
    for mode, tree_cls in (("area", MisAreaMapper),
                           ("timing", MisDelayMapper)):
        tree = tree_cls(big_lib).map(decompose_to_subject(small_network))
        cuts = CutMapper(big_lib, mode=mode).map(
            decompose_to_subject(small_network))
        result = FusionMapper(big_lib, mode=mode).map(
            decompose_to_subject(small_network))
        report = audit_mapping(result, net=small_network, level="fast")
        assert report.passed, [str(c) for c in report.failures]
        if mode == "area":
            assert result.cell_area == min(tree.cell_area, cuts.cell_area)
        else:
            assert worst_arrival(result) <= min(worst_arrival(tree),
                                                worst_arrival(cuts))


def test_fusion_returns_the_winning_result_unchanged(small_network,
                                                     big_lib):
    """Fusion hands back one backend's whole result: a cut win keeps its
    cover records (and so its cut-cover audit); a tie goes to the tree."""
    result = FusionMapper(big_lib, mode="area").map(
        decompose_to_subject(small_network))
    if isinstance(result, CutMapResult):
        standalone = CutMapper(big_lib, mode="area").map(
            decompose_to_subject(small_network))
        assert result.cut_cover
    else:
        standalone = MisAreaMapper(big_lib).map(
            decompose_to_subject(small_network))
    assert write_mapped_blif(result.mapped) == \
        write_mapped_blif(standalone.mapped)
    # A wire-only circuit costs nothing under either backend: the tie
    # goes to the tree cover.
    wire = SubjectGraph("wire")
    wire.add_primary_output("f", wire.add_primary_input("a"))
    for mode in ("area", "timing"):
        tied = FusionMapper(big_lib, mode=mode).map(wire)
        assert not isinstance(tied, CutMapResult)


# -- per-run cut records against the per-call reference ------------------------


def _reference_cut_function(root, leaves):
    """A cut's function composed as :class:`TruthTable` objects, one per
    cone gate, over the :func:`cut_cone` interior."""
    interior = cut_cone(root, leaves)
    if interior is None:
        return None
    n = len(leaves)
    values = {leaf.uid: TruthTable.variable(i, n)
              for i, leaf in enumerate(leaves)}
    for node in interior:
        fanins = [values[f.uid] for f in node.fanins]
        if node.type is SubjectNodeType.INV:
            values[node.uid] = ~fanins[0]
        else:
            values[node.uid] = fanins[0].nand(fanins[1])
    return values[root.uid]


class _PerCallCutMapper(CutMapper):
    """The covering DP without per-run records: every cone re-derives the
    function, interior, support and bindings of every cut it visits, and
    compares candidates by one full key tuple."""

    def _solve_cone(self, root):
        for node in self._cone_topological(root):
            if self.lifecycle.is_hawk(node):
                continue
            self.lifecycle.visit(node)
            best = None
            for leaves in self._cuts.get(node.uid, ()):
                candidate = self._best_at_cut(node, leaves)
                if candidate is not None and (
                        best is None or candidate[0] < best[0]):
                    best = candidate
            if best is None:
                raise NoMatchError(f"no cut match at {node.name}")
            self.memo[node.uid] = best[1]

    def _best_at_cut(self, node, leaves):
        tt = _reference_cut_function(node, leaves)
        if tt is None or len(tt.support()) != len(leaves):
            return None
        if cut_cone(node, leaves) is None:
            return None
        if self.lut_k is not None:
            n = len(leaves)
            bindings = [NpnBinding(lut_cell(n, tt.bits), tuple(range(n)),
                                   tuple([False] * n), False)]
        else:
            bindings = self.table.lookup(tt)
        leaf_solutions = [self._solution_of(leaf) for leaf in leaves]
        if OBS.enabled:
            OBS.metrics.counter("cut.states_expanded").inc(len(bindings))
        inverter_area = self.inverter.area if self.inverter else 0.0
        best = None
        for binding in bindings:
            impl_area = binding.cell.area + \
                inverter_area * binding.inverter_count()
            area = impl_area + sum(s.area for s in leaf_solutions)
            if self.mode == "area":
                cost = impl_area + sum(s.cost for s in leaf_solutions)
                arrival = 0.0
            else:
                cost = arrival = self._estimated_arrival(
                    binding, self._estimated_load(node), leaf_solutions)
            key = (cost, area, binding.cell.name,
                   tuple(n.uid for n in leaves), binding.pin_negated,
                   binding.output_negated)
            if best is None or key < best[0]:
                best = (key, CutSolution(node, leaves, binding, cost,
                                         area=area, arrival=arrival))
        return best


#: The ``synth_cuts`` benchmark circuits plus three suite circuits.
RECORD_ORACLE_CIRCUITS = ("synth:19910611:100", "synth:19910612:100",
                          "synth:19910613:100", "misex1", "b9", "9symml")
RECORD_ORACLE_CONFIGS = [(mode, lut_k) for mode in ("area", "timing")
                         for lut_k in (None, 4)]


def _mapped_with_states(mapper, subject):
    OBS.enable(reset=True)
    try:
        result = mapper.map(subject)
        states = OBS.metrics.snapshot_counters().get("cut.states_expanded")
    finally:
        OBS.disable()
    return result, states


@pytest.fixture(scope="module")
def record_oracle_subjects():
    return {name: decompose_to_subject(build_circuit(name))
            for name in RECORD_ORACLE_CIRCUITS}


@pytest.mark.parametrize("circuit", RECORD_ORACLE_CIRCUITS)
def test_cut_records_match_per_call_reference(circuit, big_lib,
                                              record_oracle_subjects):
    """Reusing each cut's function and bindings across cones changes
    nothing: same cover records, area, BLIF and expanded states."""
    subject = record_oracle_subjects[circuit]
    for mode, lut_k in RECORD_ORACLE_CONFIGS:
        got, got_states = _mapped_with_states(
            CutMapper(big_lib, mode=mode, lut_k=lut_k), subject)
        want, want_states = _mapped_with_states(
            _PerCallCutMapper(big_lib, mode=mode, lut_k=lut_k), subject)
        config = f"{circuit} {mode} lut_k={lut_k}"
        assert got.cut_cover == want.cut_cover, config
        assert got.cell_area == want.cell_area, config
        assert write_mapped_blif(got.mapped) == \
            write_mapped_blif(want.mapped), config
        assert got_states == want_states and got_states, config


@pytest.mark.parametrize("circuit", RECORD_ORACLE_CIRCUITS[:4])
def test_cut_function_matches_truth_table_composition(
        circuit, record_oracle_subjects):
    """The bit-parallel :func:`cut_function` against the gate-by-gate
    ``TruthTable`` composition, on every enumerated cut."""
    subject = record_oracle_subjects[circuit]
    nodes = {node.uid: node for node in subject.nodes}
    for uid, cuts in enumerate_priority_cuts(subject, 4).items():
        for leaves in cuts:
            assert cut_function(nodes[uid], leaves) == \
                _reference_cut_function(nodes[uid], leaves)


@pytest.mark.parametrize("mode, lut_k", RECORD_ORACLE_CONFIGS)
def test_cut_function_called_once_per_pair_per_run(mode, lut_k, big_lib,
                                                   monkeypatch):
    """The mapper resolves ``repro.map.cuts.cut_function`` by name and
    calls it once per distinct (root, leaves) pair in each ``map()``."""
    calls = []

    def counting(root, leaves):
        calls.append((root.uid, tuple(leaf.uid for leaf in leaves)))
        return cut_function(root, leaves)

    monkeypatch.setattr(cuts_module, "cut_function", counting)
    subject = decompose_to_subject(build_circuit("synth:19910611:100"))
    mapper = CutMapper(big_lib, mode=mode, lut_k=lut_k)
    for _run in range(2):
        del calls[:]
        mapper.map(subject)
        assert calls, "the mapper never called cut_function"
        assert len(calls) == len(set(calls))
    # The records are per run: nothing is left to reuse afterwards.
    assert not mapper._records and not mapper._cuts


def test_cones_deeper_than_the_recursion_limit(big_lib):
    """A 1200-gate NAND chain re-reading input ``a`` keeps the cut
    ``{a, b}`` at its root; mapping, the cut-cover audit and the cone
    walk must not recurse once per cone gate."""
    depth = 1200
    g = SubjectGraph("deep_chain")
    a = g.add_primary_input("a")
    b = g.add_primary_input("b")
    node = g.nand(a, b)
    for _ in range(depth - 1):
        node = g.nand(node, a)
    g.add_primary_output("f", node)
    assert sys.getrecursionlimit() < depth
    interior = cut_cone(node, (a, b))
    assert interior is not None and len(interior) == depth
    assert interior[-1] is node
    # nand(x, a) alternates !(a*b) and !a + b; the chain has even depth.
    assert cut_function(node, (a, b)) == TruthTable(2, 0b1101)
    # Two priority cuts per node keep {a, b} (lowest uids) while bounding
    # the quadratic cost of re-walking the chain from every node.
    result = CutMapper(big_lib, cuts_per_node=2).map(g)
    assert any(record.leaves == (a.uid, b.uid) and record.root == node.uid
               for record in result.cut_cover)
    checks = check_cut_cover(g, result.mapped, result.cut_cover)
    assert all(check.passed for check in checks), checks
    report = audit_mapping(result, level="fast")
    assert report.passed, [str(c) for c in report.failures]


# -- cross-process determinism ------------------------------------------------

_DETERMINISM_SCRIPT = r"""
import hashlib, sys
from repro.circuits.suite import build_circuit
from repro.library.standard import big_library
from repro.map.blif_io import write_mapped_blif
from repro.map.cuts import CutMapper
from repro.network.decompose import decompose_to_subject

net = build_circuit(sys.argv[1])
result = CutMapper(big_library(), mode=sys.argv[2]).map(
    decompose_to_subject(net))
blob = write_mapped_blif(result.mapped) + "\n" + "\n".join(
    repr(r) for r in result.cut_cover)
print(hashlib.sha256(blob.encode()).hexdigest())
"""


@pytest.mark.parametrize("mode", ["area", "timing"])
def test_cut_cover_bit_stable_across_processes(mode, small_network, big_lib):
    """Two fresh interpreters with *different* hash seeds produce the
    same cover, byte for byte — nothing leans on set/dict hash order."""
    digests = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in sys.path if p) or env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT, "misex1", mode],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1], (
        f"cover differs across processes: {digests}")
    # And the in-process mapping agrees with itself on a repeat run.
    subject = decompose_to_subject(small_network)
    first = write_mapped_blif(
        CutMapper(big_lib, mode=mode).map(subject).mapped)
    again = write_mapped_blif(
        CutMapper(big_lib, mode=mode).map(
            decompose_to_subject(small_network)).mapped)
    assert hashlib.sha256(first.encode()).hexdigest() == \
        hashlib.sha256(again.encode()).hexdigest()
