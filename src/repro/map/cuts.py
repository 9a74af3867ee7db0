"""Cut-based covering: the DAG-mapping alternative to tree matching.

The tree matcher behind :class:`~repro.map.base.BaseMapper` only finds a
cell where the subject graph happens to be decomposed in one of the cell's
pattern shapes.  This module implements the other classical paradigm:

1. **Priority-cut enumeration** (Kulkarni & Vrudhula) — every gate node
   gets a bounded, deterministically ordered set of k-feasible cuts
   (:func:`enumerate_priority_cuts`).  The direct-fanin cut is always
   retained so a library with an inverter and a NAND2 can cover any graph.
2. **NPN boolean matching** — each cut's function (computed with the
   :mod:`repro.match.boolmatch` truth-table machinery) is looked up in a
   precomputed expansion table of the library (:class:`NpnMatchTable`):
   for every cell up to :data:`NPN_FULL_WIDTH` inputs, *all* NPN variants
   of its function are tabulated once per library, so matching a cut is a
   single dict probe instead of a canonical-form search.  Wider cells
   (5-6 inputs) are expanded under permutation + output polarity only,
   which keeps the one-time build sub-second.  Input/output negations are
   realised by inserting library inverters at commit time (deduplicated
   per driven signal) and priced into the DP cost.
3. **DP covering** (:class:`CutMapper`) — per-cone bottom-up dynamic
   programming with the same egg/nestling/hawk/dove lifecycle, cone
   partition and :class:`~repro.map.base.MapResult` contract as the tree
   mapper, so placement, routing, STA, serve and verify run unchanged.
   ``mode="area"`` minimises cell area, ``mode="timing"`` minimises
   arrival under the MIS constant-load model of :mod:`repro.map.mis`.
4. **LUT-k mode** — ``lut_k=K`` covers with generated k-input LUT cells
   (:func:`lut_cell`) instead of library gates: the classic FPGA mapping
   workload, where every cut function is implementable and the objective
   degenerates to LUT count.
5. **Fusion** (:class:`FusionMapper`) — runs the tree mapper *and* the
   cut mapper on the same subject graph and returns the whole-netlist
   cover that is better under the selected objective, so the fused
   result is never worse than either backend.

Everything is deterministic: cuts, bindings and tie-breaks are ordered by
explicit keys, so two processes mapping the same graph produce bit-stable
covers (the differential property fleet asserts this).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.library.cell import Cell, Library, Pin, PinTiming
from repro.map.base import MapResult, NoMatchError
from repro.map.cones import logic_cones
from repro.map.lifecycle import LifecycleTracker
from repro.map.mis import (
    DEFAULT_PAD_CAP,
    DEFAULT_WIRE_CAP_PER_FANOUT,
    MisAreaMapper,
    MisDelayMapper,
    _typical_input_cap,
)
from repro.map.netlist import MappedNetwork, MappedNode
from repro.match.boolmatch import cut_cone, cut_function
from repro.network.logic import TruthTable
from repro.network.subject import SubjectGraph, SubjectNode
from repro.obs import OBS
from repro.perf.options import PerfOptions

__all__ = [
    "CutError",
    "MapperSpecError",
    "MapperSpec",
    "parse_mapper_spec",
    "enumerate_priority_cuts",
    "NpnBinding",
    "NpnMatchTable",
    "match_table_for",
    "lut_cell",
    "CutSolution",
    "CutCoverRecord",
    "CutMapResult",
    "CutMapper",
    "FusionMapper",
    "worst_arrival",
    "DEFAULT_PRIORITY_CUTS",
    "NPN_FULL_WIDTH",
    "MAX_CUT_K",
    "MAPPER_KINDS",
]

#: Non-trivial cuts retained per node (the priority-cut bound).
DEFAULT_PRIORITY_CUTS = 8
#: Widest cut any mapper configuration may request.
MAX_CUT_K = 6
#: Cells up to this many inputs get the full NPN expansion; wider cells
#: are expanded under permutation + output polarity only (the input-phase
#: axis would cost 2^n more table entries for little coverage gain).
NPN_FULL_WIDTH = 4
#: The mapper kinds ``--mapper`` accepts (``lut`` takes a ``:K`` suffix).
MAPPER_KINDS = ("tree", "cuts", "fusion", "lut")

#: Area of one generated LUT cell (constant, so LUT-mode area cost is a
#: scaled LUT count — the classic FPGA objective).
LUT_AREA = 464.0
#: Input capacitance of every generated LUT pin, pF.
LUT_PIN_CAP = 1.0
#: Intrinsic delay / drive resistance of every generated LUT pin.
LUT_BLOCK = 1.0
LUT_RESISTANCE = 0.2


class CutError(RuntimeError):
    """Raised when cut enumeration meets a malformed subject graph."""


class MapperSpecError(ValueError):
    """Raised on a malformed ``--mapper`` specification string."""


@dataclass(frozen=True)
class MapperSpec:
    """A parsed mapper selection (see :func:`parse_mapper_spec`)."""

    kind: str  # "tree" | "cuts" | "fusion" | "lut"
    lut_k: Optional[int] = None

    @property
    def canonical(self) -> str:
        """The canonical spec string (round-trips through the parser)."""
        if self.kind == "lut":
            return f"lut:{self.lut_k}"
        return self.kind


def parse_mapper_spec(spec: str) -> MapperSpec:
    """Parse a ``--mapper`` string: ``tree``, ``cuts``, ``fusion``, ``lut:K``.

    Raises :class:`MapperSpecError` with a contextual message on anything
    else (the fuzz corpus pins these messages).
    """
    if not isinstance(spec, str):
        raise MapperSpecError(
            f"mapper spec must be a string, got {type(spec).__name__}")
    text = spec.strip()
    if text in ("tree", "cuts", "fusion"):
        return MapperSpec(text)
    if text == "lut" or text.startswith("lut:"):
        suffix = text[4:] if text.startswith("lut:") else ""
        if not suffix:
            raise MapperSpecError(
                f"mapper {spec!r}: lut mode needs a width, e.g. 'lut:4'")
        try:
            k = int(suffix)
        except ValueError:
            raise MapperSpecError(
                f"mapper {spec!r}: lut width {suffix!r} is not an integer")
        if not 2 <= k <= MAX_CUT_K:
            raise MapperSpecError(
                f"mapper {spec!r}: lut width must be in 2..{MAX_CUT_K}, "
                f"got {k}")
        return MapperSpec("lut", k)
    raise MapperSpecError(
        f"unknown mapper: {spec!r} (expected tree|cuts|fusion|lut:K)")


# -- priority-cut enumeration -------------------------------------------------


def _cut_priority(cut: FrozenSet[SubjectNode]) -> Tuple[int, List[int]]:
    """Deterministic cut ordering: fewer leaves first, then leaf uids."""
    return (len(cut), sorted(n.uid for n in cut))


def enumerate_priority_cuts(
    graph: SubjectGraph,
    k: int,
    cuts_per_node: int = DEFAULT_PRIORITY_CUTS,
) -> Dict[int, List[Tuple[SubjectNode, ...]]]:
    """Bounded k-feasible cut sets per gate node, deterministically ordered.

    Standard bottom-up enumeration: a cut of a node is the union of one
    cut from each fanin (the fanin's trivial cut contributes the fanin
    itself).  Each node keeps the ``cuts_per_node`` best cuts under
    :func:`_cut_priority`; the direct-fanin cut is *always* retained so
    the covering DP can fall back on the library's NAND2/inverter.  Cuts
    are returned as uid-sorted node tuples (trivial cuts excluded), so
    the result is bit-stable across processes.

    Raises :class:`CutError` on a cyclic subject graph (a gate consumed
    before it can be enumerated) instead of looping or silently skipping.
    """
    if k < 1:
        raise CutError(f"cut width must be positive, got {k}")
    table: Dict[int, List[FrozenSet[SubjectNode]]] = {}
    result: Dict[int, List[Tuple[SubjectNode, ...]]] = {}
    for node in graph.topological_order():
        if node.is_po:
            continue
        if not node.is_gate:
            table[node.uid] = [frozenset([node])]
            continue
        fanin_cut_lists = []
        for fanin in node.fanins:
            cuts = table.get(fanin.uid)
            if cuts is None:
                if fanin.is_gate:
                    raise CutError(
                        f"cyclic subject graph: {node.name!r} consumes gate "
                        f"{fanin.name!r} before it was enumerated")
                cuts = [frozenset([fanin])]
                table[fanin.uid] = cuts
            fanin_cut_lists.append(cuts)
        merged: Set[FrozenSet[SubjectNode]] = set()
        for combo in itertools.product(*fanin_cut_lists):
            union: FrozenSet[SubjectNode] = frozenset().union(*combo)
            if len(union) <= k:
                merged.add(union)
        ordered = sorted(merged, key=_cut_priority)[:cuts_per_node]
        direct = frozenset(node.fanins)
        if len(direct) <= k and direct not in ordered:
            ordered.append(direct)
        table[node.uid] = [frozenset([node])] + ordered
        result[node.uid] = [
            tuple(sorted(cut, key=lambda n: n.uid)) for cut in ordered
        ]
    return result


# -- NPN library expansion ----------------------------------------------------


@dataclass(frozen=True)
class NpnBinding:
    """How one cell implements one cut function.

    Pin ``i`` of :attr:`cell` reads cut leaf :attr:`leaf_of_pin` ``[i]``
    (leaves in uid order), inverted when :attr:`pin_negated` ``[i]``; the
    cell output is additionally inverted when :attr:`output_negated`.
    """

    cell: Cell
    leaf_of_pin: Tuple[int, ...]
    pin_negated: Tuple[bool, ...]
    output_negated: bool

    def inverter_count(self) -> int:
        """Inverters the binding needs (negated leaves deduplicated)."""
        negated_leaves = {
            leaf for leaf, neg in zip(self.leaf_of_pin, self.pin_negated)
            if neg
        }
        return len(negated_leaves) + (1 if self.output_negated else 0)

    def realized_bits(self) -> int:
        """Truth-table bits of the function the bound cell realises."""
        n = self.cell.num_inputs
        cell_bits = self.cell.truth_table.bits
        bits = 0
        for m in range(1 << n):
            y = 0
            for pin in range(n):
                value = (m >> self.leaf_of_pin[pin]) & 1
                if self.pin_negated[pin]:
                    value ^= 1
                if value:
                    y |= 1 << pin
            value = (cell_bits >> y) & 1
            if self.output_negated:
                value ^= 1
            if value:
                bits |= 1 << m
        return bits


class NpnMatchTable:
    """Per-library table: cut function -> cell bindings realising it.

    Built once per ``(library, k)`` (see :func:`match_table_for`): every
    cell with at most ``k`` inputs is expanded over input permutations,
    output polarity and — up to :data:`NPN_FULL_WIDTH` inputs — input
    polarities.  Lookup is then an O(1) probe keyed on the cut function's
    ``(num_inputs, bits)``.  Each cell contributes at most one binding
    per function (the fewest-inverter variant, ties broken by phase and
    permutation order), and binding lists are sorted by cell area then
    name, so matching is deterministic.
    """

    def __init__(self, library: Library, k: int,
                 full_width: int = NPN_FULL_WIDTH) -> None:
        self.library = library
        self.k = k
        self.full_width = full_width
        self._table: Dict[Tuple[int, int], List[NpnBinding]] = {}
        for cell in library:
            if cell.num_inputs <= k:
                self._expand_cell(cell)
        for bindings in self._table.values():
            bindings.sort(key=lambda b: (b.cell.area, b.cell.name))

    def _expand_cell(self, cell: Cell) -> None:
        n = cell.num_inputs
        full = n <= self.full_width
        phase_space = range(1 << n) if full else (0,)
        best_for_cell: Dict[int, Tuple[tuple, NpnBinding]] = {}
        for output_negated in (False, True):
            for phase_bits in phase_space:
                phases = tuple(
                    (phase_bits >> i) & 1 == 1 for i in range(n))
                phased = cell.truth_table.with_phases(phases, output_negated)
                for perm in itertools.permutations(range(n)):
                    bits = phased.permuted(perm).bits
                    leaf_of_pin = [0] * n
                    for j, old in enumerate(perm):
                        leaf_of_pin[old] = j
                    binding = NpnBinding(
                        cell, tuple(leaf_of_pin), phases, output_negated)
                    rank = (binding.inverter_count(), output_negated,
                            phase_bits, perm)
                    kept = best_for_cell.get(bits)
                    if kept is None or rank < kept[0]:
                        best_for_cell[bits] = (rank, binding)
        for bits, (_, binding) in best_for_cell.items():
            self._table.setdefault((n, bits), []).append(binding)

    def lookup(self, tt: TruthTable) -> List[NpnBinding]:
        """Bindings realising ``tt`` exactly (possibly empty)."""
        return self._table.get((tt.num_inputs, tt.bits), [])

    def __len__(self) -> int:
        return len(self._table)


_MATCH_TABLE_CACHE: Dict[Tuple[int, int], NpnMatchTable] = {}


def match_table_for(library: Library, k: int) -> NpnMatchTable:
    """Memoised :class:`NpnMatchTable` (libraries are long-lived)."""
    key = (id(library), k)
    cached = _MATCH_TABLE_CACHE.get(key)
    if cached is None or cached.library is not library:
        cached = NpnMatchTable(library, k)
        _MATCH_TABLE_CACHE[key] = cached
    return cached


# -- generated LUT cells ------------------------------------------------------

_LUT_CELL_CACHE: Dict[Tuple[int, int], Cell] = {}


def lut_cell(num_inputs: int, bits: int) -> Cell:
    """The generic LUT cell computing ``TruthTable(num_inputs, bits)``.

    Cells are cached by ``(num_inputs, bits)`` and named
    ``lut<width>_<bits-hex>``, so LUT-mode netlists are deterministic and
    serialisable without a library.  Every pin carries the same uniform
    capacitance and timing (an FPGA LUT's delay is input-independent to
    first order); the function must depend on every input (cut functions
    are matched post-support-shrink, which guarantees this).
    """
    key = (num_inputs, bits)
    cached = _LUT_CELL_CACHE.get(key)
    if cached is not None:
        return cached
    tt = TruthTable(num_inputs, bits)
    pins = [
        Pin(f"i{j}", LUT_PIN_CAP, PinTiming.uniform(LUT_BLOCK, LUT_RESISTANCE))
        for j in range(num_inputs)
    ]
    terms = []
    for cube in tt.to_sop().cubes:
        literals = []
        for j, lit in enumerate(cube.mask):
            if lit == "1":
                literals.append(f"i{j}")
            elif lit == "0":
                literals.append(f"!i{j}")
        terms.append("*".join(literals))
    cell = Cell(f"lut{num_inputs}_{bits:x}", LUT_AREA,
                "+".join(terms), pins)
    if cell.truth_table.bits != bits:  # pragma: no cover - safety net
        raise RuntimeError(f"LUT synthesis mismatch for {cell.name}")
    _LUT_CELL_CACHE[key] = cell
    return cell


# -- the covering DP ----------------------------------------------------------


@dataclass
class CutSolution:
    """The best cut implementation (so far) at a subject node."""

    node: SubjectNode
    leaves: Tuple[SubjectNode, ...]
    binding: Optional[NpnBinding]  # None for leaves and reused hawks
    covered: FrozenSet[SubjectNode]
    cost: float
    area: float = 0.0
    arrival: float = 0.0

    def key(self) -> tuple:
        """Deterministic comparison key (total order over candidates)."""
        if self.binding is None:
            return (self.cost, self.area, "", (), (), False)
        return (
            self.cost,
            self.area,
            self.binding.cell.name,
            tuple(n.uid for n in self.leaves),
            self.binding.pin_negated,
            self.binding.output_negated,
        )


@dataclass(frozen=True)
class CutCoverRecord:
    """One committed cut match, for the verify cut-cover audit."""

    instance: str  # mapped cell-instance name
    cell: str
    root: int  # subject node uid
    leaves: Tuple[int, ...]  # cut leaf uids in binding order
    leaf_of_pin: Tuple[int, ...]
    pin_negated: Tuple[bool, ...]
    output_negated: bool


@dataclass
class CutMapResult(MapResult):
    """A :class:`~repro.map.base.MapResult` plus the committed cut cover."""

    cut_cover: List[CutCoverRecord] = field(default_factory=list)


class CutMapper:
    """Priority-cut DAG covering with NPN matching (area/timing/LUT).

    Args:
        library: target gate library (function table and inverters; its
            cells are ignored in LUT mode).
        mode: ``"area"`` (minimum cell area) or ``"timing"`` (minimum
            arrival under the MIS constant-load model).
        k: cut width; defaults to ``min(library.max_fanin(), MAX_CUT_K)``
            (or ``lut_k`` in LUT mode).
        cuts_per_node: priority-cut bound per node.
        lut_k: cover with generated ``lut_k``-input LUTs instead of
            library cells (FPGA mode).
        wire_cap_per_fanout / pad_cap / input_arrivals: the MIS delay
            model's knobs, as in :class:`~repro.map.mis.MisDelayMapper`.
        perf: accepted for flow-interface symmetry; the cut DP has no
            configurable fast paths yet (results never depend on it).
    """

    def __init__(
        self,
        library: Library,
        mode: str = "area",
        k: Optional[int] = None,
        cuts_per_node: int = DEFAULT_PRIORITY_CUTS,
        lut_k: Optional[int] = None,
        wire_cap_per_fanout: float = DEFAULT_WIRE_CAP_PER_FANOUT,
        pad_cap: float = DEFAULT_PAD_CAP,
        input_arrivals: Optional[Dict[str, float]] = None,
        perf: Optional[PerfOptions] = None,
    ) -> None:
        if mode not in ("area", "timing"):
            raise ValueError(f"unknown mode: {mode!r}")
        if lut_k is not None and not 2 <= lut_k <= MAX_CUT_K:
            raise ValueError(
                f"lut width must be in 2..{MAX_CUT_K}, got {lut_k}")
        self.library = library
        self.mode = mode
        self.lut_k = lut_k
        self.cuts_per_node = cuts_per_node
        self.perf = perf if perf is not None else PerfOptions()
        if lut_k is not None:
            self.k = lut_k
            self.table: Optional[NpnMatchTable] = None
            self.inverter: Optional[Cell] = None
            self.input_cap = LUT_PIN_CAP
        else:
            self.k = k if k is not None else min(library.max_fanin(),
                                                 MAX_CUT_K)
            self.table = match_table_for(library, self.k)
            self.inverter = library.inverter()
            self.input_cap = _typical_input_cap(library)
        self.wire_cap_per_fanout = wire_cap_per_fanout
        self.pad_cap = pad_cap
        self.input_arrivals = dict(input_arrivals or {})
        # Per-run state, initialised in map().
        self.subject: Optional[SubjectGraph] = None
        self.lifecycle: Optional[LifecycleTracker] = None
        self.mapped: Optional[MappedNetwork] = None
        self.instances: Dict[int, MappedNode] = {}
        self.memo: Dict[int, CutSolution] = {}
        self.cut_cover: List[CutCoverRecord] = []
        self._cuts: Dict[int, List[Tuple[SubjectNode, ...]]] = {}
        self._inverters: Dict[str, MappedNode] = {}
        self._gate_counter = 0

    # -- main entry ----------------------------------------------------------

    def map(self, subject: SubjectGraph) -> CutMapResult:
        """Cover the subject graph; same contract as ``BaseMapper.map``."""
        self.subject = subject
        self.lifecycle = LifecycleTracker()
        self.mapped = MappedNetwork(f"{subject.name}_mapped")
        self.instances = {}
        self.memo = {}
        self.cut_cover = []
        self._inverters = {}
        self._gate_counter = 0
        for pi in subject.primary_inputs:
            self.instances[pi.uid] = self.mapped.add_primary_input(pi.name)
        with OBS.span("cut.enumerate", gates=len(subject.gates)):
            self._cuts = enumerate_priority_cuts(
                subject, self.k, self.cuts_per_node)
        cones = logic_cones(subject)
        order = list(range(len(cones)))
        for index in order:
            po, cone = cones[index]
            self._map_cone(po)
        self.mapped.check()
        live_gates = [
            n for n in subject.transitive_fanin(subject.primary_outputs)
            if n.is_gate
        ]
        if not self.lifecycle.finished(live_gates):
            raise RuntimeError(
                "cut mapping left live nodes that are neither hawk nor dove")
        return CutMapResult(self.mapped, subject, self.lifecycle,
                            list(order), cut_cover=list(self.cut_cover))

    # -- cone processing -----------------------------------------------------

    def _map_cone(self, po: SubjectNode) -> None:
        driver = po.fanins[0]
        self.memo = {}
        if OBS.enabled:
            OBS.metrics.counter("cut.cones").inc()
        if driver.is_gate:
            self._solve_cone(driver)
            instance = self._commit(driver)
        elif driver.is_pi:
            instance = self.instances[driver.uid]
        else:  # constant
            instance = self._constant_instance(driver)
        self.mapped.add_primary_output(po.name, instance)

    def _cone_topological(self, root: SubjectNode) -> List[SubjectNode]:
        """Gate nodes of the cone of ``root`` in fanin-first order."""
        order: List[SubjectNode] = []
        visited: Set[int] = set()
        stack: List[Tuple[SubjectNode, int]] = [(root, 0)]
        on_stack = {root.uid}
        while stack:
            node, idx = stack[-1]
            if idx < len(node.fanins):
                stack[-1] = (node, idx + 1)
                child = node.fanins[idx]
                if (child.is_gate and child.uid not in visited
                        and child.uid not in on_stack):
                    stack.append((child, 0))
                    on_stack.add(child.uid)
            else:
                stack.pop()
                on_stack.discard(node.uid)
                if node.uid not in visited:
                    visited.add(node.uid)
                    order.append(node)
        return order

    def _solve_cone(self, root: SubjectNode) -> None:
        for node in self._cone_topological(root):
            if self.lifecycle.is_hawk(node):
                continue  # reuse: its gate already exists
            self.lifecycle.visit(node)
            if OBS.enabled:
                OBS.metrics.counter("cut.nodes_visited").inc()
            best: Optional[CutSolution] = None
            for leaves in self._cuts.get(node.uid, ()):
                candidate = self._best_at_cut(node, leaves)
                if candidate is not None and (
                        best is None or candidate.key() < best.key()):
                    best = candidate
            if best is None:
                raise NoMatchError(
                    f"no cut match at {node.name} ({node.type.value}); "
                    f"library {self.library.name!r} cannot cover the graph")
            self.memo[node.uid] = best

    def _best_at_cut(
        self, node: SubjectNode, leaves: Tuple[SubjectNode, ...]
    ) -> Optional[CutSolution]:
        """Best binding implementing ``node``'s function over ``leaves``."""
        tt = cut_function(node, leaves)
        if tt is None:
            return None
        if len(tt.support()) != len(leaves):
            return None  # vacuous leaf; a smaller cut covers this function
        interior = cut_cone(node, frozenset(leaves))
        if interior is None:
            return None
        covered = frozenset(interior)
        if self.lut_k is not None:
            n = len(leaves)
            bindings = [NpnBinding(
                lut_cell(n, tt.bits), tuple(range(n)),
                tuple([False] * n), False)]
        else:
            bindings = self.table.lookup(tt)
        best: Optional[CutSolution] = None
        leaf_solutions = [self._solution_of(leaf) for leaf in leaves]
        if OBS.enabled:
            OBS.metrics.counter("cut.states_expanded").inc(len(bindings))
        for binding in bindings:
            solution = self._evaluate(node, leaves, binding, covered,
                                      leaf_solutions)
            if best is None or solution.key() < best.key():
                best = solution
        return best

    def _evaluate(
        self,
        node: SubjectNode,
        leaves: Tuple[SubjectNode, ...],
        binding: NpnBinding,
        covered: FrozenSet[SubjectNode],
        leaf_solutions: Sequence[CutSolution],
    ) -> CutSolution:
        """DP cost of one binding at one cut (area or timing objective)."""
        inverter_area = self.inverter.area if self.inverter else 0.0
        impl_area = binding.cell.area + \
            inverter_area * binding.inverter_count()
        area = impl_area + sum(s.area for s in leaf_solutions)
        if self.mode == "area":
            cost = impl_area + sum(s.cost for s in leaf_solutions)
            return CutSolution(node, leaves, binding, covered, cost,
                               area=area)
        arrival = self._estimated_arrival(node, binding, leaf_solutions)
        return CutSolution(node, leaves, binding, covered, arrival,
                           area=area, arrival=arrival)

    def _estimated_load(self, node: SubjectNode) -> float:
        """The MIS constant-load model of ``repro.map.mis``."""
        load = 0.0
        for sink in node.fanouts:
            load += self.pad_cap if sink.is_po else self.input_cap
        if not node.fanouts:
            load += self.pad_cap
        load += self.wire_cap_per_fanout * max(1, len(node.fanouts))
        return load

    def _estimated_arrival(
        self,
        node: SubjectNode,
        binding: NpnBinding,
        leaf_solutions: Sequence[CutSolution],
    ) -> float:
        load = self._estimated_load(node)
        inv_timing = self.inverter.pins[0].timing if self.inverter else None
        inv_cap = self.inverter.pins[0].input_cap if self.inverter else 0.0
        # An output inverter sits between the cell and the fanouts: the
        # cell then drives only the inverter pin.
        cell_load = inv_cap if binding.output_negated else load
        arrival = 0.0
        for pin_index in range(binding.cell.num_inputs):
            pin = binding.cell.pins[pin_index]
            leaf_arrival = \
                leaf_solutions[binding.leaf_of_pin[pin_index]].arrival
            if binding.pin_negated[pin_index]:
                leaf_arrival += (inv_timing.worst_block +
                                 inv_timing.worst_resistance * pin.input_cap)
            pin_arrival = (leaf_arrival + pin.timing.worst_block +
                           pin.timing.worst_resistance * cell_load)
            if pin_arrival > arrival:
                arrival = pin_arrival
        if binding.output_negated:
            arrival += (inv_timing.worst_block +
                        inv_timing.worst_resistance * load)
        return arrival

    def _solution_of(self, node: SubjectNode) -> CutSolution:
        """Best solution for a node referenced as a cut leaf."""
        if node.is_pi or node.is_constant:
            arrival = self.input_arrivals.get(node.name, 0.0)
            cost = arrival if self.mode == "timing" else 0.0
            return CutSolution(node, (), None, frozenset(), cost,
                               arrival=arrival)
        if self.lifecycle.is_hawk(node):
            instance = self.instances[node.uid]
            arrival = instance.arrival if instance.arrival is not None else 0.0
            cost = arrival if self.mode == "timing" else 0.0
            return CutSolution(node, (), None, frozenset(), cost,
                               arrival=arrival)
        return self.memo[node.uid]

    # -- cover commitment -----------------------------------------------------

    def _constant_instance(self, node: SubjectNode) -> MappedNode:
        existing = self.instances.get(node.uid)
        if existing is None:
            value = node.type.value == "const1"
            existing = self.mapped.add_constant(f"const{int(value)}", value)
            self.instances[node.uid] = existing
        return existing

    def _is_resolved(self, node: SubjectNode) -> bool:
        if node.is_pi:
            return True
        if node.is_constant:
            return node.uid in self.instances
        return self.lifecycle.is_hawk(node)

    def _commit(self, root: SubjectNode) -> MappedNode:
        """Instantiate the chosen cover of ``root`` (iterative post-order)."""
        stack: List[Tuple[SubjectNode, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.is_pi or self.lifecycle.is_hawk(node):
                continue
            if node.is_constant:
                self._constant_instance(node)
                continue
            solution = self.memo[node.uid]
            if expanded:
                self._instantiate(node, solution)
                continue
            stack.append((node, True))
            for leaf in solution.leaves:
                if not self._is_resolved(leaf):
                    stack.append((leaf, False))
        return self.instances[root.uid]

    def _inverted(self, source: MappedNode) -> MappedNode:
        """An inverter instance on ``source``, deduplicated per signal."""
        cached = self._inverters.get(source.name)
        if cached is None:
            self._gate_counter += 1
            cached = self.mapped.add_gate(
                f"{self.inverter.name}_{self._gate_counter}",
                self.inverter, [source])
            cached.arrival = source.arrival
            self._inverters[source.name] = cached
        return cached

    def _instantiate(self, node: SubjectNode, solution: CutSolution) -> None:
        binding = solution.binding
        cell = binding.cell
        leaf_instances = []
        for leaf in solution.leaves:
            if leaf.is_constant and leaf.uid not in self.instances:
                self._constant_instance(leaf)
            leaf_instances.append(self.instances[leaf.uid])
        fanins = []
        for pin_index in range(cell.num_inputs):
            source = leaf_instances[binding.leaf_of_pin[pin_index]]
            if binding.pin_negated[pin_index]:
                source = self._inverted(source)
            fanins.append(source)
        self._gate_counter += 1
        name = f"{cell.name}_{self._gate_counter}"
        instance = self.mapped.add_gate(name, cell, fanins)
        instance.arrival = solution.arrival
        output = instance
        if binding.output_negated:
            output = self._inverted(instance)
            output.arrival = solution.arrival
        self.lifecycle.make_hawk(node)
        for inner in solution.covered:
            if inner is not node:
                self.lifecycle.make_dove(inner)
        self.instances[node.uid] = output
        self.cut_cover.append(CutCoverRecord(
            instance=name,
            cell=cell.name,
            root=node.uid,
            leaves=tuple(n.uid for n in solution.leaves),
            leaf_of_pin=binding.leaf_of_pin,
            pin_negated=binding.pin_negated,
            output_negated=binding.output_negated,
        ))
        if OBS.enabled:
            OBS.metrics.counter("cut.gates_committed").inc()


# -- mapping fusion -----------------------------------------------------------


def worst_arrival(result: MapResult) -> float:
    """Worst estimated primary-output arrival of a mapped result.

    Reads the arrival each backend stamps on a gate instance at commit
    time; outputs driven by a primary input or a constant count 0.
    """
    worst = 0.0
    for po in result.mapped.primary_outputs:
        driver = po.fanins[0]
        if driver.is_gate and driver.arrival is not None:
            worst = max(worst, driver.arrival)
    return worst


class FusionMapper:
    """Best-of-both fusion of the tree and cut backends.

    Runs :class:`~repro.map.mis.MisAreaMapper` (or the delay variant) and
    :class:`CutMapper` on the same subject graph and returns whichever
    whole-netlist result is better under the objective, unchanged: area
    mode compares cell area; timing mode compares the worst estimated
    primary-output arrival, then cell area, then prefers the tree cover.
    The fused cover is therefore never worse than either backend, and
    the winner's own audit (including the cut-cover re-derivation when
    the cut backend wins) applies unchanged.
    """

    def __init__(
        self,
        library: Library,
        mode: str = "area",
        perf: Optional[PerfOptions] = None,
        matcher=None,
        cuts_per_node: int = DEFAULT_PRIORITY_CUTS,
    ) -> None:
        if mode not in ("area", "timing"):
            raise ValueError(f"unknown mode: {mode!r}")
        self.library = library
        self.mode = mode
        self.perf = perf
        tree_class = MisAreaMapper if mode == "area" else MisDelayMapper
        self.tree_mapper = tree_class(library, perf=perf, matcher=matcher)
        self.cut_mapper = CutMapper(library, mode=mode,
                                    cuts_per_node=cuts_per_node, perf=perf)

    def map(self, subject: SubjectGraph) -> MapResult:
        """Map with both backends and return the better result."""
        with OBS.span("fusion.tree"):
            tree_result = self.tree_mapper.map(subject)
        with OBS.span("fusion.cuts"):
            cut_result = self.cut_mapper.map(subject)
        if self.mode == "timing":
            tree_key = (worst_arrival(tree_result), tree_result.cell_area)
            cut_key = (worst_arrival(cut_result), cut_result.cell_area)
        else:
            tree_key, cut_key = tree_result.cell_area, cut_result.cell_area
        winner = "cuts" if cut_key < tree_key else "tree"
        if OBS.enabled:
            OBS.metrics.counter(f"fusion.wins_{winner}").inc()
        return cut_result if winner == "cuts" else tree_result
