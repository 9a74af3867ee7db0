"""The benchmark's workloads: which circuits run through which flows.

Every workload runs fixed circuits, so its QoR (cell area, chip area, wire
length, delay) is one exact number per commit: a mapper change that
worsens the cover shows as a QoR change, not as noise between seeds.  The
seed orders the flows of each pass (:func:`pass_order`).

- ``suite_area``: Table 1 of the paper, MIS-tree and Lily in area mode, on
  the fixed subset :data:`SUITE_AREA_CIRCUITS` of small and mid-size
  circuits.  Time spreads over the tree DP, Lily's wire cost and the back
  end.
- ``synth_timing``: one Rent's-rule circuit from ``repro.circuits.synth``,
  MIS-tree and Lily in timing mode: the delay DP, Lily's delay mode with
  wire capacitance, and wide cones sharing subtrees.
- ``synth_cuts``: :data:`SYNTH_CUTS_CIRCUITS` circuits from the same
  generator through the cut backend (``mapper="cuts"``) in area mode: cut
  enumeration, ``cut_function`` and NPN matching.  Tree DP and Lily are
  bypassed.  Cut enumeration and matching are local to a node and its
  k-input cone, so several small circuits load these layers like one
  large one; they also give the host-speed samples between flows more
  gaps to fall in (see ``hostspeed.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.circuits.suite import build_circuit
from repro.circuits.synth import synth_network
from repro.network.network import Network

__all__ = ["Flow", "SUITE_AREA_CIRCUITS", "SYNTH_SEED",
           "build_flows", "pass_order"]

#: Table 1 circuits of ``suite_area``: ~4 s wall per pass on a 2-vCPU VM.
SUITE_AREA_CIRCUITS: Tuple[str, ...] = (
    "9symml", "C432", "C880", "apex7", "b9", "misex1")
#: Generator seed of the synth circuits (the repository's size-ladder seed).
SYNTH_SEED = 19910611
SYNTH_TIMING_GATES = 150
SYNTH_CUTS_GATES = 100
#: ``synth_cuts`` runs circuits of seeds SYNTH_SEED, SYNTH_SEED + 1, ...
SYNTH_CUTS_CIRCUITS = 3

#: Smaller inputs of the ``--tiny`` smoke runs.
_TINY_SUITE = ("misex1", "b9")
_TINY_GATES = 40


@dataclass(frozen=True)
class Flow:
    """One flow call: a circuit through ``mis_flow`` or ``lily_flow``."""

    label: str  # unique within the workload, e.g. "C880/lily"
    net: Network
    pipeline: str  # "mis" | "lily"
    mode: str  # "area" | "timing"
    mapper: str = "tree"  # mis_flow's covering backend


def _synth(gates: int, offset: int = 0) -> Network:
    return synth_network(gates, seed=SYNTH_SEED + offset)


def build_flows(workload: str, tiny: bool = False) -> List[Flow]:
    """Generate the workload's inputs and list its flows."""
    if workload == "suite_area":
        flows = []
        for name in (_TINY_SUITE if tiny else SUITE_AREA_CIRCUITS):
            net = build_circuit(name)
            flows.append(Flow(f"{name}/mis", net, "mis", "area"))
            flows.append(Flow(f"{name}/lily", net, "lily", "area"))
        return flows
    if workload == "synth_timing":
        net = _synth(_TINY_GATES if tiny else SYNTH_TIMING_GATES)
        return [Flow(f"{net.name}/mis", net, "mis", "timing"),
                Flow(f"{net.name}/lily", net, "lily", "timing")]
    if workload == "synth_cuts":
        nets = [_synth(_TINY_GATES if tiny else SYNTH_CUTS_GATES, offset)
                for offset in range(SYNTH_CUTS_CIRCUITS)]
        return [Flow(f"{net.name}/mis-cuts", net, "mis", "area",
                     mapper="cuts") for net in nets]
    raise KeyError(f"unknown workload: {workload!r}")


def pass_order(flows: List[Flow], seed: int, pass_index: int) -> List[Flow]:
    """The seeded order in which one pass runs the flows."""
    order = list(flows)
    random.Random(seed * 1_000_003 + pass_index).shuffle(order)
    return order
