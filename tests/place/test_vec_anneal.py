"""Annealing engine equality.

``simulated_annealing`` has two scoring engines (the full-recompute
reference and the per-net stamped box cache) that promise bitwise
identical deltas — and therefore an identical accept/reject sequence and
an identical final placement (the incremental-placement tests check
one fixed case; these are randomized).  Every comparison here is exact.
"""

from __future__ import annotations

import copy

import pytest

from repro.circuits.random_logic import random_network
from repro.flow.pipeline import mis_flow
from repro.library.standard import big_library
from repro.place.anneal import simulated_annealing
from repro.place.hypergraph import mapped_netlist


@pytest.fixture(scope="module")
def placed_case():
    net = random_network("veca", 7, 4, 30, seed=11)
    flow = mis_flow(net, big_library(), verify=False)
    netlist = mapped_netlist(flow.mapped, flow.backend.pad_positions)
    return flow, netlist


def _anneal(placement, netlist, **kwargs):
    work = copy.deepcopy(placement)
    stats = simulated_annealing(work, netlist, seed=5, moves_per_cell=4,
                                **kwargs)
    return work, stats


class TestEngineEquivalence:
    def test_three_engines_identical(self, placed_case):
        # The struct-of-arrays engine is gone; the name is kept for the
        # two engines that remain, held to the same exact standard.
        flow, netlist = placed_case
        base = flow.backend.detailed
        inc, inc_stats = _anneal(base, netlist, incremental=True)
        ref, ref_stats = _anneal(base, netlist, incremental=False)
        assert inc.positions == ref.positions
        assert inc_stats.initial_hpwl == ref_stats.initial_hpwl
        assert inc_stats.final_hpwl == ref_stats.final_hpwl
        assert inc_stats.moves_tried == ref_stats.moves_tried
        assert inc_stats.moves_accepted == ref_stats.moves_accepted

    @pytest.mark.parametrize("seed", range(3))
    def test_randomized_pairs(self, seed, seeded_rng):
        rng = seeded_rng("veca", "pairs", seed)
        net = random_network(f"vecp{seed}", 6, 3,
                             16 + rng.randrange(14),
                             seed=rng.randrange(2 ** 31))
        flow = mis_flow(net, big_library(), verify=False)
        netlist = mapped_netlist(flow.mapped, flow.backend.pad_positions)
        base = flow.backend.detailed
        inc, _ = _anneal(base, netlist, incremental=True)
        ref, _ = _anneal(base, netlist, incremental=False)
        assert inc.positions == ref.positions
