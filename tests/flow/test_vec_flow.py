"""End-to-end kernel-backend equivalence on the flows' own data.

The struct-of-arrays kernels promise *bitwise* identical placement,
routing and timing arithmetic to the naive engines they replaced.  The
naive engines are no longer a way to run a flow; they are the oracles of
the ``invariant.perf.vec`` audit, which re-derives every kernel on the
audited netlist (HPWL and net boxes, routing estimators, array STA and
its incremental frontier, the quadratic-system assembly).  These tests
run whole flows under the fast audit and demand that check pass.
"""

from __future__ import annotations

import pytest

from repro.circuits.suite import build_circuit
from repro.flow.pipeline import lily_flow, mis_flow
from repro.library.standard import big_library


def _vec_audit(flow):
    [result] = [r for r in flow.verify_report.checks
                if r.name == "invariant.perf.vec"]
    return result


class TestFlowEquivalence:
    @pytest.mark.parametrize("circuit,runner,kwargs", [
        ("misex1", lily_flow, {}),
        ("b9", lily_flow, {}),
        ("misex1", mis_flow, {}),
        ("misex1", lily_flow, {"layout_driven_decomposition": True}),
    ], ids=["lily-misex1", "lily-b9", "mis-misex1", "lily-layout-driven"])
    def test_flow_passes_vec_audit(self, circuit, runner, kwargs):
        flow = runner(build_circuit(circuit), big_library(), verify="fast",
                      **kwargs)
        assert flow.verify_report.passed, flow.verify_report.failures
        result = _vec_audit(flow)
        assert result.passed, str(result)

    def test_vec_counters_emitted(self):
        from repro.obs import OBS

        net = build_circuit("misex1")
        OBS.enable()
        try:
            lily_flow(net, big_library(), verify=False)
            counters = OBS.metrics.snapshot_counters()
        finally:
            OBS.disable()
        assert any(name.startswith("perf.vec.") for name in counters)
