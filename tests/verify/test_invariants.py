"""Structural invariant checkers: healthy artifacts pass every check.

The negative direction — a corrupted artifact makes the right family
fail — is covered exhaustively by ``test_faults.py``; here we pin down
that the checkers are quiet on real, healthy pipeline output and that
each family reports under its documented name prefix.
"""

from __future__ import annotations

from repro.verify import (
    check_cone_partition,
    check_lifecycle,
    check_mapped,
    check_network,
    check_placement,
    check_subject,
    check_timing,
)


def _assert_clean(results, prefix):
    assert results, f"{prefix}: checker returned no results"
    for r in results:
        assert r.name.startswith(prefix), r.name
        assert r.passed, str(r)


class TestHealthyArtifacts:
    def test_network(self, misex1_net):
        _assert_clean(check_network(misex1_net), "invariant.network.")

    def test_subject(self, misex1_artifacts):
        _assert_clean(check_subject(misex1_artifacts.subject),
                      "invariant.subject.")

    def test_mapped(self, misex1_artifacts):
        _assert_clean(check_mapped(misex1_artifacts.mapped),
                      "invariant.mapped.")

    def test_cone_partition(self, misex1_artifacts):
        _assert_clean(
            check_cone_partition(misex1_artifacts.subject,
                                 misex1_artifacts.cones),
            "invariant.cones.")

    def test_lifecycle(self, misex1_artifacts):
        _assert_clean(
            check_lifecycle(misex1_artifacts.lifecycle,
                            misex1_artifacts.subject),
            "invariant.lifecycle.")

    def test_placement(self, misex1_artifacts):
        _assert_clean(
            check_placement(misex1_artifacts.mapped,
                            misex1_artifacts.placement),
            "invariant.place.")

    def test_timing(self, misex1_artifacts):
        _assert_clean(
            check_timing(misex1_artifacts.mapped, misex1_artifacts.timing,
                         wire_model=misex1_artifacts.wire_model),
            "invariant.timing.")

    def test_timing_without_wire_model_still_passes(self, misex1_artifacts):
        # Without the wire model the exact load recomputation is skipped
        # but monotonicity/slack checks still run and pass.
        results = check_timing(misex1_artifacts.mapped,
                               misex1_artifacts.timing)
        assert results and all(r.passed for r in results)


class TestCheckerOutputs:
    def test_results_carry_target_and_duration(self, misex1_artifacts):
        for r in check_mapped(misex1_artifacts.mapped):
            assert r.target
            assert r.duration_s >= 0.0
            assert r.details == ""  # clean artifacts report no findings

    def test_small_network_checkers(self, small_network):
        _assert_clean(check_network(small_network), "invariant.network.")


class TestVecKernelAudit:
    """``invariant.perf.vec`` re-derives every array kernel the flows run
    against its naive twin on the audited netlist."""

    def test_healthy_flow_passes(self, misex1_artifacts):
        from repro.verify.invariants import check_vec_kernels

        _assert_clean(
            check_vec_kernels(misex1_artifacts.mapped,
                              wire_model=misex1_artifacts.wire_model),
            "invariant.perf.vec")

    def test_perturbed_quadratic_assembly_fails(self, misex1_artifacts,
                                                monkeypatch):
        import numpy as np

        import repro.perf.vec as vec
        from repro.verify.invariants import check_vec_kernels

        real = vec.assemble_quadratic

        def perturbed(*args, **kwargs):
            diag, bx, by, rows, cols, vals = real(*args, **kwargs)
            vals = vals.copy()
            vals[0] = np.nextafter(vals[0], 0.0)  # one ulp, one entry
            return diag, bx, by, rows, cols, vals

        monkeypatch.setattr(vec, "assemble_quadratic", perturbed)
        [result] = check_vec_kernels(misex1_artifacts.mapped,
                                     wire_model=misex1_artifacts.wire_model)
        assert result.name == "invariant.perf.vec"
        assert not result.passed
        assert "quadratic assembly stream vals" in str(result)
