"""Tests for state-based stress testing and the beta Hindering defect."""

import pytest

from repro.fault.campaign import Campaign
from repro.fault.classify import FailureKind, Severity
from repro.fault.phantom import PhantomState
from repro.fault.stress import StressExecutor, run_stress_comparison
from repro.fault.mutant import ArgSpec, TestCallSpec
from repro.xm import rc
from repro.xm.vulns import BETA_VERSION, KernelFeatures


class TestBetaHinderingDefect:
    def test_beta_feature_flag(self):
        assert KernelFeatures.for_version(BETA_VERSION).hm_seek_wrong_error_code
        assert not KernelFeatures.for_version("3.4.0").hm_seek_wrong_error_code

    def test_beta_returns_wrong_error_code(self):
        from conftest import BootedSystem

        system = BootedSystem(version=BETA_VERSION)
        assert system.call("XM_hm_seek", 0, 3) == rc.XM_NO_ACTION

    def test_campaign_detects_hindering(self):
        result = Campaign(
            functions=("XM_hm_seek",), kernel_version=BETA_VERSION
        ).run()
        hindering = [
            i for i in result.issues if i.severity is Severity.HINDERING
        ]
        assert hindering
        assert all(i.kind is FailureKind.WRONG_ERROR for i in hindering)

    def test_release_kernel_has_no_hindering(self):
        result = Campaign(functions=("XM_hm_seek",)).run()
        assert result.issue_count() == 0

    def test_beta_keeps_the_nine_paper_findings(self):
        result = Campaign(
            functions=("XM_reset_system",), kernel_version=BETA_VERSION
        ).run()
        assert result.issue_count() == 3


class TestStressExecutor:
    def test_state_applied_before_call(self):
        spec = TestCallSpec(
            "s#0",
            "XM_hm_status",
            "Health Monitor Management",
            (ArgSpec("status", "VALID", symbol="valid_buffer"),),
        )
        executor = StressExecutor(PhantomState.HM_PRESSURE)
        record = executor.run(spec)
        assert record.first_rc == rc.XM_OK
        # The HM log was pre-filled by the state setter.
        assert len(record.hm_events) > 100

    def test_nominal_state_equals_plain_executor(self):
        from repro.fault.executor import TestExecutor

        spec = TestCallSpec(
            "s#1",
            "XM_mask_irq",
            "Interrupt Management",
            (ArgSpec("irqLine", "1", value=1),),
        )
        stressed = StressExecutor(PhantomState.NOMINAL).run(spec)
        plain = TestExecutor().run(spec)
        assert stressed.first_rc == plain.first_rc
        assert stressed.never_returned == plain.never_returned


class TestStressComparison:
    @pytest.fixture(scope="class")
    def hm_pressure(self):
        return run_stress_comparison(
            PhantomState.HM_PRESSURE,
            functions=("XM_hm_seek", "XM_hm_read", "XM_hm_status"),
        )

    @staticmethod
    def changed_hm_seeks(comparison):
        """``(nominal rc, stressed rc)`` of the hm_seek calls the
        phantom state changed."""
        nominal = {r.test_id: r.first_rc for r in comparison.nominal.log}
        return [
            (nominal[r.test_id], r.first_rc)
            for r in comparison.stressed_log
            if r.function == "XM_hm_seek" and r.first_rc != nominal[r.test_id]
        ]

    def test_hm_seek_offsets_become_state_sensitive(self, hm_pressure):
        """With the log pre-filled, the kernel answers six
        ``XM_hm_seek`` calls differently: the §V context-dependence."""
        assert len(self.changed_hm_seeks(hm_pressure)) == 6

    def test_state_aware_oracle_reports_no_sensitivities(self, hm_pressure):
        """Both runs are judged in the state each call ran in, so the
        changed return codes are expected, not sensitivities."""
        assert hm_pressure.sensitivities == []
        assert hm_pressure.stable_tests == hm_pressure.nominal.total_tests

    def test_sensitivity_directions(self, hm_pressure):
        # Out of range on the empty log, in range on the full one.
        for nominal_rc, stressed_rc in self.changed_hm_seeks(hm_pressure):
            assert (nominal_rc, stressed_rc) == (rc.XM_INVALID_PARAM, rc.XM_OK)

    def test_vulnerabilities_stable_under_stress(self):
        comparison = run_stress_comparison(
            PhantomState.IPC_SATURATED, functions=("XM_reset_system",)
        )
        # The reset findings fire regardless of IPC state.
        assert comparison.nominal.issue_count() == 3
        assert comparison.sensitivities == []

    def test_degraded_partitions_do_not_change_partition_mgmt(self):
        comparison = run_stress_comparison(
            PhantomState.PARTITIONS_DEGRADED,
            functions=("XM_halt_partition", "XM_resume_partition"),
        )
        # The oracle already allows the state-dependent XM_NO_ACTION.
        assert comparison.sensitivities == []
