"""Extension — state-based stress campaigns (§V).

Quantifies the paper's claim that robustness results depend on system
state: under HM-log pressure, six ``XM_hm_seek`` calls return other codes
than on the quiet testbed.  The campaign's state-aware oracle expects
exactly those codes in the state each call ran in, so no verdict
changes, while the nine vulnerability findings are stable under every
phantom state.
"""

import pytest

from repro.fault.campaign import Campaign
from repro.fault.classify import Severity, classify
from repro.fault.oracle import ReferenceOracle
from repro.fault.phantom import PhantomState
from repro.fault.stress import run_stress_comparison

HM_SCOPE = ("XM_hm_seek", "XM_hm_read", "XM_hm_status")
FINDINGS_SCOPE = ("XM_reset_system", "XM_set_timer", "XM_multicall")


@pytest.fixture(scope="module")
def hm_pressure():
    return run_stress_comparison(PhantomState.HM_PRESSURE, functions=HM_SCOPE)


class TestStateSensitivity:
    def test_hm_seek_diverges_under_pressure(self, hm_pressure):
        nominal = {r.test_id: r.first_rc for r in hm_pressure.nominal.log}
        changed = {
            r.test_id
            for r in hm_pressure.stressed_log
            if r.function == "XM_hm_seek" and r.first_rc != nominal[r.test_id]
        }
        assert len(changed) == 6
        assert hm_pressure.sensitivities == []

    def test_divergences_are_oracle_context_effects(self, hm_pressure):
        """The quiet-system rules alone would move six calls Pass ->
        Silent: offsets out of range on the empty log are legal once it
        holds events.  The state-aware oracle expects that."""
        campaign = Campaign(functions=HM_SCOPE)
        oracle = ReferenceOracle(campaign.kernel_version, campaign.oracle_context)
        specs = {spec.test_id: spec for spec in campaign.iter_specs()}
        quiet = [
            classify(record, oracle.expect(specs[record.test_id])).severity
            for record in hm_pressure.stressed_log
        ]
        assert quiet.count(Severity.SILENT) == 6
        assert all(
            c.severity is Severity.PASS for _r, _e, c in hm_pressure.nominal.classified
        )

    @pytest.mark.parametrize("state", list(PhantomState), ids=lambda s: s.value)
    def test_findings_stable_under_every_state(self, state):
        comparison = run_stress_comparison(state, functions=FINDINGS_SCOPE)
        assert comparison.nominal.issue_count() == 9
        assert comparison.sensitivities == []


def test_stress_comparison_benchmark(benchmark):
    result = benchmark.pedantic(
        run_stress_comparison,
        args=(PhantomState.TIMER_ARMED,),
        kwargs={"functions": ("XM_switch_sched_plan",)},
        rounds=2,
        iterations=1,
    )
    assert result.sensitivities == []
