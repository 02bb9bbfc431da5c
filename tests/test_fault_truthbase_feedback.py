"""Tests for the dry-run truth base and dictionary feedback loop."""

import pytest

from repro.fault.campaign import Campaign
from repro.fault.dictionaries import DictionarySet
from repro.fault.feedback import (
    extend_dictionaries,
    feedback_report,
    offending_values,
    regression_dictionaries,
    value_effectiveness,
)
from repro.fault.truthbase import (
    TruthBase,
    build_truthbase,
    compare_to_truthbase,
)
from repro.xm.vulns import FIXED_VERSION

SCOPE = ("XM_reset_system", "XM_set_timer", "XM_multicall")


@pytest.fixture(scope="module")
def campaign():
    return Campaign(functions=SCOPE)


@pytest.fixture(scope="module")
def result(campaign):
    return campaign.run()


@pytest.fixture(scope="module")
def truthbase(campaign):
    return build_truthbase(campaign)


class TestTruthBase:
    def test_one_entry_per_test(self, campaign, truthbase):
        assert len(truthbase) == campaign.total_tests() == 62

    def test_entries_carry_documented_expectation(self, truthbase):
        entry = truthbase.lookup("XM_reset_system#0002")
        assert entry is not None
        assert entry.call == "XM_reset_system(2)"
        assert entry.describe_expected() == "XM_INVALID_PARAM"

    def test_no_return_entries(self, truthbase):
        entry = truthbase.lookup("XM_reset_system#0000")
        assert entry.allow_no_return
        assert "no return" in entry.describe_expected()

    def test_save_load_roundtrip(self, truthbase, tmp_path):
        path = tmp_path / "truth.jsonl"
        truthbase.save(path)
        loaded = TruthBase.load(path)
        assert loaded.kernel_version == truthbase.kernel_version
        assert len(loaded) == len(truthbase)
        assert loaded.lookup("XM_set_timer#0000") == truthbase.lookup(
            "XM_set_timer#0000"
        )

    def test_expected_error_share(self, truthbase):
        share = truthbase.expected_error_share()
        assert 0.0 < share < 1.0

    def test_divergences_almost_equal_failures(self, result, truthbase):
        """Return-code cross-checking (the paper's §VI dry run) sees all
        failures except the temporal-isolation break: that test returns
        a perfectly documented value while overrunning its slot.  Only
        the HM-aware classifier catches it — one reason the full
        pipeline beats pure return-code auditing."""
        divergences = {d.test_id for d in compare_to_truthbase(result, truthbase)}
        failures = {r.test_id for r, _e, _c in result.failures()}
        assert divergences <= failures
        invisible = failures - divergences
        assert len(invisible) == 1
        (test_id,) = invisible
        record = next(r for r in result.log if r.test_id == test_id)
        assert record.function == "XM_multicall"
        assert record.overruns > 0

    def test_fixed_kernel_has_no_divergences(self):
        campaign = Campaign(functions=SCOPE, kernel_version=FIXED_VERSION)
        base = build_truthbase(campaign)
        result = campaign.run()
        assert compare_to_truthbase(result, base) == []

    def test_divergence_content(self, result, truthbase):
        divergences = {d.test_id: d for d in compare_to_truthbase(result, truthbase)}
        crash = divergences["XM_set_timer#0021"]  # (EXEC_CLOCK, 1, 1)
        assert crash.observed == "simulator crash"


class TestFeedback:
    def test_effectiveness_covers_all_values(self, result):
        scored = value_effectiveness(result)
        assert scored
        # Every appearance is counted: totals match the test count
        # multiplied by arity per function.
        total_appearances = sum(v.tests for v in scored)
        assert total_appearances == 5 * 1 + 32 * 3 + 25 * 2

    def test_effectiveness_counts_on_a_hand_built_result(self):
        from repro.fault.campaign import CampaignResult, _default_model
        from repro.fault.classify import Classification, FailureKind, Severity
        from repro.fault.testlog import CampaignLog, TestRecord

        fail = Classification(Severity.CATASTROPHIC, FailureKind.SIM_CRASH)
        ok = Classification(Severity.PASS, FailureKind.NONE)
        rows = [
            ("XM_reset_system", ("2",), fail),
            ("XM_reset_system", ("0",), ok),
            ("XM_set_timer", ("EXEC_CLOCK", "1", "1"), fail),
            ("XM_set_timer", ("HW_CLOCK", "1", "0"), ok),
            ("XM_not_in_the_model", ("2",), fail),  # ignored
        ]
        classified = [
            (
                TestRecord(f"{fn}#{i:04d}", fn, "", arg_labels=labels),
                None,
                verdict,
            )
            for i, (fn, labels, verdict) in enumerate(rows)
        ]
        result = CampaignResult(
            log=CampaignLog([record for record, _e, _c in classified]),
            classified=classified,
            issues=[],
            kernel_version="3.4.0",
            model=_default_model(),
            strategy_name="cartesian",
        )
        scored = [
            (v.dictionary, v.label, v.failures, v.tests)
            for v in value_effectiveness(result)
        ]
        assert scored == [
            ("clock_id", "EXEC_CLOCK", 1, 1),
            ("xm_u32_t", "2", 1, 1),
            ("xmTime_t", "1", 2, 3),  # twice in one failing test
            ("clock_id", "HW_CLOCK", 0, 1),
            ("xmTime_t", "0", 0, 1),
            ("xm_u32_t", "0", 0, 1),
        ]

    def test_offending_values_subset(self, result):
        offending = offending_values(result)
        assert offending
        assert all(v.failures > 0 for v in offending)
        labels = {(v.dictionary, v.label) for v in offending}
        assert ("xm_u32_t", "2") in labels  # reset_system(2)

    def test_clean_campaign_has_no_offenders(self):
        clean = Campaign(functions=("XM_switch_sched_plan",)).run()
        assert offending_values(clean) == []

    def test_report_renders(self, result):
        text = feedback_report(result, top=5)
        assert "failures" in text
        assert len(text.splitlines()) == 7

    def test_extend_dictionaries_adds_offenders(self, result):
        bare = DictionarySet().without_valid_values()
        extended = extend_dictionaries(bare, result)
        # The stripped u32 dictionary regains the offending values.
        labels = extended.lookup("xm_u32_t").labels()
        assert "2" in labels and "16" in labels

    def test_extend_is_idempotent(self, result):
        base = DictionarySet()
        extended = extend_dictionaries(base, result)
        assert {
            name: d.labels() for name, d in extended.dictionaries.items()
        } == {name: d.labels() for name, d in base.dictionaries.items()}

    def test_regression_dictionaries_shrink_full_campaign(self, result):
        trimmed = regression_dictionaries(result)
        full = Campaign()
        regression = Campaign(dictionaries=trimmed)
        assert regression.total_tests() < full.total_tests() / 4

    def test_regression_campaign_still_finds_everything(self, result):
        regression = Campaign(
            functions=SCOPE, dictionaries=regression_dictionaries(result)
        )
        rerun = regression.run()
        found = {i.matched_vulnerability for i in rerun.issues}
        assert len(found) == 9

    def test_regression_on_fixed_kernel_clean(self, result):
        regression = Campaign(
            functions=SCOPE,
            dictionaries=regression_dictionaries(result),
            kernel_version=FIXED_VERSION,
        )
        assert regression.run().issue_count() == 0
