"""Tests for the oracle's state refinements (the full §V logic model)."""

from repro.fault.campaign import Campaign
from repro.fault.classify import Severity, classify
from repro.fault.mutant import ArgSpec, TestCallSpec
from repro.fault.oracle import ReferenceOracle
from repro.fault.phantom import PhantomState
from repro.fault.stress import run_stress_comparison
from repro.fault.testlog import capture_state
from repro.xm import rc

from conftest import BootedSystem


def hm_seek_spec(offset: int, whence: int) -> TestCallSpec:
    return TestCallSpec(
        "s#0",
        "XM_hm_seek",
        "Health Monitor Management",
        (
            ArgSpec("offset", str(offset), value=offset),
            ArgSpec("whence", str(whence), value=whence),
        ),
    )


class TestCaptureState:
    def test_snapshot_fields(self):
        system = BootedSystem()
        state = capture_state(system.kernel)
        assert state["hm_len"] == 0
        assert state["tm_message"] == 0
        assert "-1" in state["trace_lens"]

    def test_snapshot_tracks_hm_growth(self):
        from repro.xm.hm import HmEvent

        system = BootedSystem()
        for _ in range(3):
            system.kernel.hm.raise_event(HmEvent.PARTITION_ERROR, 1, 0)
        assert capture_state(system.kernel)["hm_len"] == 3

    def test_snapshot_is_json_serialisable(self):
        import json

        system = BootedSystem()
        json.dumps(capture_state(system.kernel))


class TestStatefulExpectations:
    def test_hm_seek_offset_valid_when_log_full(self):
        oracle = ReferenceOracle()
        state = {"hm_len": 20, "hm_cursor": 0, "hm_unread": 20,
                 "trace_lens": {}, "trace_cursors": {}, "tm_message": 0}
        expectation = oracle.expect(hm_seek_spec(16, 0), state)
        assert expectation.rc_acceptable(rc.XM_OK)

    def test_hm_seek_offset_invalid_when_log_empty(self):
        oracle = ReferenceOracle()
        state = {"hm_len": 0, "hm_cursor": 0, "hm_unread": 0,
                 "trace_lens": {}, "trace_cursors": {}, "tm_message": 0}
        expectation = oracle.expect(hm_seek_spec(16, 0), state)
        assert expectation.allowed == {rc.XM_INVALID_PARAM}

    def test_missing_state_falls_back_to_static(self):
        oracle = ReferenceOracle()
        static = oracle.expect(hm_seek_spec(16, 0))
        assert oracle.expect(hm_seek_spec(16, 0), None) == static
        assert not static.rc_acceptable(rc.XM_OK)  # the quiet testbed

    def test_bad_whence_still_invalid_regardless_of_state(self):
        oracle = ReferenceOracle()
        state = {"hm_len": 50, "hm_cursor": 0, "hm_unread": 50,
                 "trace_lens": {}, "trace_cursors": {}, "tm_message": 0}
        expectation = oracle.expect(hm_seek_spec(0, 16), state)
        assert expectation.allowed == {rc.XM_INVALID_PARAM}

    def test_refinement_reads_values_not_key_order(self):
        oracle = ReferenceOracle()
        state = {"hm_len": 20, "hm_cursor": 4, "hm_unread": 16,
                 "trace_lens": {}, "trace_cursors": {}, "tm_message": 0}
        reordered = dict(sorted(state.items()))
        assert list(reordered) != list(state)
        spec = hm_seek_spec(16, 1)
        assert oracle.expect(spec, reordered) == oracle.expect(spec, state)
        assert ReferenceOracle().expect(spec, reordered) == oracle.expect(spec, state)


class TestEndToEnd:
    def test_static_divergences_resolved_by_state(self):
        """The quiet-system rules alone would call six stressed
        ``XM_hm_seek`` records Silent; the campaign's oracle reads the
        pre-filled log from each invocation's state and passes them."""
        functions = ("XM_hm_seek", "XM_hm_read", "XM_hm_status")
        comparison = run_stress_comparison(PhantomState.HM_PRESSURE, functions)
        assert comparison.sensitivities == []
        campaign = Campaign(functions=functions)
        oracle = ReferenceOracle(campaign.kernel_version, campaign.oracle_context)
        spec_index = {spec.test_id: spec for spec in campaign.iter_specs()}
        quiet_rules = [
            classify(record, oracle.expect(spec_index[record.test_id]))
            for record in comparison.stressed_log
        ]
        silent = [c for c in quiet_rules if c.severity is Severity.SILENT]
        assert len(silent) == 6

    def test_stateful_classification_on_quiet_campaign(self):
        """On the quiet testbed every verdict equals the verdict of the
        ``state=None`` rules for every HM/trace test."""
        campaign = Campaign(functions=("XM_hm_seek", "XM_trace_seek"))
        result = campaign.run()
        oracle = ReferenceOracle(campaign.kernel_version, campaign.oracle_context)
        spec_index = {spec.test_id: spec for spec in campaign.iter_specs()}
        for record, _expectation, verdict in result.classified:
            quiet = classify(record, oracle.expect(spec_index[record.test_id]))
            assert quiet == verdict, record.test_id

    def test_real_defects_still_detected_statefully(self):
        result = Campaign(functions=("XM_set_timer",)).run()
        severities = [c.severity for _r, _e, c in result.classified]
        assert Severity.CATASTROPHIC in severities
        assert Severity.SILENT in severities


class TestVerdict:
    """One record's invocations judged against their own states."""

    @staticmethod
    def record(*outcomes):
        from repro.fault.testlog import Invocation, TestRecord

        return TestRecord(
            test_id="s#0",
            function="XM_hm_seek",
            category="Health Monitor Management",
            arg_labels=("16", "0"),
            invocations=[
                Invocation(returned=True, rc=code, state={
                    "hm_len": length, "hm_cursor": 0, "hm_unread": length,
                    "trace_lens": {}, "trace_cursors": {}, "tm_message": 0,
                })
                for length, code in outcomes
            ],
        )

    def test_worst_invocation_decides_with_its_expectation(self):
        oracle = ReferenceOracle()
        # In range once the log holds 20 records; out of range when empty.
        record = self.record((20, rc.XM_OK), (0, rc.XM_OK))
        expectation, verdict = oracle.verdict(record, hm_seek_spec(16, 0))
        assert verdict.severity is Severity.SILENT
        assert expectation.invalid_params == ("offset",)
        assert expectation == oracle.expect(hm_seek_spec(16, 0), record.invocations[1].state)

    def test_each_state_accepts_its_own_code(self):
        oracle = ReferenceOracle()
        record = self.record((20, rc.XM_OK), (0, rc.XM_INVALID_PARAM))
        _expectation, verdict = oracle.verdict(record, hm_seek_spec(16, 0))
        assert verdict.severity is Severity.PASS

    def test_classify_judges_only_the_named_invocations(self):
        oracle = ReferenceOracle()
        record = self.record((20, rc.XM_OK), (0, rc.XM_OK))
        empty = oracle.expect(hm_seek_spec(16, 0), record.invocations[1].state)
        assert classify(record, empty, [0]).severity is Severity.SILENT
        full = oracle.expect(hm_seek_spec(16, 0), record.invocations[0].state)
        assert classify(record, full, [0]).severity is Severity.PASS


class TestKeyOrder:
    def test_key_sorted_log_gets_the_same_verdicts(self, tmp_path):
        """The refinements read state values by name, so a log
        rewritten with sorted keys is judged exactly like the original."""
        import json

        from repro.fault.testlog import STATE_FIELDS, CampaignLog

        campaign = Campaign(
            functions=("XM_hm_seek", "XM_trace_seek", "XM_read_sampling_message")
        )
        canonical = tmp_path / "canonical.jsonl"
        campaign.run(log_path=canonical)
        rewritten = tmp_path / "sorted.jsonl"
        with canonical.open() as src, rewritten.open("w") as dst:
            for line in src:
                dst.write(json.dumps(json.loads(line), sort_keys=True) + "\n")

        def verdicts(log):
            return [
                (record.test_id, c.severity, c.kind, c.detail)
                for record, _e, c in campaign.analyse(log).classified
            ]

        reordered = CampaignLog.load(rewritten)
        assert all(
            tuple(invocation.state) != STATE_FIELDS
            for record in reordered
            for invocation in record.invocations
        )
        assert verdicts(reordered) == verdicts(CampaignLog.load(canonical))
