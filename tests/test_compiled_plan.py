"""Compiled suite execution: plan units and planned==unplanned identity.

The plan (:mod:`repro.fault.plan`) is an optimisation, never a semantic
fork — these tests pin that claim: record streams must be
field-for-field identical between the compiled/batched paths and the
per-spec interpretation, across serial, sharded-parallel and
interrupted+resumed runs, and the ``--verify-plan`` audit must catch a
plan that lies.
"""

import multiprocessing

import pytest

from repro.fabric.worker import KILL_SPEC_ENV
from repro.fault.campaign import Campaign
from repro.fault.executor import PlanVerifyError, TestExecutor
from repro.fault.mutant import ArgSpec, TestCallSpec, default_layout
from repro.fault.plan import CompiledPlan, group_consecutive
from repro.fault.testlog import CampaignLog, TestRecord
from repro.xm import rc

#: The three hypercalls carrying the paper's findings: 62 tests, 9 issues.
TRIO = ("XM_reset_system", "XM_set_timer", "XM_multicall")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel execution requires the fork start method",
)


def strip_wall_time(record):
    data = record.to_dict()
    data.pop("wall_time_s")
    data.pop("host_context")
    return data


def stream(result):
    return [strip_wall_time(r) for r in result.log]


# -- plan construction -------------------------------------------------------


class TestPlanConstruction:
    def compile_one(self, spec):
        return CompiledPlan([spec], default_layout(), "3.4.0", 2).entries[0]

    def test_unknown_hypercall_prechecked(self):
        entry = self.compile_one(
            TestCallSpec("XM_bogus#0", "XM_bogus", "None", ())
        )
        assert entry.precheck_rc == rc.XM_UNKNOWN_HYPERCALL

    def test_arity_mismatch_prechecked(self):
        entry = self.compile_one(
            TestCallSpec(
                "XM_halt_partition#0",
                "XM_halt_partition",
                "Partitioning",
                (
                    ArgSpec("id", "zero", 0),
                    ArgSpec("extra", "zero", 0),
                ),
            )
        )
        assert entry.precheck_rc == rc.XM_INVALID_PARAM

    def test_dispatchable_spec_has_no_precheck(self):
        campaign = Campaign(functions=("XM_halt_partition",))
        plan = campaign.plan()
        assert all(e.precheck_rc is None for e in plan.entries)

    def test_converted_args_are_masked_ints(self):
        campaign = Campaign(functions=TRIO)
        for entry in campaign.plan().entries:
            if entry.precheck_rc is not None:
                continue
            assert len(entry.converted) == len(entry.resolved)
            # Typed converters may legitimately produce signed values
            # (e.g. xm_s64 time arguments); every slot is still an int.
            assert all(isinstance(v, int) for v in entry.converted)

    def test_record_base_matches_spec(self):
        campaign = Campaign(functions=("XM_halt_partition",))
        for entry in campaign.plan().entries:
            base = entry.record_base
            assert base["test_id"] == entry.spec.test_id
            assert base["arg_labels"] == entry.spec.arg_labels()
            assert base["resolved_args"] == entry.spec.resolve_args(
                campaign.plan().layout
            )

    def test_entry_for_rejects_drifted_spec(self):
        campaign = Campaign(functions=("XM_halt_partition",))
        plan = campaign.plan()
        spec = plan.entries[0].spec
        drifted = TestCallSpec(spec.test_id, spec.function, spec.category, ())
        assert plan.entry_for(spec) is plan.entries[0]
        assert plan.entry_for(drifted) is None

    def test_groups_are_maximal_consecutive_runs(self):
        campaign = Campaign(functions=TRIO)
        plan = campaign.plan()
        groups = plan.groups
        # Suites are generated per hypercall: one group per function.
        assert [g[0].function for g in groups] == list(TRIO)
        assert sum(len(g) for g in groups) == len(plan)
        for group in groups:
            assert len({e.function for e in group}) == 1
        # Flattened groups preserve campaign order exactly.
        flat = [e.test_id for g in groups for e in g]
        assert flat == [e.test_id for e in plan.entries]

    def test_group_consecutive_splits_on_function_change(self):
        campaign = Campaign(functions=("XM_set_timer", "XM_halt_partition"))
        entries = campaign.plan().entries
        interleaved = [entries[0], entries[-1], entries[1]]
        groups = group_consecutive(interleaved)
        assert [len(g) for g in groups] == [1, 1, 1]

    def test_plan_is_cached_per_campaign(self):
        campaign = Campaign(functions=("XM_halt_partition",))
        assert campaign.plan() is campaign.plan()

    def test_plan_memo_is_shared_across_equal_campaigns(self):
        # Suites (and therefore plans) are memoized process-wide: two
        # campaigns over the same configuration share one compilation.
        a = Campaign(functions=("XM_halt_partition",))
        b = Campaign(functions=("XM_halt_partition",))
        assert a.plan() is b.plan()
        # Another frame count gets its own plan over the same entries.
        c = Campaign(functions=("XM_halt_partition",), frames=3)
        assert c.plan() is not a.plan()
        assert c.plan().frames == 3
        assert c.plan().entries is a.plan().entries


# -- oracle consistency ------------------------------------------------------


class TestPlannedOracle:
    @staticmethod
    def entry_verdict(oracle, entry):
        record = TestRecord(entry.test_id, entry.function, entry.category)
        expectation, _classification = oracle.verdict(
            record, entry.spec, (entry.function, entry.arg_labels)
        )
        return expectation

    def test_verdict_with_entry_key_equals_expect(self):
        from repro.fault.oracle import ReferenceOracle

        campaign = Campaign(functions=TRIO)
        oracle = ReferenceOracle(campaign.kernel_version, campaign.oracle_context)
        for entry in campaign.plan().entries:
            assert self.entry_verdict(oracle, entry) == oracle.expect(entry.spec)

    def test_verdict_with_entry_key_reuses_the_entry_labels(self, monkeypatch):
        from repro.fault.oracle import ReferenceOracle

        campaign = Campaign(functions=TRIO)
        entries = campaign.plan().entries
        expected = [
            ReferenceOracle(campaign.kernel_version).expect(e.spec) for e in entries
        ]

        def rebuilt(_spec):
            raise AssertionError("labels rebuilt from the spec")

        monkeypatch.setattr(TestCallSpec, "arg_labels", rebuilt)
        oracle = ReferenceOracle(campaign.kernel_version)  # every entry misses once
        assert [self.entry_verdict(oracle, e) for e in entries] == expected


# -- planned == unplanned identity -------------------------------------------


class TestSerialIdentity:
    @pytest.fixture(scope="class")
    def unplanned(self):
        return Campaign(functions=TRIO, compiled_plan=False).run()

    def test_compiled_batched_equals_unplanned(self, unplanned):
        compiled = Campaign(functions=TRIO).run()
        assert stream(compiled) == stream(unplanned)

    def test_compiled_unbatched_equals_unplanned(self, unplanned):
        unbatched = Campaign(functions=TRIO, batch_hypercalls=False).run()
        assert stream(unbatched) == stream(unplanned)

    def test_verify_plan_audit_passes(self, unplanned):
        audited = Campaign(functions=TRIO, verify_plan=True).run()
        assert stream(audited) == stream(unplanned)
        modes = audited.execution_stats["reset_modes"]
        assert modes["plan_verified"] == len(audited.log)

    def test_issues_and_classification_identical(self, unplanned):
        compiled = Campaign(functions=TRIO).run()
        assert [
            (i.hypercall, i.kind, i.severity, i.description)
            for i in compiled.issues
        ] == [
            (i.hypercall, i.kind, i.severity, i.description)
            for i in unplanned.issues
        ]
        assert [
            (c.severity, c.kind) for _r, _e, c in compiled.classified
        ] == [(c.severity, c.kind) for _r, _e, c in unplanned.classified]


@needs_fork
class TestParallelIdentity:
    def test_sharded_compiled_equals_serial_unplanned(self):
        serial = Campaign(functions=TRIO, compiled_plan=False).run()
        sharded = Campaign(functions=TRIO).run(processes=2)
        assert stream(sharded) == stream(serial)

    def test_kill_and_resume_equals_uninterrupted(self, tmp_path, monkeypatch):
        baseline = Campaign(functions=TRIO).run()
        victim = list(Campaign(functions=TRIO).iter_specs())[10]
        log_path = tmp_path / "campaign.jsonl"

        monkeypatch.setenv(KILL_SPEC_ENV, victim.test_id)
        interrupted = Campaign(functions=TRIO).run(
            processes=2, log_path=log_path
        )
        monkeypatch.delenv(KILL_SPEC_ENV)
        killed = [r.test_id for r in interrupted.log if r.worker_killed]
        assert killed == [victim.test_id]

        # Resume from the checkpoint stream: only the killed spec
        # reruns, and the merged result is indistinguishable from an
        # uninterrupted compiled campaign.
        partial = CampaignLog(
            records=[r for r in interrupted.log if not r.worker_killed]
        )
        resumed = Campaign(functions=TRIO).run(resume_from=partial)
        assert stream(resumed) == stream(baseline)


class TestResumeIdentity:
    def test_interrupted_serial_resume_is_identical(self):
        baseline = Campaign(functions=TRIO).run()
        records = list(baseline.log)
        partial = CampaignLog(records=records[: len(records) // 2])
        resumed = Campaign(functions=TRIO).run(resume_from=partial)
        assert stream(resumed) == stream(baseline)


# -- batched-pass fallbacks --------------------------------------------------


class TestBatchFallbacks:
    def test_quarantined_specs_skip_without_breaking_batches(self, tmp_path):
        import json

        campaign = Campaign(functions=TRIO)
        specs = list(campaign.iter_specs())
        victims = [specs[3].test_id, specs[20].test_id]
        quarantine = tmp_path / "quarantine.json"
        quarantine.write_text(
            json.dumps(
                {
                    "entries": {
                        test_id: {"verdict": "worker_killed", "attempts": 3}
                        for test_id in victims
                    }
                }
            )
        )
        unbatched = Campaign(functions=TRIO, batch_hypercalls=False).run(
            quarantine_path=quarantine
        )
        batched = Campaign(functions=TRIO).run(quarantine_path=quarantine)
        assert stream(batched) == stream(unbatched)
        skipped = [r for r in batched.log if r.quarantined]
        assert sorted(r.test_id for r in skipped) == sorted(victims)

    def test_batched_group_uses_shared_loop(self):
        campaign = Campaign(functions=("XM_halt_partition",))
        plan = campaign.plan()
        executor = TestExecutor()
        records = executor.run_group(plan.groups[0])
        assert [r.test_id for r in records] == [
            e.test_id for e in plan.groups[0]
        ]
        # One restore armed the loop; every later test was a delta revert.
        assert executor.reset_stats["restore"] == 1
        assert executor.reset_stats["delta"] == len(records) - 1


# -- the audit catches a lying plan ------------------------------------------


class TestVerifyPlan:
    def test_tampered_plan_raises(self):
        campaign = Campaign(functions=("XM_suspend_partition",))
        plan = campaign.plan()
        executor = TestExecutor(verify_plan=True)
        # Corrupt one entry's precomputed record skeleton: the planned
        # record now disagrees with the unplanned reference run, and
        # the audit must refuse it.
        entry = plan.entries[0]
        honest = entry.record_base
        entry.record_base = dict(honest, resolved_args=(0xDEAD,))
        try:
            with pytest.raises(PlanVerifyError):
                executor.run_planned(entry)
        finally:
            entry.record_base = honest

    def test_honest_plan_verifies(self):
        campaign = Campaign(functions=("XM_halt_partition",))
        plan = campaign.plan()
        executor = TestExecutor(verify_plan=True)
        for entry in plan.entries:
            executor.run_planned(entry)
        assert executor.reset_stats["plan_verified"] == len(plan)


# -- profile flag ------------------------------------------------------------


class TestProfile:
    def test_phase_times_collected(self):
        result = Campaign(functions=("XM_halt_partition",), profile=True).run()
        times = result.execution_stats["phase_times"]
        assert set(times) >= {"bringup", "run", "record", "reset"}
        assert all(v > 0 for v in times.values())

    def test_phase_times_absent_by_default(self):
        result = Campaign(functions=("XM_halt_partition",)).run()
        assert "phase_times" not in result.execution_stats
