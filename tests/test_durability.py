"""Durable campaigns: streaming logs, worker supervision, watchdog, atomic IO."""

import json
import re
import time

import pytest

from repro.fault.campaign import Campaign
from repro.fault.classify import FailureKind, Severity, classify
from repro.fault.executor import (
    HANG_SPEC_ENV,
    KILL_SPEC_ENV,
    TestExecutor,
    worker_killed_record,
)
from repro.fault.mutant import ArgSpec, TestCallSpec
from repro.fault.oracle import Expectation
from repro.fault.stats import durability_summary
from repro.fault.testlog import CampaignLog, TestRecord
from repro.tsim.simulator import SimSnapshot
from repro.xm.vulns import FIXED_VERSION

#: The three hypercalls carrying the paper's findings: 62 tests, 9 issues.
TRIO = ("XM_reset_system", "XM_set_timer", "XM_multicall")


def make_record(test_id, **overrides):
    base = dict(
        test_id=test_id,
        function="XM_mask_irq",
        category="Interrupt Management",
        kernel_version="3.4.0",
        frames=2,
    )
    base.update(overrides)
    return TestRecord(**base)


def strip_wall_time(record):
    data = record.to_dict()
    data.pop("wall_time_s")
    # Host-side provenance legitimately differs between runs (which
    # worker ran a spec, the lease shape); the verdict must not.
    data.pop("host_context")
    return data


class TestAtomicSave:
    def test_save_leaves_no_temp_residue(self, tmp_path):
        path = tmp_path / "log.jsonl"
        CampaignLog([make_record("a"), make_record("b")]).save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["log.jsonl"]
        assert len(CampaignLog.load(path)) == 2

    def test_failed_save_preserves_existing_log(self, tmp_path, monkeypatch):
        path = tmp_path / "log.jsonl"
        CampaignLog([make_record("a")]).save(path)
        before = path.read_text(encoding="utf-8")

        # save streams line by line: fail on the second record, after
        # the first line already reached the temp file.
        to_dict = TestRecord.to_dict

        def boom(self):
            if self.test_id == "c":
                raise RuntimeError("serialiser died mid-write")
            return to_dict(self)

        monkeypatch.setattr(TestRecord, "to_dict", boom)
        with pytest.raises(RuntimeError):
            CampaignLog([make_record("b"), make_record("c")]).save(path)
        assert path.read_text(encoding="utf-8") == before
        assert [p.name for p in tmp_path.iterdir()] == ["log.jsonl"]


class TestForwardCompatibleLoad:
    def test_unknown_fields_dropped_with_warning(self):
        data = make_record("a").to_dict()
        data["from_the_future"] = 42
        with pytest.warns(UserWarning, match="from_the_future"):
            record = TestRecord.from_dict(data)
        assert record.test_id == "a"

    def test_unknown_invocation_fields_dropped(self):
        data = make_record("a").to_dict()
        data["invocations"] = [
            {"returned": True, "rc": 0, "note": "", "state": None, "gpu_ns": 1}
        ]
        record = TestRecord.from_dict(data)
        assert record.first_rc == 0

    def test_load_survives_newer_log_file(self, tmp_path):
        path = tmp_path / "newer.jsonl"
        data = make_record("a").to_dict()
        data["added_in_v99"] = {"nested": True}
        path.write_text(json.dumps(data) + "\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="added_in_v99"):
            log = CampaignLog.load(path)
        assert log.records[0].test_id == "a"


class TestLogStream:
    def test_records_hit_disk_immediately(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with CampaignLog.stream(path) as stream:
            stream.append(make_record("a"))
            # Visible to a reader before close: flushed per record.
            assert len(CampaignLog.load(path)) == 1
            stream.append(make_record("b"))
            assert len(CampaignLog.load(path)) == 2
        assert stream.written == 2

    def test_reopening_deduplicates_by_test_id(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with CampaignLog.stream(path) as stream:
            stream.append(make_record("a"))
        with CampaignLog.stream(path) as stream:
            stream.append(make_record("a"))  # already on disk: no-op
            stream.append(make_record("b"))
        log = CampaignLog.load(path)
        assert [r.test_id for r in log] == ["a", "b"]

    def test_campaign_streams_complete_log(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        result = Campaign(functions=("XM_reset_system",)).run(log_path=path)
        assert len(CampaignLog.load(path)) == result.total_tests == 5


class TestTruncatedTail:
    """A crash mid-append leaves a half-written last line; resume must cope."""

    @staticmethod
    def _write_with_truncated_tail(path):
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(make_record("a").to_dict()) + "\n")
            fh.write(json.dumps(make_record("b").to_dict()) + "\n")
            fh.write('{"test_id": "c", "fun')  # interrupted mid-append

    def test_load_drops_truncated_final_line(self, tmp_path):
        path = tmp_path / "crashed.jsonl"
        self._write_with_truncated_tail(path)
        with pytest.warns(UserWarning, match="truncated"):
            log = CampaignLog.load(path)
        assert [r.test_id for r in log] == ["a", "b"]

    def test_stream_truncates_tail_and_rewrites_lost_record(self, tmp_path):
        path = tmp_path / "crashed.jsonl"
        self._write_with_truncated_tail(path)
        with pytest.warns(UserWarning, match="truncated"):
            stream = CampaignLog.stream(path)
        with stream:
            # The half-written record is gone from the dedup set, so the
            # resumed campaign checkpoints it again.
            stream.append(make_record("c"))
            stream.append(make_record("d"))
        log = CampaignLog.load(path)  # no junk left mid-file
        assert [r.test_id for r in log] == ["a", "b", "c", "d"]

    def test_corruption_before_the_last_line_still_raises(self, tmp_path):
        path = tmp_path / "mangled.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            fh.write('{"test_id": "a", "fun\n')
            fh.write(json.dumps(make_record("b").to_dict()) + "\n")
        with pytest.raises(json.JSONDecodeError):
            CampaignLog.load(path)
        with pytest.raises(json.JSONDecodeError):
            CampaignLog.stream(path)

    @pytest.mark.parametrize("line", ["[1, 2]", '"just a string"', "null"])
    @pytest.mark.parametrize("final", [True, False], ids=["final", "mid-file"])
    def test_a_line_that_is_no_object_is_a_clear_error(self, tmp_path, line, final):
        path = tmp_path / "odd.jsonl"
        lines = [json.dumps(make_record("a").to_dict()), line]
        if not final:
            lines.append(json.dumps(make_record("b").to_dict()))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        where = re.escape(f"{path}, line 2: ")
        for open_log in (CampaignLog.load, CampaignLog.stream):
            with pytest.raises(ValueError, match=where + ".*JSON object"):
                open_log(path)

    def test_stream_repairs_missing_final_newline(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text(
            json.dumps(make_record("a").to_dict()), encoding="utf-8"
        )  # complete record, lost its newline
        with CampaignLog.stream(path) as stream:
            stream.append(make_record("b"))
        assert [r.test_id for r in CampaignLog.load(path)] == ["a", "b"]


class TestResumeValidation:
    def test_version_mismatch_rejected(self):
        fixed = Campaign(functions=("XM_reset_system",), kernel_version=FIXED_VERSION)
        log = fixed.run().log
        vulnerable = Campaign(functions=("XM_reset_system",))
        with pytest.raises(ValueError, match="kernel"):
            vulnerable.run(resume_from=log)

    def test_frames_mismatch_rejected(self):
        short = Campaign(functions=("XM_switch_sched_plan",), frames=1)
        log = short.run().log
        standard = Campaign(functions=("XM_switch_sched_plan",))
        with pytest.raises(ValueError, match="frames"):
            standard.run(resume_from=log)

    def test_matching_configuration_resumes(self):
        campaign = Campaign(functions=("XM_reset_system",))
        full = campaign.run()
        resumed = campaign.run(resume_from=CampaignLog(full.log.records[:2]))
        assert resumed.total_tests == full.total_tests

    @staticmethod
    def cartesian_log_and_pairwise_campaign():
        """A cartesian XM_set_timer log and a pairwise campaign over it.

        Test ids are positional, so the two suites share ids that name
        different argument tuples (#0001 is (HW_CLOCK, LLONG_MIN, 1) in
        the cartesian suite, (HW_CLOCK, 1, 1) in the pairwise one).
        """
        from repro.fault.combinator import PairwiseStrategy

        log = Campaign(functions=("XM_set_timer",)).run().log
        assert len(log) == 32
        pairwise = Campaign(functions=("XM_set_timer",), strategy=PairwiseStrategy())
        return log, pairwise

    def test_serial_resume_rejects_other_suites_arguments(self):
        log, pairwise = self.cartesian_log_and_pairwise_campaign()
        with pytest.raises(ValueError, match=r"XM_set_timer#0001.*'LLONG_MIN'"):
            pairwise.run(resume_from=log)

    def test_fabric_resume_rejects_other_suites_arguments(self):
        from repro.fabric import coordinate

        log, pairwise = self.cartesian_log_and_pairwise_campaign()
        with pytest.raises(ValueError, match=r"XM_set_timer#0001.*'LLONG_MIN'"):
            coordinate(pairwise, workers=1, resume_from=log)

    @pytest.mark.parametrize("command", [["run"], ["fabric", "run", "--workers", "1"]])
    def test_cli_resume_of_other_suites_log_is_a_one_line_error(
        self, tmp_path, capsys, command
    ):
        from repro.cli import main

        log, _ = self.cartesian_log_and_pairwise_campaign()
        path = tmp_path / "out.jsonl"
        log.save(path)
        before = path.read_bytes()
        code = main(
            [*command, "--functions", "XM_set_timer", "--strategy", "pairwise",
             "--quiet", "--log", str(path), "--resume"]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert "cannot resume: record XM_set_timer#0001" in errors[0]
        assert path.read_bytes() == before

    def test_resume_from_own_suites_log_still_accepted(self):
        from repro.fault.combinator import PairwiseStrategy

        pairwise = Campaign(functions=("XM_set_timer",), strategy=PairwiseStrategy())
        full = pairwise.run()
        resumed = pairwise.run(resume_from=CampaignLog(full.log.records[:5]))
        assert [strip_wall_time(r) for r in resumed.log] == [
            strip_wall_time(r) for r in full.log
        ]


class TestWarmPathLeak:
    def test_recycle_runs_when_build_record_raises(self, monkeypatch):
        executor = TestExecutor()
        spec = TestCallSpec(
            "leak#0",
            "XM_mask_irq",
            "Interrupt Management",
            (ArgSpec("irqLine", "1", value=1),),
        )
        executor.run(spec)  # warm snapshot built, warm path active
        assert executor.warm_boot
        recycled = []
        original = SimSnapshot.recycle
        monkeypatch.setattr(
            SimSnapshot,
            "recycle",
            lambda self, sim: (recycled.append(sim), original(self, sim))[1],
        )

        def boom(*args, **kwargs):
            raise RuntimeError("record builder died")

        monkeypatch.setattr(executor, "_build_record", boom)
        with pytest.raises(RuntimeError, match="record builder"):
            executor.run(spec)
        assert recycled, "restored simulator leaked on the raising path"


class TestWatchdog:
    def test_runaway_test_becomes_hung_record(self, monkeypatch):
        spec = TestCallSpec(
            "hang#0",
            "XM_mask_irq",
            "Interrupt Management",
            (ArgSpec("irqLine", "1", value=1),),
        )
        monkeypatch.setenv(HANG_SPEC_ENV, spec.test_id)
        record = TestExecutor(timeout_s=0.2).run(spec)
        assert record.sim_hung and record.watchdog_expired
        assert not record.invoked
        classification = classify(record, Expectation())
        assert classification.severity is Severity.RESTART
        assert classification.kind is FailureKind.SIM_HANG
        assert "watchdog" in classification.detail

    def test_serial_campaign_survives_runaway_test(self, monkeypatch):
        campaign = Campaign(functions=("XM_reset_system",))
        victim = list(campaign.iter_specs())[1].test_id
        monkeypatch.setenv(HANG_SPEC_ENV, victim)
        result = campaign.run(timeout_s=0.2)
        assert result.total_tests == 5
        hung = [r for r in result.log if r.watchdog_expired]
        assert [r.test_id for r in hung] == [victim]

    def test_parallel_campaign_survives_runaway_test(self, monkeypatch):
        campaign = Campaign(functions=("XM_reset_system",))
        victim = list(campaign.iter_specs())[1].test_id
        monkeypatch.setenv(HANG_SPEC_ENV, victim)
        result = campaign.run(processes=2, timeout_s=0.5)
        assert result.total_tests == 5
        hung = [r for r in result.log if r.watchdog_expired]
        assert [r.test_id for r in hung] == [victim]

    def test_no_watchdog_by_default(self):
        executor = TestExecutor()
        assert executor.timeout_s is None

    def test_finished_record_survives_slow_record_build(self, monkeypatch):
        """The timer is disarmed the moment the run phase ends.

        A test that completes just under the deadline must not have its
        finished record discarded because SIGALRM fires during
        _build_record or snapshot recycling.
        """
        spec = TestCallSpec(
            "slowbuild#0",
            "XM_mask_irq",
            "Interrupt Management",
            (ArgSpec("irqLine", "1", value=1),),
        )
        original = TestExecutor._build_record

        def slow_build(self, *args, **kwargs):
            time.sleep(0.5)  # well past the watchdog deadline
            return original(self, *args, **kwargs)

        monkeypatch.setattr(TestExecutor, "_build_record", slow_build)
        record = TestExecutor(timeout_s=0.2).run(spec)
        assert not record.watchdog_expired
        assert not record.sim_hung
        assert record.invoked


class TestWorkerSupervision:
    def test_killed_worker_does_not_forfeit_the_campaign(self, monkeypatch):
        campaign = Campaign(functions=("XM_reset_system", "XM_switch_sched_plan"))
        baseline = campaign.run()
        specs = list(campaign.iter_specs())
        # A nominally-passing spec so the kill adds exactly one issue.
        victim = [s for s in specs if s.function == "XM_switch_sched_plan"][0]
        monkeypatch.setenv(KILL_SPEC_ENV, victim.test_id)
        result = campaign.run(processes=2)
        # Zero completed records lost, the killer logged first-class.
        assert result.total_tests == baseline.total_tests
        killed = [r for r in result.log if r.worker_killed]
        assert [r.test_id for r in killed] == [victim.test_id]
        assert result.issue_count() == baseline.issue_count() + 1
        extra = [i for i in result.issues if i.kind is FailureKind.WORKER_KILLED]
        assert len(extra) == 1
        assert extra[0].severity is Severity.CATASTROPHIC
        assert extra[0].hypercall == "XM_switch_sched_plan"
        # Every other record matches the serial baseline field-for-field.
        survivors = {
            r.test_id: strip_wall_time(r)
            for r in result.log
            if not r.worker_killed
        }
        expected = {
            r.test_id: strip_wall_time(r)
            for r in baseline.log
            if r.test_id != victim.test_id
        }
        assert survivors == expected

    def test_worker_killed_record_roundtrips_and_counts(self, tmp_path):
        spec = TestCallSpec(
            "kill#0",
            "XM_mask_irq",
            "Interrupt Management",
            (ArgSpec("irqLine", "1", value=1),),
        )
        record = worker_killed_record(spec, "3.4.0", 2)
        path = tmp_path / "log.jsonl"
        CampaignLog([record]).save(path)
        loaded = CampaignLog.load(path).records[0]
        assert loaded.worker_killed
        summary = durability_summary(CampaignLog([record]))
        assert summary["worker_killed"] == 1
        assert summary["watchdog_expired"] == 0


class TestCliStaleLog:
    def test_fresh_run_moves_stale_log_aside(self, tmp_path, capsys):
        """--log on an existing file without --resume must not let the
        stream dedup fresh results against a previous run's records."""
        from repro.cli import main

        path = tmp_path / "out.jsonl"
        campaign = Campaign(functions=("XM_reset_system",))
        victim = list(campaign.iter_specs())[0].test_id
        stale = make_record(victim, halt_reason="stale-previous-run")
        CampaignLog([stale]).save(path)
        code = main(
            ["run", "--functions", "XM_reset_system", "--quiet", "--log", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        fresh = CampaignLog.load(path)
        assert len(fresh) == 5
        assert all(r.halt_reason != "stale-previous-run" for r in fresh)
        prev = tmp_path / "out.jsonl.prev"
        assert prev.exists()
        assert CampaignLog.load(prev).records[0].halt_reason == "stale-previous-run"


class TestKillResumeRerun:
    """The acceptance cycle: kill, interrupt, resume — nothing lost."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return Campaign(functions=TRIO)

    def test_interrupted_resumed_equals_uninterrupted(
        self, campaign, tmp_path, monkeypatch
    ):
        specs = list(campaign.iter_specs())
        killer = [s for s in specs if s.function == "XM_set_timer"][5].test_id
        monkeypatch.setenv(KILL_SPEC_ENV, killer)
        baseline = campaign.run(processes=2)
        assert any(r.worker_killed for r in baseline.log)

        path = tmp_path / "trio.jsonl"

        def interrupt(done, total, record):
            if done == 15:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            campaign.run(processes=2, progress=interrupt, log_path=path)
        partial = CampaignLog.load(path)
        assert 1 <= len(partial) < baseline.total_tests

        resumed = campaign.run(
            processes=2, resume_from=partial, log_path=path
        )
        assert resumed.total_tests == baseline.total_tests == 62
        assert [strip_wall_time(r) for r in resumed.log] == [
            strip_wall_time(r) for r in baseline.log
        ]
        assert [i.key for i in resumed.issues] == [i.key for i in baseline.issues]
        assert resumed.severity_counts() == baseline.severity_counts()
        # The streamed file alone is the complete campaign.
        assert len(CampaignLog.load(path)) == baseline.total_tests

    def test_serial_interrupt_resume_keeps_paper_counts(self, campaign, tmp_path):
        from repro.fault.report import table3_totals

        path = tmp_path / "serial.jsonl"

        def interrupt(done, total, record):
            if done == 20:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            campaign.run(progress=interrupt, log_path=path)
        assert len(CampaignLog.load(path)) == 20

        resumed = campaign.run(
            resume_from=CampaignLog.load(path), log_path=path
        )
        assert resumed.issue_count() == 9  # Table III on 3.4.0
        assert table3_totals(resumed).tests == 62

    def test_resume_on_fixed_kernel_stays_clean(self, tmp_path):
        campaign = Campaign(functions=TRIO, kernel_version=FIXED_VERSION)
        path = tmp_path / "fixed.jsonl"

        def interrupt(done, total, record):
            if done == 10:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            campaign.run(progress=interrupt, log_path=path)
        resumed = campaign.run(
            resume_from=CampaignLog.load(path), log_path=path
        )
        assert resumed.total_tests == 62
        assert resumed.issue_count() == 0  # Table III on 3.4.1


class TestStatsTrailer:
    """Execution stats must survive the round trip through the log file."""

    def test_streamed_log_carries_execution_stats(self, tmp_path):
        path = tmp_path / "run.jsonl"
        live = Campaign(functions=("XM_reset_system",)).run(log_path=path)
        assert live.execution_stats  # the live path always has them
        loaded = CampaignLog.load(path)
        assert loaded.execution_stats == live.execution_stats

    def test_offline_report_identical_to_live(self, tmp_path):
        """The acceptance criterion: analysing the streamed log offline
        must reproduce the live report line for line — including the
        execution-stats section that used to be lost."""
        from repro.fault.report import full_report

        path = tmp_path / "run.jsonl"
        campaign = Campaign(functions=("XM_reset_system",))
        live = campaign.run(log_path=path)
        offline = campaign.analyse(CampaignLog.load(path))
        assert full_report(offline) == full_report(live)

    def test_save_preserves_stats(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = Campaign(functions=("XM_reset_system",)).run(log_path=path)
        copy = tmp_path / "copy.jsonl"
        CampaignLog.load(path).save(copy)
        assert CampaignLog.load(copy).execution_stats == result.execution_stats

    def test_trailer_is_invisible_to_record_parsing(self, tmp_path):
        path = tmp_path / "run.jsonl"
        result = Campaign(functions=("XM_reset_system",)).run(log_path=path)
        assert len(CampaignLog.load(path)) == result.total_tests
        trailers = [
            line
            for line in path.read_text(encoding="utf-8").splitlines()
            if "__campaign_stats__" in line
        ]
        assert len(trailers) == 1

    def test_resumed_run_merges_interrupted_counters(self, tmp_path):
        path = tmp_path / "run.jsonl"
        campaign = Campaign(functions=("XM_reset_system",))

        def interrupt(done, total, record):
            if done == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            campaign.run(progress=interrupt, log_path=path)
        partial = CampaignLog.load(path)
        assert partial.execution_stats is not None
        first_leg = partial.execution_stats["reset_modes"]
        resumed = campaign.run(resume_from=partial, log_path=path)
        merged = resumed.execution_stats["reset_modes"]
        # The resumed run's ladder counters include the first leg's.
        assert sum(merged.values()) >= sum(first_leg.values())
        assert sum(
            v for k, v in merged.items()
            if k in ("delta", "restore", "cold")
        ) == resumed.total_tests

    def test_reset_modes_reach_the_report(self):
        from repro.fault.report import campaign_summary

        result = Campaign(functions=("XM_reset_system",)).run()
        assert "Reset modes" in campaign_summary(result)

    def test_process_pool_trailer_loads_merges_and_reports(self, tmp_path):
        """Logs written by the former process-pool runner carry its
        ``pool_respawns``/``probe_respawns`` counters in the trailer:
        they still load, fold into a resumed run and reach the report."""
        from repro.fault.report import campaign_summary
        from repro.fault.testlog import STATS_KEY

        campaign = Campaign(functions=("XM_reset_system",))
        records = campaign.run().log.records
        pool_stats = {
            "pool_respawns": 1,
            "probe_respawns": 2,
            "retries": 1,
            "degraded_serial": False,
            "quarantined_skips": 0,
            "reset_modes": {"delta": 2},
        }
        path = tmp_path / "pool.jsonl"
        lines = [json.dumps(record.to_dict()) for record in records[:2]]
        lines.append(json.dumps({STATS_KEY: pool_stats}))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        partial = CampaignLog.load(path)
        assert partial.execution_stats == pool_stats
        resumed = campaign.run(resume_from=partial, log_path=path)
        stats = resumed.execution_stats
        assert (stats["pool_respawns"], stats["probe_respawns"]) == (1, 2)
        assert stats["retries"] == 1
        assert "1 main, 2 probe" in campaign_summary(resumed)
        offline = campaign.analyse(CampaignLog.load(path))
        assert campaign_summary(offline) == campaign_summary(resumed)


class TestStaleLogRefused:
    """A run without resume must not stream into a log holding records.

    The stream skips appends whose test id is already on disk, so the
    old records would silently survive under the new run's trailer.
    """

    @pytest.mark.parametrize("processes", [None, 2])
    def test_fresh_run_into_existing_log_raises(self, tmp_path, processes):
        import re

        path = tmp_path / "reset.jsonl"
        Campaign(functions=("XM_reset_system",)).run(log_path=path)
        before = path.read_bytes()
        fixed = Campaign(
            functions=("XM_reset_system",), kernel_version=FIXED_VERSION
        )
        with pytest.raises(ValueError, match=re.escape(str(path))):
            fixed.run(processes=processes, log_path=path)
        assert path.read_bytes() == before


class TestWarningDedup:
    def test_one_warning_per_unknown_field_set_on_load(self, tmp_path):
        import warnings as warnings_mod

        path = tmp_path / "newer.jsonl"
        lines = []
        for test_id in "abcde":
            data = make_record(test_id).to_dict()
            data["future_field"] = 1
            lines.append(json.dumps(data))
        data = make_record("f").to_dict()
        data["other_field"] = 2
        lines.append(json.dumps(data))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        with warnings_mod.catch_warnings(record=True) as caught:
            warnings_mod.simplefilter("always")
            log = CampaignLog.load(path)
        assert len(log) == 6
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2  # one per distinct unknown-field set
        by_field = {m for m in messages if "future_field" in m}
        assert any("5 record(s)" in m for m in by_field)
        assert any("1 record(s)" in m for m in messages if "other_field" in m)
