"""Tests for the resilience layer: failpoints, arbitration, quarantine.

Covers the failpoint framework (parsing, determinism, firing semantics),
retry-with-quorum verdict arbitration (units plus serial/parallel
integration with injected hangs and kills), the killer quarantine
(persistence, campaign skip-with-record, CLI review), the respawn
circuit breaker (units plus the deterministic-killer regression suite
and the degrade-to-serial path), the hardened progress/sink callbacks,
fsync'd checkpointing, and the chaos soak: a campaign interrupted by
seeded injected faults and resumed from its streaming log must produce
records identical to an uninterrupted run.
"""

import multiprocessing
import os

import pytest

from repro.fault import failpoints
from repro.fault.campaign import Campaign
from repro.fault.executor import (
    FAULT_ONCE_DIR_ENV,
    HANG_SPEC_ENV,
    KILL_SPEC_ENV,
    worker_killed_record,
)
from repro.fault.failpoints import ChaosError, Failpoints, Rule
from repro.fault.mutant import ArgSpec, TestCallSpec
from repro.fault.resilience import (
    Quarantine,
    RespawnBreaker,
    RetryPolicy,
    VerdictArbiter,
    quarantined_record,
)
from repro.fault.stats import durability_summary
from repro.fault.testlog import CampaignLog, LogStream, TestRecord
from repro.fault.wire import decode_record, encode_record

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel execution requires the fork start method",
)

SUITE = ("XM_reset_system",)  # 5 specs: small enough to soak repeatedly
#: Watchdog budget of the serial arbitration tests.  The injected hangs
#: spin until it expires; a clean spec of SUITE takes 0.07-0.27 s on a
#: 2-CPU host, so 1.5 s keeps innocent specs clear of it on slower hosts.
HANG_BUDGET_S = 1.5


def strip_provenance(record):
    """Record dict minus fields that legitimately vary between runs."""
    data = record.to_dict()
    for field in ("wall_time_s", "host_context", "attempts", "arbitrated"):
        data.pop(field)
    return data


def make_spec(n=0, function="XM_mask_irq"):
    return TestCallSpec(
        f"res#{n}",
        function,
        "Interrupt Management",
        (ArgSpec("irqLine", "1", value=1),),
    )


class TestFailpoints:
    def test_chaos_arms_every_site(self):
        armed = Failpoints.chaos(seed=3, rate=0.5)
        assert set(armed.rules) == set(failpoints.SITES)
        assert all(rule.action == "*" for rule in armed.rules.values())

    def test_parse_chaos_grammar(self):
        armed = Failpoints.parse("chaos:42:0.25")
        assert armed.seed == 42
        assert armed.rules["executor.run"].probability == 0.25

    def test_parse_explicit_clauses(self):
        armed = Failpoints.parse(
            "testlog.append=short-write@3, executor.run=raise:0.1"
        )
        assert armed.rules["testlog.append"] == Rule(
            "short-write", probability=1.0, at_hit=3
        )
        assert armed.rules["executor.run"] == Rule("raise", probability=0.1)

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint site"):
            Failpoints.parse("no.such.site=raise")

    def test_disallowed_action_rejected(self):
        # short-write is cooperative: only the log-append site owns a
        # file write it can truncate.
        with pytest.raises(ValueError, match="not allowed"):
            Failpoints.parse("executor.run=short-write")

    def test_malformed_clause_rejected(self):
        with pytest.raises(ValueError, match="site=action"):
            Failpoints.parse("testlog.append")

    def test_at_hit_fires_exactly_once(self):
        armed = Failpoints({"executor.recycle": Rule("raise", at_hit=2)})
        assert armed.fire("executor.recycle") is None
        with pytest.raises(ChaosError):
            armed.fire("executor.recycle")
        for _ in range(5):
            assert armed.fire("executor.recycle") is None
        assert armed.hits("executor.recycle") == 7

    def test_unarmed_site_is_a_no_op(self):
        armed = Failpoints({"executor.run": Rule("delay")})
        assert armed.fire("testlog.flush") is None

    def test_probabilistic_schedule_is_deterministic_per_seed(self):
        def schedule(seed):
            armed = Failpoints.chaos(seed=seed, rate=0.3)
            fired = []
            for hit in range(60):
                try:
                    result = armed.fire("testlog.flush")
                except ChaosError:
                    result = "raise"
                fired.append((hit, result))
            return fired

        assert schedule(7) == schedule(7)  # same seed: same fault schedule
        assert schedule(7) != schedule(8)  # different seed: different one

    def test_kill_degrades_to_raise_outside_workers(self):
        # In the campaign parent the kill action must never take the
        # harness down; it degrades to an in-process ChaosError.
        armed = Failpoints({"executor.run": Rule("kill")})
        assert not failpoints._WORKER_PROCESS
        with pytest.raises(ChaosError):
            armed.fire("executor.run")

    def test_short_write_is_returned_to_the_caller(self):
        armed = Failpoints({"testlog.append": Rule("short-write")})
        assert armed.fire("testlog.append") == "short-write"

    def test_active_reparses_only_on_env_change(self, monkeypatch):
        monkeypatch.setenv(failpoints.ENV_VAR, "executor.run=raise@5")
        first = failpoints.active()
        assert first is failpoints.active()  # cached while env unchanged
        monkeypatch.setenv(failpoints.ENV_VAR, "executor.run=raise@6")
        assert failpoints.active() is not first
        monkeypatch.delenv(failpoints.ENV_VAR)
        assert failpoints.active() is None


class TestRetryPolicy:
    def test_defaults_rerun_suspects_once(self):
        policy = RetryPolicy()
        assert (policy.max_attempts, policy.quorum) == (3, 2)
        assert not policy.single_shot

    def test_single_shot_forms(self):
        assert RetryPolicy(max_attempts=1, quorum=1).single_shot
        assert RetryPolicy(max_attempts=3, quorum=1).single_shot
        assert not RetryPolicy(max_attempts=2, quorum=2).single_shot

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="quorum"):
            RetryPolicy(max_attempts=2, quorum=3)
        with pytest.raises(ValueError, match="backoff_s"):
            RetryPolicy(backoff_s=-1.0)


class TestVerdictArbiter:
    def test_quorum_decides(self):
        arbiter = VerdictArbiter(RetryPolicy(max_attempts=3, quorum=2))
        assert not arbiter.observe("t", "worker_killed")
        assert arbiter.observe("t", "worker_killed")
        assert arbiter.observations("t") == ["worker_killed", "worker_killed"]

    def test_attempt_budget_caps_arbitration(self):
        arbiter = VerdictArbiter(RetryPolicy(max_attempts=2, quorum=2))
        assert not arbiter.observe("t", "watchdog_expired")
        assert arbiter.observe("t", "watchdog_expired")

    def test_annotate_lethal_and_genuine(self):
        arbiter = VerdictArbiter(RetryPolicy())
        arbiter.observe("t", "watchdog_expired")
        lethal = TestRecord("t", "f", "c", watchdog_expired=True, sim_hung=True)
        arbiter.annotate(lethal)
        assert (lethal.attempts, lethal.arbitrated) == (1, False)
        # A genuine completion after one lethal observation consumed
        # one run more than the observation count.
        genuine = TestRecord("t", "f", "c")
        arbiter.annotate(genuine)
        assert (genuine.attempts, genuine.arbitrated) == (2, True)
        # No lethal history: annotate leaves the record untouched.
        clean = TestRecord("u", "f", "c")
        arbiter.annotate(clean)
        assert (clean.attempts, clean.arbitrated) == (1, False)


class TestQuarantinePersistence:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "q.json"
        quarantine = Quarantine.load(path)  # missing file = empty
        assert len(quarantine) == 0
        quarantine.add("k#1", "XM_mask_irq", ["worker_killed"] * 2)
        quarantine.add("k#1", "XM_mask_irq", ["ignored"])  # idempotent
        assert quarantine.dirty
        quarantine.save()
        assert not quarantine.dirty
        loaded = Quarantine.load(path)
        assert "k#1" in loaded and len(loaded) == 1
        assert loaded.entries["k#1"]["observations"] == ["worker_killed"] * 2

    def test_remove_and_clear(self, tmp_path):
        quarantine = Quarantine(tmp_path / "q.json", {"a": {}, "b": {}})
        assert quarantine.remove("a")
        assert not quarantine.remove("a")
        quarantine.clear()
        assert len(quarantine) == 0 and list(quarantine) == []

    def test_quarantined_record_keeps_the_verdict(self):
        record = quarantined_record(
            make_spec(), "3.4.0", 2, {"observations": ["worker_killed"]}
        )
        assert record.worker_killed and record.quarantined
        assert record.host_context["observations"] == ["worker_killed"]
        # The verdict survives the wire, so saved logs show the skip.
        assert decode_record(encode_record(record)).quarantined

    def test_save_honors_umask(self, tmp_path):
        """The atomic save must not keep mkstemp's 0600 mode — a shared
        quarantine file other users cannot read defeats its purpose."""
        path = tmp_path / "q.json"
        quarantine = Quarantine(path, {"k#1": {}})
        umask = os.umask(0o022)
        try:
            quarantine.save()
        finally:
            os.umask(umask)
        assert os.stat(path).st_mode & 0o777 == 0o644

    def test_save_respects_tighter_umask(self, tmp_path):
        path = tmp_path / "q.json"
        quarantine = Quarantine(path, {"k#1": {}})
        umask = os.umask(0o077)
        try:
            quarantine.save()
        finally:
            os.umask(umask)
        assert os.stat(path).st_mode & 0o777 == 0o600


class TestRespawnBreaker:
    def test_trips_after_consecutive_unproductive_rounds(self):
        breaker = RespawnBreaker(limit=2)
        breaker.note_spawn()
        breaker.note_round(productive=False)
        assert not breaker.tripped
        breaker.note_round(productive=True)  # progress resets the streak
        breaker.note_round(productive=False)
        assert not breaker.tripped
        breaker.note_round(productive=False)
        assert breaker.tripped
        assert breaker.respawns == 1


class TestSerialArbitration:
    def test_watchdog_verdict_needs_quorum(self, monkeypatch):
        campaign = Campaign(functions=SUITE)
        victim = next(iter(campaign.iter_specs()))
        monkeypatch.setenv(HANG_SPEC_ENV, victim.test_id)
        result = campaign.run(timeout_s=HANG_BUDGET_S)
        record = next(r for r in result.log if r.test_id == victim.test_id)
        assert record.watchdog_expired and record.sim_hung
        assert (record.attempts, record.arbitrated) == (2, True)
        assert record.host_context == {
            "processes": 1,
            "shard_size": 1,
            "attempt": 2,
        }
        summary = durability_summary(result.log)
        assert summary["arbitrated"] == 1
        assert summary["retried_runs"] == 1

    def test_transient_hang_is_retried_to_a_genuine_record(
        self, tmp_path, monkeypatch
    ):
        # The hang fires exactly once (one-shot marker dir): the first
        # run expires the watchdog, the re-run completes normally, and
        # the genuine record wins the arbitration — with the consumed
        # attempts on record.
        campaign = Campaign(functions=SUITE)
        clean = campaign.run().log.records
        victim = next(iter(campaign.iter_specs()))
        monkeypatch.setenv(HANG_SPEC_ENV, victim.test_id)
        monkeypatch.setenv(FAULT_ONCE_DIR_ENV, str(tmp_path))
        result = campaign.run(timeout_s=HANG_BUDGET_S)
        record = next(r for r in result.log if r.test_id == victim.test_id)
        assert not record.watchdog_expired and not record.sim_hung
        assert (record.attempts, record.arbitrated) == (2, True)
        expected = next(r for r in clean if r.test_id == victim.test_id)
        assert strip_provenance(record) == strip_provenance(expected)

    def test_serial_run_boots_before_the_first_spec(self, monkeypatch):
        # The warm-boot snapshot is built before any spec runs, so the
        # first spec's watchdog never pays for it.
        from repro.fault.executor import TestExecutor

        events = []
        prepare, run_group = TestExecutor.prepare, TestExecutor.run_group

        def prepared(executor):
            events.append("prepare")
            prepare(executor)

        def ran(executor, *args, **kwargs):
            events.append("run")
            return run_group(executor, *args, **kwargs)

        monkeypatch.setattr(TestExecutor, "prepare", prepared)
        monkeypatch.setattr(TestExecutor, "run_group", ran)
        Campaign(functions=SUITE).run()
        assert events[0] == "prepare" and "run" in events

    def test_single_shot_policy_restores_first_sight_verdicts(
        self, monkeypatch
    ):
        campaign = Campaign(functions=SUITE)
        victim = next(iter(campaign.iter_specs()))
        monkeypatch.setenv(HANG_SPEC_ENV, victim.test_id)
        result = campaign.run(
            timeout_s=HANG_BUDGET_S, retry_policy=RetryPolicy(max_attempts=1, quorum=1)
        )
        record = next(r for r in result.log if r.test_id == victim.test_id)
        assert record.watchdog_expired
        assert (record.attempts, record.arbitrated) == (1, False)


@needs_fork
class TestParallelArbitration:
    def test_killer_verdict_is_quorum_arbitrated(self, monkeypatch):
        campaign = Campaign(functions=SUITE, warm_boot=False)
        victim = next(iter(campaign.iter_specs()))
        monkeypatch.setenv(KILL_SPEC_ENV, victim.test_id)
        result = campaign.run(processes=2)
        record = next(r for r in result.log if r.test_id == victim.test_id)
        assert record.worker_killed
        assert (record.attempts, record.arbitrated) == (2, True)
        assert record.host_context["processes"] == 2
        assert record.host_context["attempt"] == 2
        assert result.execution_stats["retries"] == 1

    def test_transient_kill_is_exonerated(self, tmp_path, monkeypatch):
        # The kill fires once (one-shot marker): the probe re-run
        # completes normally, so no worker_killed verdict is issued and
        # the record is the genuine one.
        campaign = Campaign(functions=SUITE, warm_boot=False)
        clean = campaign.run().log.records
        victim = next(iter(campaign.iter_specs()))
        monkeypatch.setenv(KILL_SPEC_ENV, victim.test_id)
        monkeypatch.setenv(FAULT_ONCE_DIR_ENV, str(tmp_path))
        result = campaign.run(processes=2)
        record = next(r for r in result.log if r.test_id == victim.test_id)
        assert not record.worker_killed
        expected = next(r for r in clean if r.test_id == victim.test_id)
        assert strip_provenance(record) == strip_provenance(expected)
        assert durability_summary(result.log)["worker_killed"] == 0


@needs_fork
class TestKillerSuiteRegression:
    def test_every_spec_killing_its_worker_stays_bounded(
        self, tmp_path, monkeypatch
    ):
        # Probe-loop pathology: a suite where *every* spec kills its
        # worker must terminate with one quorum-arbitrated
        # worker_killed record per spec and a bounded number of pool
        # respawns (the respawn circuit breaker's regression test).
        monkeypatch.setenv(KILL_SPEC_ENV, "*")
        campaign = Campaign(functions=SUITE, warm_boot=False)
        total = campaign.total_tests()
        quarantine_path = tmp_path / "killers.json"
        result = campaign.run(processes=2, quarantine_path=quarantine_path)
        assert len(result.log) == total
        assert all(r.worker_killed for r in result.log)
        assert all(
            (r.attempts, r.arbitrated) == (2, True) for r in result.log
        )
        stats = result.execution_stats
        # Each verdict needs exactly two probe-observed kills.
        assert stats["probe_respawns"] == 2 * total
        assert stats["pool_respawns"] <= total
        assert not stats["degraded_serial"]
        assert len(Quarantine.load(quarantine_path)) == total

    def test_quarantined_killers_are_skipped_with_records(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(KILL_SPEC_ENV, "*")
        campaign = Campaign(functions=SUITE, warm_boot=False)
        quarantine_path = tmp_path / "killers.json"
        campaign.run(processes=2, quarantine_path=quarantine_path)
        # Second campaign: nothing is re-fed to a worker, yet the
        # verdicts stay visible as quarantined worker_killed records.
        rerun = campaign.run(processes=2, quarantine_path=quarantine_path)
        assert len(rerun.log) == campaign.total_tests()
        assert all(r.worker_killed and r.quarantined for r in rerun.log)
        assert rerun.execution_stats["quarantined_skips"] == len(rerun.log)
        assert rerun.execution_stats["pool_respawns"] == 0
        summary = durability_summary(rerun.log)
        assert summary["quarantined"] == len(rerun.log)


@needs_fork
class TestRespawnBudgetDegrade:
    def test_unproductive_respawns_degrade_to_serial(self, tmp_path, monkeypatch):
        # Workers that keep dying without delivering anything must not
        # be respawned forever: after the breaker's limit the campaign
        # finishes on the serial in-process runner.  The first worker
        # dies on its first lease (so it does not look like a worker
        # that cannot start); every respawn dies before it connects.
        # Workers are forked, so they inherit both patches.
        import repro.fabric.coordinator as coordinator_mod
        from repro.fabric.worker import WorkerAgent, run_worker

        campaign = Campaign(functions=SUITE)
        specs = list(campaign.iter_specs())
        spawns = tmp_path / "spawns"

        async def die_on_lease(self, *lease):
            os._exit(17)

        def flaky_worker(**kwargs):
            with spawns.open("a") as fh:
                fh.write("spawn\n")
            if len(spawns.read_text().splitlines()) > 1:
                os._exit(17)
            run_worker(**kwargs)

        monkeypatch.setattr(WorkerAgent, "_execute_lease", die_on_lease)
        monkeypatch.setattr(coordinator_mod, "run_worker", flaky_worker)
        with pytest.warns(UserWarning, match="respawn budget exhausted"):
            result = campaign.run(processes=1)
        assert len(result.log) == len(specs)
        stats = result.execution_stats
        assert stats["degraded_serial"]
        assert stats["pool_respawns"] == RespawnBreaker().limit
        # Spawns: the first worker + exactly `limit` unproductive
        # respawns; the breaker stops the thrash there.
        assert len(spawns.read_text().splitlines()) == 1 + RespawnBreaker().limit

    def test_initializer_failure_still_raises(self, monkeypatch):
        from repro.fabric.worker import WorkerAgent

        campaign = Campaign(functions=SUITE)

        def never_starts(self, config_dict):
            raise RuntimeError("worker set-up failed")

        monkeypatch.setattr(WorkerAgent, "_build_state", never_starts)
        with pytest.raises(RuntimeError, match="before any test started"):
            campaign.run(processes=2)


@needs_fork
class TestHardenedCallbacks:
    def test_raising_progress_hook_does_not_abort_the_campaign(self):
        calls = {"n": 0}

        def bad_progress(done, out_of, record):
            calls["n"] += 1
            raise RuntimeError("progress bar exploded")

        campaign = Campaign(functions=SUITE)
        with pytest.warns(UserWarning, match="progress callback raised"):
            result = campaign.run(processes=2, progress=bad_progress)
        assert len(result.log) == campaign.total_tests()
        assert calls["n"] == len(result.log)  # hook kept being called

    def test_raising_sink_warns_once_and_campaign_survives(
        self, tmp_path, monkeypatch
    ):
        # The streaming log is the checkpoint sink; break it behind the
        # campaign's back after the first record.
        campaign = Campaign(functions=SUITE)
        path = tmp_path / "log.jsonl"
        seen = []
        append = LogStream.append

        def brittle_append(stream, record):
            seen.append(record.test_id)
            if len(seen) > 1:
                raise OSError("disk went away")
            append(stream, record)

        monkeypatch.setattr(LogStream, "append", brittle_append)
        with pytest.warns(UserWarning, match="sink callback raised"):
            records = campaign.run(processes=2, log_path=path).log.records
        assert len(records) == campaign.total_tests()
        assert len(seen) == len(records)

    def test_keyboard_interrupt_from_progress_still_aborts(self):
        # Interrupting from a hook is the documented way to stop a
        # campaign; hardening must not swallow BaseException.
        def interrupt(done, out_of, record):
            raise KeyboardInterrupt

        campaign = Campaign(functions=SUITE)
        with pytest.raises(KeyboardInterrupt):
            campaign.run(processes=2, progress=interrupt)


class TestFsyncStream:
    def test_fsync_follows_every_flush(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        path = tmp_path / "log.jsonl"
        with LogStream(path, fsync=True) as stream:
            for n in range(3):
                stream.append(
                    TestRecord(f"fs#{n}", "XM_mask_irq", "Interrupt Management")
                )
        assert len(synced) >= 3  # one per checkpoint (+ one on close)
        assert len(CampaignLog.load(path)) == 3

    def test_flush_only_stream_never_fsyncs(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd))
        with LogStream(tmp_path / "log.jsonl") as stream:
            stream.append(TestRecord("fs#0", "XM_mask_irq", "x"))
        assert synced == []

    def test_campaign_plumbs_log_fsync(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        campaign = Campaign(functions=SUITE)
        campaign.run(log_path=tmp_path / "log.jsonl", log_fsync=True)
        assert len(synced) >= campaign.total_tests()


class TestWireProvenance:
    def test_provenance_fields_survive_the_relay(self):
        record = worker_killed_record(
            make_spec(),
            "3.4.0",
            2,
            attempts=2,
            arbitrated=True,
            host_context={"processes": 4, "shard_size": 8, "attempt": 2},
        )
        decoded = decode_record(encode_record(record))
        assert decoded.attempts == 2 and decoded.arbitrated
        assert decoded.host_context == record.host_context

    def test_provenance_fields_survive_the_log(self, tmp_path):
        record = worker_killed_record(
            make_spec(), "3.4.0", 2, attempts=3, arbitrated=True
        )
        path = tmp_path / "log.jsonl"
        CampaignLog([record]).save(path)
        loaded = CampaignLog.load(path).records[0]
        assert (loaded.attempts, loaded.arbitrated) == (3, True)


class TestChaosSoak:
    def test_short_write_injection_is_repaired_on_resume(
        self, tmp_path, monkeypatch
    ):
        # Deterministic miniature of the soak: the third checkpoint is
        # cut short mid-line (power-loss model); reopening the stream
        # truncates the partial tail, and the dedup-by-id append
        # rewrites only the lost record.
        path = tmp_path / "log.jsonl"
        records = [
            TestRecord(f"sw#{n}", "XM_mask_irq", "Interrupt Management")
            for n in range(4)
        ]
        monkeypatch.setenv(failpoints.ENV_VAR, "testlog.append=short-write@3")
        stream = LogStream(path)
        with pytest.raises(ChaosError, match="short write"):
            for record in records:
                stream.append(record)
        stream.close()
        monkeypatch.delenv(failpoints.ENV_VAR)
        with pytest.warns(UserWarning, match="truncated final record"):
            resumed = LogStream(path)
        assert resumed.existing == {"sw#0", "sw#1"}
        for record in records:  # idempotent: durable ids are skipped
            resumed.append(record)
        resumed.close()
        loaded = CampaignLog.load(path)
        assert [r.test_id for r in loaded] == [r.test_id for r in records]

    def test_interrupted_anywhere_plus_resume_equals_uninterrupted(
        self, tmp_path, monkeypatch
    ):
        # The tentpole invariant, soaked over many random failpoint
        # seeds: run under chaos (the campaign may be interrupted at
        # any armed site), then resume from the streaming log with
        # chaos disarmed — the combined records must be identical to an
        # uninterrupted run's, modulo provenance.
        campaign = Campaign(functions=SUITE)
        baseline = [strip_provenance(r) for r in campaign.run().log]
        interrupted = 0
        for seed in range(25):
            path = tmp_path / f"chaos-{seed}.jsonl"
            monkeypatch.setenv(failpoints.ENV_VAR, f"chaos:{seed}:0.2")
            try:
                campaign.run(log_path=path)
            except ChaosError:
                interrupted += 1
            finally:
                monkeypatch.delenv(failpoints.ENV_VAR, raising=False)
            resume = CampaignLog.load(path) if path.exists() else None
            result = campaign.run(log_path=path, resume_from=resume)
            assert [
                strip_provenance(r) for r in result.log
            ] == baseline, f"seed {seed} diverged after resume"
        # With 4+ armed sites per test and a 0.2 rate, a large majority
        # of seeds must actually interrupt — otherwise the soak proves
        # nothing.
        assert interrupted >= 10

    @needs_fork
    def test_parallel_chaos_checkpoint_fault_resumes_losslessly(
        self, tmp_path, monkeypatch
    ):
        # Parent-side injection under the parallel runner: the third
        # checkpoint append raises mid-round.  The two records already
        # streamed must survive, and the resumed run must complete the
        # campaign to exactly the uninterrupted baseline.
        campaign = Campaign(functions=SUITE)
        baseline = [strip_provenance(r) for r in campaign.run().log]
        path = tmp_path / "parallel-chaos.jsonl"
        monkeypatch.setenv(failpoints.ENV_VAR, "testlog.append=raise@3")
        with pytest.raises(ChaosError):
            campaign.run(processes=2, log_path=path)
        monkeypatch.delenv(failpoints.ENV_VAR)
        checkpointed = CampaignLog.load(path)
        assert len(checkpointed) == 2
        result = campaign.run(
            processes=2, log_path=path, resume_from=checkpointed
        )
        assert [strip_provenance(r) for r in result.log] == baseline


class TestQuarantineCli:
    def test_review_remove_and_clear(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "q.json"
        quarantine = Quarantine(path)
        quarantine.add("k#1", "XM_mask_irq", ["worker_killed"])
        quarantine.add("k#2", "XM_set_timer", ["worker_killed"] * 2)
        quarantine.save()

        assert main(["quarantine", "--file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "k#1" in out and "k#2" in out and "2 quarantined" in out

        assert main(["quarantine", "--file", str(path), "--remove", "k#1"]) == 0
        assert "k#1" not in Quarantine.load(path)
        assert (
            main(["quarantine", "--file", str(path), "--remove", "k#1"]) == 2
        )

        assert main(["quarantine", "--file", str(path), "--clear"]) == 0
        assert len(Quarantine.load(path)) == 0
        assert main(["quarantine", "--file", str(path)]) == 0
        assert "empty" in capsys.readouterr().out


class TestChaosCli:
    def test_chaos_run_exits_3_and_resume_completes(self, tmp_path, capsys):
        from repro.cli import main

        log = tmp_path / "chaos.jsonl"
        code = main(
            [
                "run",
                "--functions",
                "XM_reset_system",
                "--log",
                str(log),
                "--quiet",
                "--chaos",
                "11",
                "--chaos-rate",
                "0.3",
            ]
        )
        capsys.readouterr()
        assert code in (0, 3)  # the seed may or may not fire
        assert os.environ.get(failpoints.ENV_VAR) is None  # env restored
        resume_code = main(
            [
                "run",
                "--functions",
                "XM_reset_system",
                "--log",
                str(log),
                "--resume",
                "--quiet",
            ]
        )
        capsys.readouterr()
        assert resume_code == 0
        assert len(CampaignLog.load(log)) == 5
