"""Warm-boot snapshot execution: snapshot/restore, identity, fallbacks."""

import pytest

from repro.fault.campaign import Campaign
from repro.fault.executor import CampaignPayload, ResetVerifyError, TestExecutor
from repro.fault.mutant import ArgSpec, TestCallSpec, default_layout
from repro.testbed import build_system
from repro.testbed.dummy import build_dummy_system
from repro.tsim.simulator import SnapshotCache, SnapshotError


def record_key(record):
    """Field-for-field identity, wall time excluded (the only nondeterminism)."""
    data = record.to_dict()
    data.pop("wall_time_s")
    return data


def nominal_spec(test_id="warm#0"):
    return TestCallSpec(
        test_id,
        "XM_mask_irq",
        "Interrupt Management",
        (ArgSpec("irqLine", "1", value=1),),
    )


class TestSimulatorSnapshot:
    def test_snapshot_requires_a_running_system(self):
        sim = build_system()
        with pytest.raises(SnapshotError):
            sim.snapshot()

    def test_restore_resumes_at_capture_time(self):
        sim = build_system(fdir_payload=CampaignPayload(layout=default_layout()))
        kernel = sim.boot()
        sim.run_until(kernel.major_frame_us - 1)
        snapshot = sim.snapshot()
        restored = snapshot.restore()
        assert restored is not sim
        assert restored.now_us == sim.now_us
        restored.run_until(3 * kernel.major_frame_us)
        assert not restored.kernel.is_halted()
        # Frames start at 0, F, 2F and 3F: the restored schedule kept going.
        assert restored.kernel.sched.major_frame_count == 4

    def test_restored_systems_are_independent(self):
        sim = build_system(fdir_payload=CampaignPayload(layout=default_layout()))
        kernel = sim.boot()
        sim.run_until(kernel.major_frame_us - 1)
        snapshot = sim.snapshot()
        first = snapshot.restore()
        first.run_until(2 * kernel.major_frame_us)
        first.kernel.machine.memory.write(0x40001000, b"\xde\xad")
        second = snapshot.restore()
        # The first restore's progress and writes must not leak into the second.
        assert second.now_us == kernel.major_frame_us - 1
        assert second.kernel.machine.memory.read(0x40001000, 2) != b"\xde\xad"

    def test_recycle_then_restore_is_clean(self):
        sim = build_system(fdir_payload=CampaignPayload(layout=default_layout()))
        kernel = sim.boot()
        sim.run_until(kernel.major_frame_us - 1)
        snapshot = sim.snapshot()
        first = snapshot.restore()
        first.kernel.machine.memory.write(0x40001000, b"\xde\xad\xbe\xef")
        snapshot.recycle(first)
        second = snapshot.restore()
        assert second.kernel.machine.memory.read(0x40001000, 4) != b"\xde\xad\xbe\xef"
        second.run_until(3 * kernel.major_frame_us)
        assert not second.kernel.is_halted()

    def test_closure_payloads_are_not_snapshottable(self):
        sim = build_system(fdir_payload=lambda ctx, xm: None)
        kernel = sim.boot()
        sim.run_until(kernel.major_frame_us - 1)
        with pytest.raises(SnapshotError):
            sim.snapshot()


class TestSnapshotCache:
    def test_builds_once_per_key(self):
        cache = SnapshotCache()
        built = []

        def builder():
            built.append(1)
            return object()

        a = cache.get_or_build("k", builder)
        b = cache.get_or_build("k", builder)
        assert a is b
        assert built == [1]
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


class TestExecutorModes:
    def test_custom_system_factory_forces_cold(self):
        executor = TestExecutor(system_factory=build_dummy_system)
        assert not executor.warm_boot

    def test_warm_executor_falls_back_on_unsnapshottable_system(self):
        # warm_boot was requested, but prepare() discovers the snapshot
        # cannot be built and drops to cold without failing the campaign.
        executor = TestExecutor(snapshot_cache=SnapshotCache())
        executor._build_snapshot = lambda: (_ for _ in ()).throw(SnapshotError("x"))
        executor.prepare()
        assert not executor.warm_boot
        record = executor.run(nominal_spec())
        assert record.first_rc == 0

    def test_warm_and_cold_single_test_identical(self):
        spec = nominal_spec()
        warm = TestExecutor(snapshot_cache=SnapshotCache()).run(spec)
        cold = TestExecutor(warm_boot=False).run(spec)
        assert record_key(warm) == record_key(cold)

    def test_warm_reuses_one_boot_across_tests(self):
        cache = SnapshotCache()
        executor = TestExecutor(snapshot_cache=cache)
        for index in range(3):
            executor.run(nominal_spec(f"warm#{index}"))
        assert cache.misses == 1
        assert cache.hits == 2


class TestWarmColdCampaignIdentity:
    """Warm boot must be an optimisation, never a behaviour change."""

    # XM_set_timer carries crash/halt/silent findings; the status call
    # covers the plain expected-error mass.
    SCOPE = ("XM_set_timer", "XM_get_partition_status")

    @pytest.fixture(scope="class")
    def pair(self):
        warm = Campaign(functions=self.SCOPE, warm_boot=True).run()
        cold = Campaign(functions=self.SCOPE, warm_boot=False).run()
        return warm, cold

    def test_records_field_for_field_identical(self, pair):
        warm, cold = pair
        assert [record_key(r) for r in warm.log] == [record_key(r) for r in cold.log]

    def test_classifications_identical(self, pair):
        warm, cold = pair

        def signature(result):
            return [
                (record.test_id, cls.severity, cls.kind, expect.allowed)
                for record, expect, cls in result.classified
            ]

        assert signature(warm) == signature(cold)

    def test_issue_clusters_identical(self, pair):
        warm, cold = pair

        def clusters(result):
            return [
                (i.hypercall, i.kind, i.detail_key, i.case_count,
                 i.matched_vulnerability)
                for i in result.issues
            ]

        assert clusters(warm) == clusters(cold)


class TestDeltaResetCampaignIdentity:
    """Delta reset, full restore and cold boot must agree record for record."""

    SCOPE = ("XM_reset_partition", "XM_get_partition_status", "XM_halt_partition")

    @pytest.fixture(scope="class")
    def trio(self):
        delta = Campaign(functions=self.SCOPE, delta_reset=True).run()
        restore = Campaign(functions=self.SCOPE, delta_reset=False).run()
        cold = Campaign(functions=self.SCOPE, warm_boot=False).run()
        return delta, restore, cold

    def test_records_identical_across_reset_modes(self, trio):
        delta, restore, cold = trio
        keys = [[record_key(r) for r in result.log] for result in trio]
        assert keys[0] == keys[1] == keys[2]

    def test_delta_path_actually_taken(self, trio):
        delta, restore, cold = trio
        delta_modes = delta.execution_stats["reset_modes"]
        # One full restore to seed the live simulator, deltas after that.
        assert delta_modes["restore"] == 1
        assert delta_modes["delta"] == delta.total_tests - 1
        assert restore.execution_stats["reset_modes"] == {
            "restore": restore.total_tests
        }
        assert cold.execution_stats["reset_modes"] == {"cold": cold.total_tests}

    def test_crash_bearing_scope_identical(self):
        # XM_set_timer carries crash/halt findings: crashed simulators
        # must never be reused in place, and the records must still
        # match the always-restore path exactly.
        delta = Campaign(functions=("XM_set_timer",), delta_reset=True).run()
        restore = Campaign(functions=("XM_set_timer",), delta_reset=False).run()
        assert [record_key(r) for r in delta.log] == [
            record_key(r) for r in restore.log
        ]
        assert any(r.sim_crashed for r in delta.log)
        modes = delta.execution_stats["reset_modes"]
        # Every crashed/halted run forces the next acquire to restore.
        assert modes["restore"] > 1

    def test_verify_reset_full_scope_zero_mismatches(self):
        result = Campaign(functions=self.SCOPE, verify_reset=True).run()
        modes = result.execution_stats["reset_modes"]
        assert modes["verified"] == result.total_tests


class TestDeltaResetFallbacks:
    """The reset ladder degrades (delta -> restore) without changing records."""

    def baseline_records(self, specs):
        executor = TestExecutor(snapshot_cache=SnapshotCache(), delta_reset=False)
        return [record_key(executor.run(spec)) for spec in specs]

    def test_journal_overflow_falls_back_to_restore(self):
        specs = [nominal_spec(f"overflow#{i}") for i in range(3)]
        executor = TestExecutor(snapshot_cache=SnapshotCache(), journal_budget=1)
        records = [record_key(executor.run(spec)) for spec in specs]
        assert records == self.baseline_records(specs)
        # Every reset attempt exceeds the 1-byte budget: all acquires
        # are full restores, and each refusal is counted.
        assert executor.reset_stats["delta"] == 0
        assert executor.reset_stats["restore"] == len(specs)
        assert executor.reset_stats["delta_fallbacks"] == len(specs)

    def test_crashed_run_is_never_reused_in_place(self):
        specs = list(Campaign(functions=("XM_set_timer",)).iter_specs())
        executor = TestExecutor(snapshot_cache=SnapshotCache())
        records = [executor.run(spec) for spec in specs]
        crashed = [r.sim_crashed for r in records]
        assert any(crashed)
        assert [record_key(r) for r in records] == self.baseline_records(specs)
        # A crashed run drops the live simulator, so the following test
        # (if any) pays a full restore.
        crashes_followed_by_tests = sum(crashed[:-1])
        assert executor.reset_stats["restore"] >= 1 + crashes_followed_by_tests

    def test_unjournalable_graph_demotes_executor_permanently(self):
        class TaintedSnapshot:
            """Restores carry an object the journal cannot revert."""

            def __init__(self, inner):
                self._inner = inner

            def restore(self):
                sim = self._inner.restore()
                sim.machine.taint = object()  # no __dict__: unjournalable
                return sim

            def recycle(self, sim):
                self._inner.recycle(sim)

        specs = [nominal_spec(f"taint#{i}") for i in range(3)]
        executor = TestExecutor(snapshot_cache=SnapshotCache())
        executor.prepare()
        key = executor._snapshot_key()
        real = executor.snapshot_cache.get_or_build(key, executor._build_snapshot)
        executor.snapshot_cache._snapshots[key] = TaintedSnapshot(real)
        records = [record_key(executor.run(spec)) for spec in specs]
        assert records == self.baseline_records(specs)
        assert executor.delta_reset is False  # demoted for good
        assert executor.reset_stats["delta_fallbacks"] == 1  # not re-attempted
        assert executor.reset_stats["restore"] == len(specs)

    def test_verify_reset_raises_on_divergence(self):
        class LyingExecutor(TestExecutor):
            """The verify reference run reports a different overrun count."""

            def _run_on_snapshot(self, spec, started, snapshot, key, primary, entry=None):
                record = super()._run_on_snapshot(
                    spec, started, snapshot, key, primary, entry
                )
                if not primary:
                    record.overruns += 1
                return record

        executor = LyingExecutor(
            snapshot_cache=SnapshotCache(), verify_reset=True
        )
        with pytest.raises(ResetVerifyError) as err:
            executor.run(nominal_spec())
        assert "overruns" in str(err.value)


class TestSerialParallelResumeIdentity:
    """Satellite: serial, parallel and interrupted+resumed runs agree."""

    SCOPE = ("XM_reset_system",)

    @pytest.fixture(scope="class")
    def serial(self):
        return Campaign(functions=self.SCOPE).run()

    def test_parallel_matches_serial(self, serial):
        def verdict(record):
            # Parallel records carry host-side provenance (which worker
            # ran the spec); serial ones do not.  The verdict must match.
            data = record_key(record)
            data.pop("host_context")
            return data

        parallel = Campaign(functions=self.SCOPE).run(processes=2)
        assert [verdict(r) for r in parallel.log] == [verdict(r) for r in serial.log]

    def test_interrupted_then_resumed_matches_serial(self, serial):
        from repro.fault.testlog import CampaignLog

        partial = CampaignLog(serial.log.records[:2])  # the "interrupt"
        resumed = Campaign(functions=self.SCOPE).run(resume_from=partial)
        assert sorted(map(repr, map(record_key, resumed.log))) == sorted(
            map(repr, map(record_key, serial.log))
        )

    def test_all_three_agree_on_analysis(self, serial):
        from repro.fault.testlog import CampaignLog

        parallel = Campaign(functions=self.SCOPE).run(processes=2)
        partial = CampaignLog(serial.log.records[:2])
        resumed = Campaign(functions=self.SCOPE).run(resume_from=partial)

        def analysis(result):
            issues = [
                (i.hypercall, i.kind, i.detail_key, i.case_count,
                 i.matched_vulnerability)
                for i in result.issues
            ]
            severities = sorted(
                (r.test_id, c.severity.value) for r, _e, c in result.classified
            )
            return issues, severities

        assert analysis(serial) == analysis(parallel) == analysis(resumed)
