"""Sharded dispatch: wire codec, lease sizing, identity, supervision.

``processes=N`` runs N loopback fabric workers; ``shard_size`` is the
lease size.  The full executor-by-interruption identity matrix lives in
``test_identity_matrix.py``.
"""

import multiprocessing

import pytest

from repro.fabric.coordinator import _lease_size
from repro.fabric.worker import KILL_SPEC_ENV
from repro.fault import wire
from repro.fault.campaign import Campaign
from repro.fault.mutant import ArgSpec, TestCallSpec
from repro.fault.testlog import CampaignLog, Invocation, TestRecord

#: The three hypercalls carrying the paper's findings: 62 tests, 9 issues.
TRIO = ("XM_reset_system", "XM_set_timer", "XM_multicall")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel execution requires the fork start method",
)


def strip_wall_time(record):
    data = record.to_dict()
    data.pop("wall_time_s")
    # Host-side provenance legitimately differs between runs (which
    # worker ran a spec, the lease shape); the verdict must not.
    data.pop("host_context")
    return data


class TestWireSpecCodec:
    def test_spec_roundtrip(self):
        spec = TestCallSpec(
            "XM_set_timer.abs-1.itv-2#7",
            "XM_set_timer",
            "Time Management",
            (
                ArgSpec("abs_time", "MAX", 2**31 - 1, symbol="INT32_MAX"),
                ArgSpec("interval", "zero", 0),
            ),
        )
        assert wire.spec_from_dict(wire.spec_to_dict(spec)) == spec


class TestWireRecordCodec:
    def make(self):
        return TestRecord(
            test_id="XM_set_timer#3",
            function="XM_set_timer",
            category="Time Management",
            arg_labels=("MAX", "zero"),
            resolved_args=(2**31 - 1, 0),
            invocations=[Invocation(returned=True, rc=-1, note="XM_INVALID_PARAM")],
            hm_events=[("XM_HM_EV_MEM_PROTECTION", 1, "write fault")],
            kernel_version="3.4.0",
            frames=2,
            wall_time_s=0.25,
        )

    def test_full_roundtrip(self):
        record = self.make()
        assert wire.record_from_dict(wire.record_to_dict(record)) == record

    def test_to_dict_covers_every_field(self):
        # record_to_dict is hand-rolled for speed; a new TestRecord
        # field must not silently vanish from logs and the relay.
        from dataclasses import fields

        assert set(wire.record_to_dict(self.make())) == {
            f.name for f in fields(TestRecord)
        }

    def test_relay_roundtrip_is_lossless(self):
        record = self.make()
        assert wire.decode_record(wire.encode_record(record)) == record

    def test_relay_encoding_drops_defaults(self):
        nominal = TestRecord(
            test_id="t", function="f", category="c", kernel_version="3.4.0"
        )
        encoded = wire.encode_record(nominal)
        # Identity fields always travel; untouched defaults never do.
        assert set(encoded) == {"test_id", "function", "category", "kernel_version"}
        assert wire.decode_record(encoded) == nominal

    def test_relay_encoding_is_smaller(self):
        import pickle

        record = self.make()
        sparse = len(pickle.dumps(wire.encode_record(record)))
        full = len(pickle.dumps(wire.record_to_dict(record)))
        assert sparse < full


def recipe_of(campaign, total=None):
    return wire.SuiteRecipe(
        model=campaign.model,
        dictionaries=campaign.dictionaries,
        strategy=campaign.strategy,
        functions=campaign.functions,
        total=campaign.total_tests() if total is None else total,
    )


class TestSpecTable:
    def test_table_matches_campaign_order(self):
        campaign = Campaign(functions=TRIO)
        table = wire.build_spec_table(recipe_of(campaign))
        assert table == list(campaign.iter_specs())

    def test_total_mismatch_fails_loudly(self):
        campaign = Campaign(functions=TRIO)
        bad = recipe_of(campaign, total=campaign.total_tests() + 1)
        with pytest.raises(RuntimeError, match="spec table mismatch"):
            wire.build_spec_table(bad)


class TestAutoShardSize:
    """The default lease size (``shard_size=None``)."""

    def test_amortises_dispatch_on_large_campaigns(self):
        # 2864 specs, 4 workers: leases of 16+ with ~8 per worker.
        assert _lease_size(2864, 4) == 2864 // 32

    def test_floor_of_sixteen(self):
        assert _lease_size(200, 4) == 16

    def test_small_campaign_still_uses_every_worker(self):
        # 8 specs across 4 workers must not end up in one 16-spec lease.
        assert _lease_size(8, 4) == 2

    def test_degenerate_sizes(self):
        assert _lease_size(0, 4) == 1
        assert _lease_size(1, 1) == 1


class TestShardSizeValidation:
    def test_zero_shard_size_rejected(self):
        with pytest.raises(ValueError, match="shard_size"):
            Campaign(functions=("XM_reset_system",)).run(processes=2, shard_size=0)


@needs_fork
class TestShardIdentity:
    """Default, per-spec and oversized leases must all equal serial."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return Campaign(functions=TRIO)

    @pytest.fixture(scope="class")
    def serial(self, campaign):
        return campaign.run()

    def test_sharded_equals_serial(self, campaign, serial):
        sharded = campaign.run(processes=2)
        assert [strip_wall_time(r) for r in sharded.log] == [
            strip_wall_time(r) for r in serial.log
        ]

    def test_shard_size_one_equals_auto(self, campaign, serial):
        per_spec = campaign.run(processes=2, shard_size=1)
        assert [strip_wall_time(r) for r in per_spec.log] == [
            strip_wall_time(r) for r in serial.log
        ]

    def test_oversized_shard_equals_serial(self, campaign, serial):
        # One lease bigger than the whole campaign: one worker is granted
        # everything, the other can only steal from it.
        giant = campaign.run(processes=2, shard_size=1000)
        assert [strip_wall_time(r) for r in giant.log] == [
            strip_wall_time(r) for r in serial.log
        ]


@needs_fork
class TestKillMidShard:
    """A worker death mid-shard loses exactly its own test, nothing else."""

    def run_with_kill(self, campaign, victim_id, monkeypatch, **kwargs):
        monkeypatch.setenv(KILL_SPEC_ENV, victim_id)
        return campaign.run(processes=2, **kwargs)

    def test_exactly_one_worker_killed(self, monkeypatch):
        campaign = Campaign(functions=TRIO)
        specs = list(campaign.iter_specs())
        baseline = campaign.run(processes=2)
        victim = [s for s in specs if s.function == "XM_set_timer"][5]

        result = self.run_with_kill(campaign, victim.test_id, monkeypatch)
        killed = [r for r in result.log if r.worker_killed]
        assert [r.test_id for r in killed] == [victim.test_id]
        assert result.total_tests == baseline.total_tests
        survivors = {
            r.test_id: strip_wall_time(r) for r in result.log if not r.worker_killed
        }
        expected = {
            r.test_id: strip_wall_time(r)
            for r in baseline.log
            if r.test_id != victim.test_id
        }
        assert survivors == expected

    def test_kill_on_first_spec_of_first_shard(self, monkeypatch):
        campaign = Campaign(functions=TRIO)
        victim = next(campaign.iter_specs())
        result = self.run_with_kill(campaign, victim.test_id, monkeypatch)
        assert [r.test_id for r in result.log if r.worker_killed] == [victim.test_id]
        assert result.total_tests == 62

    def test_kill_with_explicit_shard_size(self, monkeypatch):
        campaign = Campaign(functions=TRIO)
        victim = list(campaign.iter_specs())[20]
        result = self.run_with_kill(
            campaign, victim.test_id, monkeypatch, shard_size=7
        )
        assert [r.test_id for r in result.log if r.worker_killed] == [victim.test_id]
        assert result.total_tests == 62


@needs_fork
class TestShardedResume:
    def test_interrupted_sharded_run_resumes_losslessly(self, tmp_path):
        campaign = Campaign(functions=TRIO)
        baseline = campaign.run(processes=2)
        path = tmp_path / "sharded.jsonl"

        def interrupt(done, total, record):
            if done == 15:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            campaign.run(
                processes=2, progress=interrupt, log_path=path, shard_size=4
            )
        partial = CampaignLog.load(path)
        assert 1 <= len(partial) < baseline.total_tests

        resumed = campaign.run(processes=2, resume_from=partial, log_path=path)
        assert resumed.total_tests == baseline.total_tests == 62
        assert [strip_wall_time(r) for r in resumed.log] == [
            strip_wall_time(r) for r in baseline.log
        ]
        assert len(CampaignLog.load(path)) == baseline.total_tests


@needs_fork
class TestProgressMonotonicity:
    def test_progress_counts_every_test_once_and_in_order(self):
        campaign = Campaign(functions=TRIO)
        calls = []

        def progress(done, total, record):
            calls.append((done, total, record.test_id))

        result = campaign.run(processes=2, progress=progress)
        assert [done for done, _total, _id in calls] == list(
            range(1, result.total_tests + 1)
        )
        assert all(total == result.total_tests for _done, total, _id in calls)
        seen = [test_id for _done, _total, test_id in calls]
        assert len(set(seen)) == len(seen) == result.total_tests
