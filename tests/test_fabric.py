"""Distributed fabric: frames, config, identity, failure recovery."""

import asyncio
import multiprocessing
import random
import signal
import socket
import threading
import time

import pytest

from repro.fabric import (
    FabricConfig,
    FabricError,
    FrameError,
    coordinate,
    encode_frame,
    read_frame,
)
from repro.fabric.config import PROTOCOL_VERSION
from repro.fabric.frames import MAX_FRAME
from repro.fabric.worker import WorkerAgent
from repro.fault import wire
from repro.fault.campaign import Campaign
from repro.fault.executor import FAULT_ONCE_DIR_ENV, KILL_SPEC_ENV, TestExecutor
from repro.fault.mutant import ArgSpec, TestCallSpec
from repro.fault.plan import CompiledPlan
from repro.fault.resilience import Quarantine, RetryPolicy
from repro.fault.testlog import CampaignLog, Invocation, TestRecord

#: The three hypercalls carrying the paper's findings: 62 tests, 9 issues.
TRIO = ("XM_reset_system", "XM_set_timer", "XM_multicall")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="local fabric workers require the fork start method",
)


def strip_transient(record):
    """Identity comparison: everything but per-run provenance."""
    data = record.to_dict()
    data.pop("wall_time_s")
    data.pop("host_context")
    # A record may legitimately consume a different number of runs
    # depending on which worker died when; the verdict must not change.
    data.pop("attempts")
    data.pop("arbitrated")
    return data


def read_one(payload: bytes):
    """Run read_frame over an in-memory StreamReader fed ``payload``."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(payload)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


class TestFrameCodec:
    def test_roundtrip(self):
        message = {"type": "lease", "indices": [3, 1, 2], "nested": {"a": None}}
        assert read_one(encode_frame(message)) == message

    def test_clean_eof_returns_none(self):
        assert read_one(b"") is None

    def test_truncated_length_prefix(self):
        with pytest.raises(FrameError, match="mid-prefix"):
            read_one(b"\x00\x00")

    def test_truncated_body(self):
        frame = encode_frame({"type": "hello"})
        with pytest.raises(FrameError, match="mid-frame"):
            read_one(frame[:-3])

    def test_garbage_body(self):
        body = b"not json at all"
        payload = len(body).to_bytes(4, "big") + body
        with pytest.raises(FrameError):
            read_one(payload)

    def test_non_object_body_rejected(self):
        body = b"[1, 2, 3]"
        payload = len(body).to_bytes(4, "big") + body
        with pytest.raises(FrameError, match="object"):
            read_one(payload)

    def test_oversized_frame_rejected_without_reading_body(self):
        payload = (MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(FrameError, match="exceeds"):
            read_one(payload)

    def test_encode_rejects_unserialisable(self):
        with pytest.raises(FrameError):
            encode_frame({"x": object()})


class TestFabricConfig:
    def test_roundtrip_rebuilds_identical_spec_table(self):
        campaign = Campaign(functions=TRIO)
        config = FabricConfig.from_campaign(campaign)
        rebuilt = FabricConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert wire.build_spec_table(rebuilt.recipe()) == list(
            campaign.iter_specs()
        )

    def test_config_is_json_clean(self):
        import json

        config = FabricConfig.from_campaign(Campaign(functions=TRIO))
        wire_form = json.loads(json.dumps(config.to_dict()))
        assert FabricConfig.from_dict(wire_form) == config

    def test_custom_model_rejected(self):
        from repro.fault.apimodel import ApiModel
        from repro.fault.campaign import _default_model

        base = _default_model()
        clone = ApiModel(
            kernel_name=base.kernel_name, functions=dict(base.functions)
        )
        campaign = Campaign(functions=TRIO, model=clone)
        with pytest.raises(FabricError, match="model"):
            FabricConfig.from_campaign(campaign)

    def test_custom_system_factory_rejected(self):
        campaign = Campaign(functions=TRIO, system_factory=lambda: None)
        with pytest.raises(FabricError, match="testbed"):
            FabricConfig.from_campaign(campaign)

    def test_malformed_dict_rejected(self):
        with pytest.raises(FabricError, match="malformed"):
            FabricConfig.from_dict({"kernel_version": "3.4.0"})

    def test_unknown_strategy_rejected(self):
        config = FabricConfig.from_campaign(Campaign(functions=TRIO))
        data = config.to_dict()
        data["strategy"] = {"name": "no-such-strategy"}
        with pytest.raises(FabricError, match="strategy"):
            FabricConfig.from_dict(data).recipe()


def random_record(rng: random.Random) -> TestRecord:
    """One randomized TestRecord exercising optional-field combinations."""
    invocations = [
        Invocation(
            returned=rng.random() < 0.8,
            rc=rng.choice([None, 0, -1, -2, 2**31 - 1, -(2**31)]),
            note=rng.choice(["", "XM_INVALID_PARAM", "unicode: é☃"]),
            state=rng.choice([None, {"clock": rng.randrange(1 << 32)}]),
        )
        for _ in range(rng.randrange(4))
    ]
    return TestRecord(
        test_id=f"XM_fuzz#{rng.randrange(10_000):04d}",
        function=rng.choice(["XM_set_timer", "XM_multicall", "XM_fuzz"]),
        category=rng.choice(["Time Management", "Miscellaneous"]),
        arg_labels=tuple(
            rng.choice(["MAX", "MIN", "zero", "rnd"])
            for _ in range(rng.randrange(4))
        ),
        resolved_args=tuple(
            rng.randrange(-(1 << 31), 1 << 31) for _ in range(rng.randrange(4))
        ),
        invocations=invocations,
        sim_crashed=rng.random() < 0.1,
        sim_hung=rng.random() < 0.1,
        kernel_halted=rng.random() < 0.1,
        halt_reason=rng.choice(["", "panic"]),
        resets=[("warm", "hm")] * rng.randrange(3),
        hm_events=[("XM_HM_EV_MEM_PROTECTION", rng.randrange(4), "wf")]
        * rng.randrange(3),
        overruns=rng.randrange(3),
        test_partition_state=rng.choice(["", "SUSPENDED"]),
        console_tail=[f"line{i}" for i in range(rng.randrange(3))],
        kernel_version=rng.choice(["3.4.0", "3.4.1"]),
        frames=rng.randrange(4),
        wall_time_s=rng.random(),
        worker_killed=rng.random() < 0.1,
        watchdog_expired=rng.random() < 0.1,
        attempts=rng.randrange(1, 4),
        arbitrated=rng.random() < 0.2,
        quarantined=rng.random() < 0.1,
        host_context=rng.choice(
            [None, {"fabric_worker": "w", "worker_host": "h", "attempt": 2}]
        ),
    )


class TestWireFuzz:
    """Randomized roundtrips: the codecs must be lossless on any record."""

    def test_record_codec_fuzz(self):
        rng = random.Random(0xFAB)
        for _ in range(200):
            record = random_record(rng)
            assert wire.record_from_dict(wire.record_to_dict(record)) == record
            assert wire.decode_record(wire.encode_record(record)) == record

    def test_record_survives_a_frame(self):
        rng = random.Random(0xFAB2)
        for _ in range(50):
            record = random_record(rng)
            frame = read_one(
                encode_frame(
                    {"type": "records", "records": [wire.encode_record(record)]}
                )
            )
            assert wire.decode_record(frame["records"][0]) == record

    def test_spec_codec_fuzz(self):
        rng = random.Random(0xFAB3)
        for index in range(100):
            spec = TestCallSpec(
                f"XM_fuzz#{index:04d}",
                "XM_fuzz",
                "Miscellaneous",
                tuple(
                    ArgSpec(
                        f"arg{i}",
                        rng.choice(["MAX", "MIN", "zero"]),
                        rng.randrange(-(1 << 31), 1 << 31),
                        symbol=rng.choice([None, "INT32_MAX"]),
                    )
                    for i in range(rng.randrange(4))
                ),
            )
            assert wire.spec_from_dict(wire.spec_to_dict(spec)) == spec


@needs_fork
class TestFabricIdentity:
    """Fabric campaigns must be record-for-record equal to serial runs."""

    @pytest.fixture(scope="class")
    def campaign(self):
        return Campaign(functions=TRIO)

    @pytest.fixture(scope="class")
    def serial(self, campaign):
        return campaign.run()

    def test_loopback_two_workers_equals_serial(self, campaign, serial):
        result = coordinate(campaign, workers=2)
        assert [strip_transient(r) for r in result.log] == [
            strip_transient(r) for r in serial.log
        ]
        for record in result.log:
            assert record.host_context["fabric_worker"].startswith("local-")

    def test_single_worker_equals_serial(self, campaign, serial):
        result = coordinate(campaign, workers=1)
        assert [strip_transient(r) for r in result.log] == [
            strip_transient(r) for r in serial.log
        ]

    def test_explicit_shard_size_equals_serial(self, campaign, serial):
        result = coordinate(campaign, workers=2, shard_size=5)
        assert [strip_transient(r) for r in result.log] == [
            strip_transient(r) for r in serial.log
        ]


class TestPlanHandover:
    """Loopback workers run the coordinator's compiled plan."""

    @staticmethod
    def refuse_compiling(monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a plan was compiled")

        monkeypatch.setattr(CompiledPlan, "__init__", refuse)

    def test_handed_plan_compiles_nothing(self, monkeypatch):
        campaign = Campaign(functions=TRIO)
        plan = campaign.plan()
        config = FabricConfig.from_campaign(campaign)
        self.refuse_compiling(monkeypatch)
        agent = WorkerAgent("127.0.0.1", 0, reconnect=False, plan=plan)
        _key, _config, _executor, table, used = agent._build_state(config.to_dict())
        assert used is plan
        assert [entry.spec for entry in plan.entries] == table

    def test_without_a_plan_the_worker_compiles_its_own(self, monkeypatch):
        config = FabricConfig.from_campaign(Campaign(functions=TRIO))
        self.refuse_compiling(monkeypatch)
        agent = WorkerAgent("127.0.0.1", 0, reconnect=False)
        with pytest.raises(AssertionError, match="compiled"):
            agent._build_state(config.to_dict())

    def test_plan_for_another_kernel_is_refused(self):
        plan = Campaign(functions=TRIO, kernel_version="3.4.1").plan()
        config = FabricConfig.from_campaign(Campaign(functions=TRIO))
        agent = WorkerAgent("127.0.0.1", 0, reconnect=False, plan=plan)
        with pytest.raises(RuntimeError, match="does not match"):
            agent._build_state(config.to_dict())

    @needs_fork
    def test_loopback_workers_inherit_the_plan(self, monkeypatch):
        # Compiled before the fork: a worker that compiled again would
        # raise, die before its first lease and fail the campaign.
        serial = Campaign(functions=TRIO).run()
        campaign = Campaign(functions=TRIO)
        campaign.plan()
        self.refuse_compiling(monkeypatch)
        result = coordinate(campaign, workers=2)
        assert [strip_transient(r) for r in result.log] == [
            strip_transient(r) for r in serial.log
        ]


class TestEndedCampaign:
    def test_batch_after_a_captured_failure_is_not_checkpointed(self, tmp_path):
        # A failure captured on one connection ends the campaign; a
        # batch another worker still had in flight must not reach the
        # checkpoint after it.
        from repro.fabric.coordinator import FabricCoordinator, _Worker
        from repro.fault.failpoints import ChaosError
        from repro.fault.session import CampaignSession

        campaign = Campaign(functions=("XM_reset_system",))
        record = campaign.run().log.records[0]
        path = tmp_path / "ended.jsonl"
        with CampaignSession(campaign, log_path=path) as session:
            coordinator = FabricCoordinator(
                session, FabricConfig.from_campaign(campaign)
            )
            coordinator.failure = ChaosError("captured on another connection")
            coordinator.done.set()
            frame = {"type": "records", "lease": 1,
                     "records": [wire.encode_record(record)]}
            asyncio.run(
                coordinator._on_records(_Worker("w", "h", None, 0.0, {}), frame)
            )
            assert session.records == []
        assert len(CampaignLog.load(path)) == 0

    def test_hang_up_after_the_end_is_not_a_death(self, tmp_path):
        # Shutdown closes every connection; a worker still holding a
        # probe lease then must not have its spec logged worker_killed.
        from repro.fabric.coordinator import FabricCoordinator, _Lease, _Worker
        from repro.fault.failpoints import ChaosError
        from repro.fault.resilience import RetryPolicy
        from repro.fault.session import CampaignSession

        campaign = Campaign(functions=("XM_reset_system",))
        path = tmp_path / "ended.jsonl"
        with CampaignSession(
            campaign, log_path=path, retry_policy=RetryPolicy(max_attempts=1, quorum=1)
        ) as session:
            coordinator = FabricCoordinator(
                session, FabricConfig.from_campaign(campaign)
            )
            worker = _Worker("w", "h", None, 0.0, {})
            worker.lease = 1
            coordinator.workers["w"] = worker
            coordinator.leases[1] = _Lease(1, "w", [0, 1], True, 0.0)
            coordinator.failure = ChaosError("captured on another connection")
            coordinator.done.set()
            coordinator._on_worker_lost("w")
            assert session.records == []
            assert "w" not in coordinator.workers
        assert len(CampaignLog.load(path)) == 0


@needs_fork
class TestFabricResume:
    def test_interrupted_fabric_run_resumes_losslessly(self, tmp_path):
        campaign = Campaign(functions=TRIO)
        baseline = campaign.run()
        path = tmp_path / "fabric.jsonl"

        def interrupt(done, total, record):
            if done == 15:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            coordinate(
                campaign, workers=2, progress=interrupt, log_path=path
            )
        partial = CampaignLog.load(path)
        assert 1 <= len(partial) < baseline.total_tests

        resumed = coordinate(
            campaign, workers=2, resume_from=partial, log_path=path
        )
        assert resumed.total_tests == baseline.total_tests == 62
        assert [strip_transient(r) for r in resumed.log] == [
            strip_transient(r) for r in baseline.log
        ]
        assert len(CampaignLog.load(path)) == baseline.total_tests


@needs_fork
class TestFabricKillRecovery:
    def victim_of(self, campaign):
        specs = list(campaign.iter_specs())
        return [s for s in specs if s.function == "XM_set_timer"][5]

    def test_transient_kill_recovers_every_record(self, monkeypatch, tmp_path):
        # The kill fires exactly once: the re-leased probe run is
        # innocent, so the fabric must recover the full campaign with
        # no worker_killed verdicts at all.
        campaign = Campaign(functions=TRIO)
        baseline = campaign.run()
        victim = self.victim_of(campaign)
        once_dir = tmp_path / "once"
        once_dir.mkdir()
        monkeypatch.setenv(KILL_SPEC_ENV, victim.test_id)
        monkeypatch.setenv(FAULT_ONCE_DIR_ENV, str(once_dir))

        result = coordinate(campaign, workers=2)
        assert not any(r.worker_killed for r in result.log)
        assert [strip_transient(r) for r in result.log] == [
            strip_transient(r) for r in baseline.log
        ]
        assert result.execution_stats["probe_respawns"] >= 1

    def test_persistent_killer_confirmed_and_quarantined(
        self, monkeypatch, tmp_path
    ):
        campaign = Campaign(functions=TRIO)
        baseline = campaign.run()
        victim = self.victim_of(campaign)
        monkeypatch.setenv(KILL_SPEC_ENV, victim.test_id)
        quarantine_path = tmp_path / "quarantine.json"

        result = coordinate(
            campaign, workers=2, quarantine_path=quarantine_path
        )
        killed = [r for r in result.log if r.worker_killed]
        assert [r.test_id for r in killed] == [victim.test_id]
        assert killed[0].attempts >= 2  # quorum, not a single observation
        survivors = {
            r.test_id: strip_transient(r)
            for r in result.log
            if not r.worker_killed
        }
        expected = {
            r.test_id: strip_transient(r)
            for r in baseline.log
            if r.test_id != victim.test_id
        }
        assert survivors == expected
        assert victim.test_id in Quarantine.load(quarantine_path)

        # A later campaign skips the quarantined killer with a record.
        monkeypatch.delenv(KILL_SPEC_ENV)
        rerun = coordinate(
            campaign, workers=2, quarantine_path=quarantine_path
        )
        inherited = {r.test_id for r in rerun.log if r.quarantined}
        assert inherited == {victim.test_id}
        assert rerun.total_tests == baseline.total_tests

    def test_single_shot_policy_blames_first_death(self, monkeypatch):
        campaign = Campaign(functions=TRIO)
        victim = self.victim_of(campaign)
        monkeypatch.setenv(KILL_SPEC_ENV, victim.test_id)
        result = coordinate(
            campaign,
            workers=2,
            retry_policy=RetryPolicy(max_attempts=1, quorum=1),
        )
        killed = [r for r in result.log if r.worker_killed]
        assert [r.test_id for r in killed] == [victim.test_id]
        assert killed[0].attempts == 1


class TestStealRevocation:
    """Revocations are per lease: a stolen index leased back must run."""

    def run_scripted(self, config, script):
        """Serve one real agent from a scripted coordinator.

        After the agent's first lease request the coordinator sends the
        ``script`` frames (revokes, then one lease), collects the
        records of that lease and ends the campaign.  Returns the test
        ids the agent ran, in order.
        """
        ran = []

        async def handle(reader, writer):
            assert (await read_frame(reader))["type"] == "hello"
            writer.write(
                encode_frame(
                    {
                        "type": "welcome",
                        "protocol": PROTOCOL_VERSION,
                        "config": config.to_dict(),
                    }
                )
            )
            assert (await read_frame(reader))["type"] == "lease-request"
            for frame in script:
                writer.write(encode_frame(frame))
            while (frame := await read_frame(reader))["type"] != "lease-done":
                if frame["type"] == "records":
                    ran.extend(
                        wire.decode_record(r).test_id for r in frame["records"]
                    )
            while (await read_frame(reader))["type"] != "lease-request":
                pass
            writer.write(encode_frame({"type": "done"}))
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            finished.set()

        async def main():
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            agent = WorkerAgent("127.0.0.1", port, reconnect=False)
            thread = threading.Thread(target=agent.run, daemon=True)
            thread.start()
            try:
                await asyncio.wait_for(finished.wait(), 60)
            finally:
                server.close()
            return thread

        finished = asyncio.Event()
        thread = asyncio.run(main())
        thread.join(timeout=30)
        assert not thread.is_alive()
        return ran

    @pytest.fixture(scope="class")
    def setup(self):
        campaign = Campaign(functions=("XM_reset_system",))
        return FabricConfig.from_campaign(campaign), list(campaign.iter_specs())

    def test_index_revoked_from_earlier_lease_runs_in_later_lease(self, setup):
        config, specs = setup
        ran = self.run_scripted(
            config,
            [
                {"type": "revoke", "lease": 1, "indices": [2]},
                {"type": "lease", "lease": 3, "indices": [2]},
            ],
        )
        assert ran == [specs[2].test_id]

    def test_revoke_of_the_running_lease_still_skips(self, setup):
        config, specs = setup
        ran = self.run_scripted(
            config,
            [
                {"type": "revoke", "lease": 3, "indices": [2]},
                {"type": "lease", "lease": 3, "indices": [1, 2, 3]},
            ],
        )
        assert ran == [specs[1].test_id, specs[3].test_id]


@needs_fork
class TestForcedSteals:
    def test_steal_chains_finish_with_serial_records(self, monkeypatch):
        # One lease holds the whole campaign and every test is slowed
        # to a uniform pace, so the idle worker steals, and the first
        # worker, done early, steals back the tail of indices that
        # were once revoked from it.  The agents inherit the patch
        # through fork.
        campaign = Campaign(
            functions=("XM_set_timer", "XM_multicall"), batch_hypercalls=False
        )
        serial = campaign.run()
        run_planned = TestExecutor.run_planned

        def paced(self, entry):
            time.sleep(0.01)
            return run_planned(self, entry)

        monkeypatch.setattr(TestExecutor, "run_planned", paced)

        class Overdue(Exception):
            pass

        def overdue(signum, frame):  # noqa: ANN001 - signal handler
            raise Overdue

        result = None
        previous = signal.signal(signal.SIGALRM, overdue)
        signal.alarm(120)
        try:
            result = coordinate(
                campaign, workers=2, shard_size=serial.total_tests
            )
        except Overdue:
            pass
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert result is not None, "fabric campaign livelocked on steals"
        assert result.execution_stats["lease_steals"] >= 2
        assert [strip_transient(r) for r in result.log] == [
            strip_transient(r) for r in serial.log
        ]


@needs_fork
class TestRogueClients:
    """Malformed traffic costs the offender its connection, nothing more."""

    def run_with_rogue(self, campaign, rogue):
        threads = []

        def on_listen(host, port):
            thread = threading.Thread(target=rogue, args=(host, port))
            thread.start()
            threads.append(thread)

        result = coordinate(campaign, workers=2, on_listen=on_listen)
        for thread in threads:
            thread.join(timeout=10)
        return result

    def test_pre_hello_garbage_is_dropped(self):
        campaign = Campaign(functions=TRIO)
        serial = campaign.run()

        def rogue(host, port):
            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(b"\xde\xad\xbe\xef not a frame at all")

        result = self.run_with_rogue(campaign, rogue)
        assert [strip_transient(r) for r in result.log] == [
            strip_transient(r) for r in serial.log
        ]

    def test_post_hello_garbage_drops_only_the_offender(self):
        campaign = Campaign(functions=TRIO)
        serial = campaign.run()

        def rogue(host, port):
            from repro.fabric.config import PROTOCOL_VERSION

            with socket.create_connection((host, port), timeout=5) as sock:
                sock.sendall(
                    encode_frame(
                        {
                            "type": "hello",
                            "name": "rogue",
                            "host": "nowhere",
                            "pid": 0,
                            "protocol": PROTOCOL_VERSION,
                        }
                    )
                )
                # Grab a lease, then talk garbage: the coordinator must
                # re-lease the shard elsewhere and drop this client.
                sock.sendall(encode_frame({"type": "lease-request"}))
                sock.recv(4096)
                sock.sendall(b"\xff\xff\xff\xff garbage")

        with pytest.warns(UserWarning, match="malformed|lost"):
            result = self.run_with_rogue(campaign, rogue)
        assert [strip_transient(r) for r in result.log] == [
            strip_transient(r) for r in serial.log
        ]


class TestThreadWatchdog:
    """The per-test watchdog must still fire off the main thread."""

    def run_off_main_thread(self, fn):
        box = {}

        def body():
            try:
                box["result"] = fn()
            except BaseException as exc:  # noqa: BLE001
                box["raised"] = exc

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        return box

    def test_hung_test_expires_off_main_thread(self, monkeypatch):
        from repro.fault.executor import HANG_SPEC_ENV, TestExecutor

        campaign = Campaign(functions=("XM_get_time",))
        specs = list(campaign.iter_specs())
        monkeypatch.setenv(HANG_SPEC_ENV, specs[0].test_id)

        def run():
            executor = TestExecutor(
                kernel_version=campaign.kernel_version, timeout_s=0.3
            )
            executor.prepare()
            return executor.run(specs[0])

        box = self.run_off_main_thread(run)
        assert "raised" not in box, box.get("raised")
        assert box["result"].watchdog_expired

    def test_normal_test_unaffected_off_main_thread(self):
        from repro.fault.executor import TestExecutor

        campaign = Campaign(functions=("XM_get_time",))
        specs = list(campaign.iter_specs())

        def run():
            executor = TestExecutor(
                kernel_version=campaign.kernel_version, timeout_s=5.0
            )
            executor.prepare()
            return executor.run(specs[0])

        box = self.run_off_main_thread(run)
        assert "raised" not in box, box.get("raised")
        assert not box["result"].watchdog_expired
