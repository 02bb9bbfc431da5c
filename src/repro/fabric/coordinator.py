"""The fabric coordinator: lease shards to worker agents over TCP.

The pool runner's supervision contract, promoted from "dead process"
to "dead host".  The coordinator owns the campaign: it partitions the
spec table into integer-index shards, *leases* them to connected worker
agents, checkpoints records as batches stream back, and treats every
way a worker can vanish — clean EOF, reset connection, malformed frame,
missed heartbeats, a lease that stops progressing — as the same event:
the lease's unfinished indices go back on the queue and the campaign
continues.  No worker failure mode kills the coordinator.

Killer attribution generalises the pool's probe protocol.  A normal
lease streams records in batches, so the specs a dead worker still owed
are ambiguous (its unflushed batch tail hides finished innocents); the
re-lease therefore runs with per-record flushing (``flush: 1``), after
which the first owed index *is* the spec that was running when the
worker died.  Each probe-lease death adds one ``worker_killed``
observation for that spec; the PR 4 quorum
(:class:`~repro.fault.resilience.VerdictArbiter`) decides when the
verdict is terminal, and confirmed killers land in the persistent
:class:`~repro.fault.resilience.Quarantine` exactly as pool kills do.

Work stealing handles stragglers: an idle worker with an empty queue is
granted the tail half of the largest outstanding lease (the victim gets
a ``revoke`` frame for the stolen indices; a steal that races a test
already running is harmless — records dedup by test id).

:func:`coordinate` is the synchronous orchestrator that mirrors
:meth:`repro.fault.campaign.Campaign.run` — resume, quarantine skips,
the streaming JSONL checkpoint, the stats trailer, global-order merge,
analysis — so an interrupted-and-resumed fabric campaign is
record-for-record identical to an uninterrupted serial run.
"""

from __future__ import annotations

import asyncio
import warnings
from collections import deque
from pathlib import Path

from repro.fabric.config import PROTOCOL_VERSION, FabricConfig, FabricError
from repro.fabric.frames import FrameError, encode_frame, read_frame
from repro.fabric.worker import DEFAULT_FLUSH_RECORDS, run_worker
from repro.fault import wire
from repro.fault.campaign import (
    Campaign,
    CampaignResult,
    ProgressHook,
    RecordSink,
    _auto_shard_size,
    _merge_execution_stats,
    _merge_phase_times,
    _merge_reset_modes,
)
from repro.fault.executor import worker_killed_record
from repro.fault.failpoints import ChaosError
from repro.fault.resilience import (
    Quarantine,
    RespawnBreaker,
    RetryPolicy,
    VerdictArbiter,
    quarantined_record,
)
from repro.fault.testlog import CampaignLog, TestRecord

DEFAULT_HEARTBEAT_S = 2.0
DEFAULT_LEASE_TIMEOUT_S = 60.0
#: Smallest lease remainder worth stealing from (below this the victim
#: finishes faster than a steal round-trip).
MIN_STEAL = 4


class _Lease:
    """One granted shard: its owner and what it still owes."""

    __slots__ = ("number", "worker", "remaining", "probe", "granted_at", "last_progress")

    def __init__(
        self, number: int, worker: str, indices: list[int], probe: bool, now: float
    ) -> None:
        self.number = number
        self.worker = worker
        #: Granted indices no record has arrived for yet, in run order.
        self.remaining = list(indices)
        self.probe = probe
        self.granted_at = now
        self.last_progress = now


class _Worker:
    """One connected worker agent."""

    __slots__ = ("name", "host", "writer", "lease", "idle", "last_seen")

    def __init__(self, name: str, host: str, writer, now: float) -> None:  # noqa: ANN001
        self.name = name
        self.host = host
        self.writer = writer
        self.lease: int | None = None
        self.idle = False
        self.last_seen = now


class FabricCoordinator:
    """Asyncio TCP server that leases spec shards and collects records.

    ``deliver(record, worker)`` is called for every (deduplicated)
    relayed record — it arbitrates, checkpoints and reports, returning
    False to withhold the record and have its spec re-leased.
    ``emit(record)`` publishes terminal records the coordinator itself
    synthesises (``worker_killed`` verdicts).  Both run on the event
    loop; a BaseException from either (a progress hook's
    KeyboardInterrupt, injected ChaosError) is captured into
    ``self.failure`` and ends the campaign.
    """

    def __init__(
        self,
        campaign: Campaign,
        specs: list,  # remaining TestCallSpecs, global order
        deliver,  # noqa: ANN001 - (TestRecord, _Worker) -> bool | None
        emit,  # noqa: ANN001 - (TestRecord) -> None
        config: FabricConfig,
        policy: RetryPolicy,
        stats: dict,
        quarantine: Quarantine | None = None,
        shard_size: int | None = None,
        batch_records: int = DEFAULT_FLUSH_RECORDS,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        expected_workers: int = 4,
    ) -> None:
        self.campaign = campaign
        self.deliver = deliver
        self.emit = emit
        self.config = config
        self.policy = policy
        self.stats = stats
        self.quarantine = quarantine
        self.batch_records = max(1, batch_records)
        self.heartbeat_s = heartbeat_s
        self.lease_timeout_s = lease_timeout_s
        self.arbiter = VerdictArbiter(policy)
        #: Full campaign spec table: wire indices address this, exactly
        #: as every worker's regenerated table does.
        self.spec_at = list(campaign.iter_specs())
        self.index_of = {
            spec.test_id: index for index, spec in enumerate(self.spec_at)
        }
        work = [self.index_of[spec.test_id] for spec in specs]
        self.unresolved: set[int] = set(work)
        size = shard_size or _auto_shard_size(len(work), max(1, expected_workers))
        #: Ungranted work: (indices, probe) shards.  Probe shards (the
        #: re-leased remainder of a dead worker's lease) go to the
        #: front and run with per-record flushing.
        self.pending: deque[tuple[list[int], bool]] = deque(
            (work[start : start + size], False)
            for start in range(0, len(work), size)
        )
        self.workers: dict[str, _Worker] = {}
        self.leases: dict[int, _Lease] = {}
        self._lease_seq = 0
        self.done = asyncio.Event()
        self.failure: BaseException | None = None
        self.degraded = False
        self.addr: tuple[str, int] | None = None
        self._server: asyncio.AbstractServer | None = None
        self._reaper: asyncio.Task | None = None
        #: Live connection handlers and their transports, so shutdown
        #: can close every socket (including pre-hello strangers) and
        #: let the handlers finish instead of being cancelled mid-read.
        self._handlers: set[asyncio.Task] = set()
        self._transports: set = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str, port: int) -> None:
        """Bind and begin accepting workers; ``self.addr`` holds the port."""
        self._server = await asyncio.start_server(self._handle, host, port)
        sockname = self._server.sockets[0].getsockname()
        self.addr = (sockname[0], sockname[1])
        self._reaper = asyncio.create_task(self._reap())
        if not self.unresolved:
            self.done.set()

    async def shutdown(self) -> None:
        """Tell workers the campaign is over and tear the server down."""
        if self._reaper is not None:
            self._reaper.cancel()
        for worker in list(self.workers.values()):
            try:
                worker.writer.write(encode_frame({"type": "done"}))
                await worker.writer.drain()
            except (ConnectionError, OSError):
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Let workers hang up first: closing a socket whose receive
        # buffer still holds an unread frame (a final lease-request
        # racing the campaign's end) sends an RST that destroys the
        # in-flight done frame, stranding the worker in its reconnect
        # loop.  A worker that got the done frame closes immediately,
        # so this grace window is milliseconds in the normal case.
        if self._handlers:
            await asyncio.wait(list(self._handlers), timeout=2.0)
        for writer in list(self._transports):
            writer.close()
        if self._handlers:
            await asyncio.wait(list(self._handlers), timeout=2.0)

    def progress_marker(self) -> tuple:
        """Changes whenever the campaign advanced (breaker evidence)."""
        return (len(self.unresolved), self.arbiter.total_observations)

    # -- per-connection handler ---------------------------------------------

    async def _handle(self, reader, writer) -> None:  # noqa: ANN001
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._transports.add(writer)
        name = None
        try:
            try:
                hello = await asyncio.wait_for(
                    read_frame(reader), timeout=10 * self.heartbeat_s
                )
            except (FrameError, asyncio.TimeoutError, ConnectionError, OSError):
                return  # rogue or dead client: drop it, keep serving
            if (
                hello is None
                or hello.get("type") != "hello"
                or hello.get("protocol") != PROTOCOL_VERSION
            ):
                return
            name = str(hello.get("name") or "worker")
            while name in self.workers:
                name += "+"  # a respawn raced its predecessor's cleanup
            worker = _Worker(
                name, str(hello.get("host") or "?"), writer, loop.time()
            )
            self.workers[name] = worker
            writer.write(
                encode_frame(
                    {
                        "type": "welcome",
                        "protocol": PROTOCOL_VERSION,
                        "config": self.config.to_dict(),
                    }
                )
            )
            await writer.drain()
            while True:
                try:
                    frame = await read_frame(reader)
                except FrameError as exc:
                    # Malformed traffic mid-session: quarantine the
                    # *worker* (drop it; its lease is re-probed like a
                    # death) — never the coordinator.
                    warnings.warn(
                        f"fabric: dropping worker {name!r} on malformed "
                        f"frame: {exc}",
                        stacklevel=2,
                    )
                    break
                if frame is None:
                    break
                worker.last_seen = loop.time()
                kind = frame.get("type")
                if kind == "heartbeat":
                    continue
                if kind == "lease-request":
                    await self._grant(worker)
                elif kind == "records":
                    await self._on_records(worker, frame)
                elif kind == "lease-done":
                    await self._on_lease_done(worker, frame)
                # Unknown frame types are ignored (newer workers may
                # speak extensions this coordinator predates).
        except (ConnectionError, OSError):
            pass
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # deliver/emit raised: end the campaign
            if self.failure is None:
                self.failure = exc
            self.done.set()
        finally:
            writer.close()
            self._transports.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            if name is not None:
                self._on_worker_lost(name)

    # -- leasing ------------------------------------------------------------

    async def _grant(self, worker: _Worker) -> None:
        """Grant the next shard (or steal one) to a work-hungry worker."""
        if worker.lease is not None:
            worker.idle = True
            return
        work = self._next_work()
        if work is None:
            worker.idle = True
            return
        indices, probe = work
        loop = asyncio.get_running_loop()
        self._lease_seq += 1
        lease = _Lease(self._lease_seq, worker.name, indices, probe, loop.time())
        self.leases[lease.number] = lease
        worker.lease = lease.number
        worker.idle = False
        worker.writer.write(
            encode_frame(
                {
                    "type": "lease",
                    "lease": lease.number,
                    "indices": indices,
                    "flush": 1 if probe else self.batch_records,
                }
            )
        )
        await worker.writer.drain()

    def _next_work(self) -> tuple[list[int], bool] | None:
        """Pop pending work, or steal the tail half of the largest lease."""
        while self.pending:
            indices, probe = self.pending.popleft()
            live = [i for i in indices if i in self.unresolved]
            if live:
                return live, probe
        victim = max(
            (
                lease
                for lease in self.leases.values()
                if not lease.probe and len(lease.remaining) >= MIN_STEAL
            ),
            key=lambda lease: len(lease.remaining),
            default=None,
        )
        if victim is None:
            return None
        keep = (len(victim.remaining) + 1) // 2
        stolen = victim.remaining[keep:]
        victim.remaining = victim.remaining[:keep]
        self.stats["lease_steals"] = self.stats.get("lease_steals", 0) + 1
        owner = self.workers.get(victim.worker)
        if owner is not None:
            # Best-effort: if the revoke is lost with the connection,
            # the victim's extra records merely dedup on arrival.
            owner.writer.write(
                encode_frame(
                    {"type": "revoke", "lease": victim.number, "indices": stolen}
                )
            )
        return stolen, False

    async def _grant_idle(self) -> None:
        """Hand newly available work to workers parked on an empty queue."""
        for worker in list(self.workers.values()):
            if self.done.is_set():
                return
            if worker.idle and worker.lease is None:
                try:
                    await self._grant(worker)
                except (ConnectionError, OSError):
                    worker.writer.close()

    # -- record + completion flow -------------------------------------------

    async def _on_records(self, worker: _Worker, frame: dict) -> None:
        """One batch of relayed records from a worker."""
        loop = asyncio.get_running_loop()
        lease = self.leases.get(frame.get("lease"))
        requeued = False
        for encoded in frame.get("records", ()):
            try:
                record = wire.decode_record(encoded)
            except ChaosError:
                raise
            except Exception as exc:
                raise FrameError(f"undecodable record payload: {exc!r}") from exc
            index = self.index_of.get(record.test_id)
            if index is None:
                raise FrameError(
                    f"record for unknown test id {record.test_id!r}"
                )
            if lease is not None:
                try:
                    lease.remaining.remove(index)
                except ValueError:
                    pass
                lease.last_progress = loop.time()
            if index not in self.unresolved:
                continue  # duplicate (steal race or reconnect replay)
            if self.deliver(record, worker) is False:
                # Withheld for arbitration: re-lease the spec alone,
                # per-record flushed, so the retry verdict is exact.
                self.pending.appendleft(([index], True))
                requeued = True
            else:
                self.unresolved.discard(index)
        if not self.unresolved:
            self.done.set()
        elif requeued:
            await self._grant_idle()

    async def _on_lease_done(self, worker: _Worker, frame: dict) -> None:
        """A worker finished (every non-revoked index of) its lease."""
        lease = self.leases.pop(frame.get("lease"), None)
        if worker.lease == frame.get("lease"):
            worker.lease = None
        if frame.get("stats"):
            _merge_reset_modes(self.stats, frame["stats"])
        if frame.get("phases"):
            _merge_phase_times(self.stats, frame["phases"])
        if lease is not None:
            leftover = [i for i in lease.remaining if i in self.unresolved]
            if leftover:
                # Revoked indices some other worker now owns are gone
                # from `remaining`; anything left was skipped without a
                # record (should not happen) — requeue rather than lose.
                self.pending.append((leftover, lease.probe))
                await self._grant_idle()

    def _on_worker_lost(self, name: str) -> None:
        """EOF/reset/malformed frame/heartbeat expiry: one death path.

        The dead worker's outstanding lease is re-queued at the front
        as a *probe* shard.  If the lease already was a probe, its
        first owed index is exactly the spec that was running (probes
        flush per record), so the death adds one ``worker_killed``
        observation — terminal verdicts are emitted and quarantined,
        non-terminal ones leave the suspect first in line for the next
        probe.
        """
        worker = self.workers.pop(name, None)
        if worker is None:
            return
        lease = (
            self.leases.pop(worker.lease, None)
            if worker.lease is not None
            else None
        )
        if lease is None:
            return
        remaining = [i for i in lease.remaining if i in self.unresolved]
        if lease.probe and remaining:
            suspect = self.spec_at[remaining[0]]
            terminal = self.policy.single_shot or self.arbiter.observe(
                suspect.test_id, "worker_killed"
            )
            observations = self.arbiter.observations(suspect.test_id) or [
                "worker_killed"
            ]
            if terminal:
                self.emit(
                    worker_killed_record(
                        suspect,
                        self.campaign.kernel_version,
                        self.campaign.frames,
                        attempts=len(observations),
                        arbitrated=len(observations) > 1,
                        host_context={
                            "fabric_worker": worker.name,
                            "worker_host": worker.host,
                            "attempt": len(observations),
                        },
                    )
                )
                if self.quarantine is not None:
                    self.quarantine.add(
                        suspect.test_id, suspect.function, observations
                    )
                self.unresolved.discard(remaining[0])
                remaining = remaining[1:]
            else:
                self.stats["retries"] += 1
        if remaining:
            self.stats["probe_respawns"] += 1
            self.pending.appendleft((remaining, True))
        if not self.unresolved:
            self.done.set()
        elif not self.done.is_set():
            asyncio.ensure_future(self._grant_idle())

    # -- liveness -----------------------------------------------------------

    async def _reap(self) -> None:
        """Expire workers that stopped heartbeating or stopped progressing."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.heartbeat_s)
            now = loop.time()
            for worker in list(self.workers.values()):
                silent = now - worker.last_seen > 3 * self.heartbeat_s
                lease = (
                    self.leases.get(worker.lease)
                    if worker.lease is not None
                    else None
                )
                stalled = (
                    lease is not None
                    and now - max(lease.granted_at, lease.last_progress)
                    > self.lease_timeout_s
                )
                if silent or stalled:
                    why = "heartbeats" if silent else "lease progress"
                    warnings.warn(
                        f"fabric: worker {worker.name!r} lost ({why} "
                        "timed out); re-leasing its shard",
                        stacklevel=2,
                    )
                    # Closing the transport unblocks the handler's
                    # read; the normal death path does the rest.
                    worker.writer.close()


# -- the synchronous orchestrator -------------------------------------------


def coordinate(
    campaign: Campaign,
    bind: tuple[str, int] = ("127.0.0.1", 0),
    workers: int = 0,
    progress: ProgressHook | None = None,
    resume_from: CampaignLog | None = None,
    log_path: str | Path | None = None,
    timeout_s: float | None = None,
    shard_size: int | None = None,
    retry_policy: RetryPolicy | None = None,
    quarantine_path: str | Path | None = None,
    log_fsync: bool = False,
    batch_records: int = DEFAULT_FLUSH_RECORDS,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    on_listen=None,  # noqa: ANN001 - (host, port) -> None
) -> CampaignResult:
    """Run one campaign over the fabric; the distributed ``Campaign.run``.

    Binds a coordinator on ``bind`` (port 0 picks a free one; the bound
    address is reported through ``on_listen``), optionally spawns
    ``workers`` local loopback worker agents, and executes the campaign
    exactly as :meth:`~repro.fault.campaign.Campaign.run` would:
    ``resume_from`` skips finished specs, ``log_path`` checkpoints every
    record as it arrives and gains the stats trailer even on interrupt,
    quarantined specs are skipped-with-record, and the merged result is
    sorted into global spec order before analysis — so fabric,
    pool-parallel and serial runs of one campaign are record-for-record
    interchangeable.

    With ``workers=0`` the coordinator only serves: start worker agents
    elsewhere with ``repro fabric work``.  Local workers are supervised
    like pool processes — a dead one is respawned, and when respawns
    keep dying without progress
    (:class:`~repro.fault.resilience.RespawnBreaker`) the rest of the
    campaign degrades to the serial in-process runner.
    """
    config = FabricConfig.from_campaign(campaign, timeout_s)  # fail fast
    specs = list(campaign.iter_specs())
    remaining = specs
    done: list[TestRecord] = []
    if resume_from is not None:
        done, remaining = campaign._split_resume(resume_from, specs)
    policy = retry_policy if retry_policy is not None else RetryPolicy()
    stats: dict = {
        "pool_respawns": 0,
        "probe_respawns": 0,
        "retries": 0,
        "degraded_serial": False,
        "quarantined_skips": 0,
        "reset_modes": {},
    }
    if resume_from is not None and resume_from.execution_stats:
        _merge_execution_stats(stats, resume_from.execution_stats)
    quarantine: Quarantine | None = None
    if quarantine_path is not None:
        quarantine = Quarantine.load(quarantine_path)
        skipped = [s for s in remaining if s.test_id in quarantine]
        if skipped:
            remaining = [s for s in remaining if s.test_id not in quarantine]
            done = [
                *done,
                *(
                    quarantined_record(
                        spec,
                        campaign.kernel_version,
                        campaign.frames,
                        quarantine.entries.get(spec.test_id),
                    )
                    for spec in skipped
                ),
            ]
            stats["quarantined_skips"] = len(skipped)
    stream = (
        CampaignLog.stream(log_path, fsync=log_fsync)
        if log_path is not None
        else None
    )
    records: list[TestRecord] = []
    warned: set[str] = set()
    total = len(remaining)
    sink: RecordSink | None = stream.append if stream is not None else None

    def guarded(kind: str, hook, *args) -> None:  # noqa: ANN001
        try:
            hook(*args)
        except ChaosError:
            raise
        except Exception as exc:
            if kind not in warned:
                warned.add(kind)
                warnings.warn(
                    f"campaign {kind} callback raised {exc!r}; "
                    "suppressing further errors from this hook",
                    stacklevel=2,
                )

    def emit(record: TestRecord) -> None:
        records.append(record)
        if sink is not None:
            guarded("sink", sink, record)
        if progress is not None:
            guarded("progress", progress, len(records), total, record)

    arbiter_box: list[VerdictArbiter] = []

    def deliver(record: TestRecord, worker: _Worker) -> bool:
        arbiter = arbiter_box[0]
        if record.watchdog_expired and not policy.single_shot:
            if not arbiter.observe(record.test_id, "watchdog_expired"):
                stats["retries"] += 1
                return False
        arbiter.annotate(record)
        # Fabric provenance: which agent on which host ran this test
        # (stripped, like all host context, in identity comparisons).
        record.host_context = {
            "fabric_worker": worker.name,
            "worker_host": worker.host,
        }
        emit(record)
        return True

    coordinator = FabricCoordinator(
        campaign,
        remaining,
        deliver,
        emit,
        config=config,
        policy=policy,
        stats=stats,
        quarantine=quarantine,
        shard_size=shard_size,
        batch_records=batch_records,
        heartbeat_s=heartbeat_s,
        lease_timeout_s=lease_timeout_s,
        expected_workers=workers or 4,
    )
    arbiter_box.append(coordinator.arbiter)
    try:
        if stream is not None:
            for record in done:
                stream.append(record)
        asyncio.run(
            _execute(coordinator, bind, workers, stats, heartbeat_s, on_listen)
        )
        if coordinator.failure is not None:
            raise coordinator.failure
        if coordinator.degraded and coordinator.unresolved:
            stats["degraded_serial"] = True
            leftovers = [
                coordinator.spec_at[i] for i in sorted(coordinator.unresolved)
            ]
            warnings.warn(
                f"fabric worker respawn budget exhausted after "
                f"{stats['pool_respawns']} respawns; degrading to serial "
                f"execution for {len(leftovers)} remaining specs",
                stacklevel=2,
            )
            campaign._run_serial(leftovers, None, emit, timeout_s, policy, stats)
    finally:
        if stream is not None:
            try:
                stream.append_stats(stats)
            finally:
                stream.close()
        if quarantine is not None and quarantine.dirty:
            quarantine.save()
    order = {spec.test_id: index for index, spec in enumerate(specs)}
    combined = [*done, *records]
    combined.sort(key=lambda record: order[record.test_id])
    log = CampaignLog(combined)
    log.execution_stats = stats
    result = campaign.analyse(log)
    result.execution_stats = stats
    return result


async def _execute(
    coordinator: FabricCoordinator,
    bind: tuple[str, int],
    workers: int,
    stats: dict,
    heartbeat_s: float,
    on_listen,  # noqa: ANN001
) -> None:
    """Async half of :func:`coordinate`: serve, supervise, wait, shut down."""
    import multiprocessing as mp

    await coordinator.start(*bind)
    assert coordinator.addr is not None
    connect_host = (
        "127.0.0.1" if bind[0] in ("", "0.0.0.0", "::") else bind[0]
    )
    context = (
        mp.get_context("fork")
        if "fork" in mp.get_all_start_methods()
        else mp.get_context()
    )

    def spawn(slot: int):  # noqa: ANN202
        process = context.Process(
            target=run_worker,
            kwargs={
                "host": connect_host,
                "port": coordinator.addr[1],
                "name": f"local-{slot}",
                "reconnect": True,
                "heartbeat_s": heartbeat_s,
            },
            daemon=True,
        )
        process.start()
        return process

    processes: list = [spawn(slot) for slot in range(workers)]
    breaker = RespawnBreaker()
    supervisor: asyncio.Task | None = None

    async def supervise() -> None:
        # Local workers get pool-grade supervision: respawn the dead,
        # and degrade to serial when respawns keep dying fruitlessly.
        marker = coordinator.progress_marker()
        while True:
            await asyncio.sleep(0.2)
            if coordinator.done.is_set():
                return
            for slot, process in enumerate(processes):
                if process is None or process.is_alive():
                    continue
                process.join()
                processes[slot] = None
                if coordinator.done.is_set() or not coordinator.unresolved:
                    continue
                breaker.note_round(coordinator.progress_marker() != marker)
                marker = coordinator.progress_marker()
                if breaker.tripped:
                    continue
                stats["pool_respawns"] += 1
                breaker.note_spawn()
                processes[slot] = spawn(slot)
            if (
                breaker.tripped
                and all(process is None for process in processes)
                and not coordinator.workers
            ):
                coordinator.degraded = True
                coordinator.done.set()
                return

    if workers:
        supervisor = asyncio.create_task(supervise())
    if on_listen is not None:
        on_listen(*coordinator.addr)
    try:
        await coordinator.done.wait()
    finally:
        if supervisor is not None:
            supervisor.cancel()
        await coordinator.shutdown()
        for process in processes:
            if process is not None and process.is_alive():
                process.terminate()
        for process in processes:
            if process is not None:
                process.join(timeout=5.0)
