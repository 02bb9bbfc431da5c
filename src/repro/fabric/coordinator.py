"""The fabric coordinator: lease shards to worker agents over TCP.

The campaign's one parallel executor, for local processes and remote
hosts alike.  The coordinator partitions the spec table into
integer-index shards, *leases* them to connected worker agents, hands
records to the :class:`~repro.fault.session.CampaignSession` as batches
stream back, and treats every way a worker can vanish — process death,
clean EOF, reset connection, malformed frame, missed heartbeats, a
lease that stops progressing — as the same event: the lease's
unfinished indices go back on the queue and the campaign continues.
No worker failure mode kills the coordinator.

Killer attribution is a probe protocol.  A normal lease streams records
in batches, so the specs a dead worker still owed are ambiguous (its
unflushed batch tail hides finished innocents); the re-lease therefore
runs with per-record flushing (``flush: 1``), after which the first
owed index *is* the spec that was running when the worker died.  Each
probe-lease death adds one ``worker_killed`` observation for that spec;
the quorum (:class:`~repro.fault.resilience.VerdictArbiter`) decides
when the verdict is terminal, and confirmed killers land in the
persistent :class:`~repro.fault.resilience.Quarantine`.

Work stealing handles stragglers: an idle worker with an empty queue is
granted the tail half of the largest outstanding lease (the victim gets
a ``revoke`` frame for the stolen indices; a steal that races a test
already running is harmless — records dedup by test id).

:func:`coordinate` runs one campaign session on this executor —
``Campaign.run(processes=N)`` is ``coordinate(workers=N)`` — so an
interrupted-and-resumed fabric campaign is record-for-record identical
to an uninterrupted serial run.
"""

from __future__ import annotations

import asyncio
import warnings
from collections import deque
from pathlib import Path

from repro.fabric.config import PROTOCOL_VERSION, FabricConfig
from repro.fabric.frames import FrameError, encode_frame, read_frame
from repro.fabric.worker import DEFAULT_FLUSH_RECORDS, run_worker
from repro.fault import wire
from repro.fault.campaign import Campaign, CampaignResult
from repro.fault.executor import worker_killed_record
from repro.fault.failpoints import ChaosError
from repro.fault.resilience import RespawnBreaker, RetryPolicy
from repro.fault.session import (
    CampaignSession,
    ProgressHook,
    merge_phase_times,
    merge_reset_modes,
)
from repro.fault.testlog import CampaignLog

DEFAULT_HEARTBEAT_S = 2.0
DEFAULT_LEASE_TIMEOUT_S = 60.0
#: Smallest lease remainder worth stealing from (below this the victim
#: finishes faster than a steal round-trip).
MIN_STEAL = 4


def _lease_size(total: int, workers: int) -> int:
    """Default lease size for ``total`` specs across ``workers`` agents.

    Big enough to amortise per-lease round trips (at least 16 specs,
    ~8 leases per worker on large campaigns so stragglers balance), but
    never so big that a worker sits idle while another holds more than
    its share of a small campaign.
    """
    if total <= 0:
        return 1
    amortised = max(16, total // (workers * 8))
    per_worker = -(-total // workers)  # ceil
    return max(1, min(amortised, per_worker))


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

    __slots__ = ("name", "host", "writer", "lease", "idle", "last_seen", "context")

    def __init__(
        self, name: str, host: str, writer, now: float, context: dict  # noqa: ANN001
    ) -> None:
        self.name = name
        self.host = host
        self.writer = writer
        self.lease: int | None = None
        self.idle = False
        self.last_seen = now
        #: Provenance stamped on every record this worker relays (one
        #: shared dict; stripped, like all host context, in identity
        #: comparisons).
        self.context = context


class FabricCoordinator:
    """Asyncio TCP server that leases spec shards and collects records.

    Every (deduplicated) relayed record goes to
    :meth:`CampaignSession.deliver` — arbitration, checkpoint, progress;
    a False return withholds it and re-leases its spec.  Terminal
    records the coordinator synthesises itself (``worker_killed``
    verdicts) go to :meth:`CampaignSession.emit`.  Both run on the
    event loop; a BaseException from either (a progress hook's
    KeyboardInterrupt, injected ChaosError) is captured into
    ``self.failure`` and ends the campaign.
    """

    def __init__(
        self,
        session: CampaignSession,
        config: FabricConfig,
        workers: int = 0,
        shard_size: int | None = None,
        batch_records: int = DEFAULT_FLUSH_RECORDS,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
    ) -> None:
        self.session = session
        self.campaign = session.campaign
        self.config = config
        self.batch_records = max(1, batch_records)
        self.heartbeat_s = heartbeat_s
        self.lease_timeout_s = lease_timeout_s
        #: Local worker processes the caller spawns (0 = serve only).
        self.local_workers = workers
        #: Full campaign spec table: wire indices address this, exactly
        #: as every worker's regenerated table does.
        self.spec_at = session.specs
        self.index_of = {
            spec.test_id: index for index, spec in enumerate(self.spec_at)
        }
        work = [self.index_of[spec.test_id] for spec in session.remaining]
        self.unresolved: set[int] = set(work)
        self.lease_size = shard_size or _lease_size(len(work), workers or 4)
        #: Ungranted work: (indices, probe) shards.  Probe shards (the
        #: re-leased remainder of a dead worker's lease) go to the
        #: front and run with per-record flushing.
        self.pending: deque[tuple[list[int], bool]] = deque(
            (work[start : start + self.lease_size], False)
            for start in range(0, len(work), self.lease_size)
        )
        self.workers: dict[str, _Worker] = {}
        self.leases: dict[int, _Lease] = {}
        self._lease_seq = 0
        #: Names of workers lost while holding a probe lease, until the
        #: local supervisor has accounted for their respawn.
        self.lost_on_probe: set[str] = set()
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
        return (len(self.unresolved), self.session.arbiter.total_observations)

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
            host = str(hello.get("host") or "?")
            context = {
                "processes": self.local_workers,
                "shard_size": self.lease_size,
                "fabric_worker": name,
                "worker_host": host,
            }
            worker = _Worker(name, host, writer, loop.time(), context)
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
        stats = self.session.stats
        stats["lease_steals"] = stats.get("lease_steals", 0) + 1
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
        if self.done.is_set():
            # Over (finished, failed or degraded): a batch still in
            # flight from another worker must not reach the checkpoint
            # after the campaign's failure was captured.
            return
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
            if not self.session.deliver(record, worker.context):
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
            merge_reset_modes(self.session.stats, frame["stats"])
        if frame.get("phases"):
            merge_phase_times(self.session.stats, frame["phases"])
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
        if lease is None or self.done.is_set():
            return  # once the campaign is over, a hang-up is not a death
        session = self.session
        remaining = [i for i in lease.remaining if i in self.unresolved]
        if lease.probe:
            self.lost_on_probe.add(name)
        if lease.probe and remaining:
            suspect = self.spec_at[remaining[0]]
            terminal = session.policy.single_shot or session.arbiter.observe(
                suspect.test_id, "worker_killed"
            )
            observations = session.arbiter.observations(suspect.test_id) or [
                "worker_killed"
            ]
            if terminal:
                session.emit(
                    worker_killed_record(
                        suspect,
                        self.campaign.kernel_version,
                        self.campaign.frames,
                        attempts=len(observations),
                        arbitrated=len(observations) > 1,
                        host_context={
                            **worker.context,
                            "attempt": len(observations),
                        },
                    )
                )
                if session.quarantine is not None:
                    session.quarantine.add(
                        suspect.test_id, suspect.function, observations
                    )
                self.unresolved.discard(remaining[0])
                remaining = remaining[1:]
            else:
                session.stats["retries"] += 1
        if remaining:
            session.stats["probe_respawns"] += 1
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
    """Run one campaign over the fabric; the parallel ``Campaign.run``.

    Binds a coordinator on ``bind`` (port 0 picks a free one; the bound
    address is reported through ``on_listen``), optionally spawns
    ``workers`` local loopback worker processes, and executes the
    campaign in the same :class:`~repro.fault.session.CampaignSession`
    as the serial runner — resume, quarantine, checkpoint stream and
    spec-order merge alike — so fabric and serial runs of one campaign
    are record-for-record interchangeable.  ``shard_size`` is the lease
    size (default: auto sized).

    Local workers are forked and handed the suite recipe and the
    campaign's compiled plan, so they run any campaign with the default
    testbed and compile nothing.  With ``workers=0`` the
    coordinator only serves agents started elsewhere with ``repro
    fabric work``, which rebuild the suite from the JSON
    :class:`~repro.fabric.config.FabricConfig` (:class:`FabricError`
    for a campaign it cannot describe).

    Local workers are supervised: a dead one is respawned; a worker
    that dies before any work was leased raises ``RuntimeError`` (it
    cannot start); and when respawns keep dying without progress
    (:class:`~repro.fault.resilience.RespawnBreaker`) the rest of the
    campaign degrades to the serial in-process runner.
    """
    if shard_size is not None and shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    # Fail fast, before any log is opened.
    config = FabricConfig.from_campaign(campaign, timeout_s, portable=not workers)
    with CampaignSession(
        campaign, progress, resume_from, log_path, retry_policy,
        quarantine_path, log_fsync,
    ) as session:
        coordinator = FabricCoordinator(
            session,
            config,
            workers=workers,
            shard_size=shard_size,
            batch_records=batch_records,
            heartbeat_s=heartbeat_s,
            lease_timeout_s=lease_timeout_s,
        )
        asyncio.run(_execute(coordinator, bind, workers, heartbeat_s, on_listen))
        if coordinator.failure is not None:
            raise coordinator.failure
        if coordinator.degraded and coordinator.unresolved:
            session.stats["degraded_serial"] = True
            leftovers = [
                coordinator.spec_at[i] for i in sorted(coordinator.unresolved)
            ]
            warnings.warn(
                f"fabric worker respawn budget exhausted after "
                f"{session.stats['pool_respawns']} respawns; degrading to "
                f"serial execution for {len(leftovers)} remaining specs",
                stacklevel=2,
            )
            campaign._run_serial(leftovers, session, timeout_s)
    return session.result()


async def _execute(
    coordinator: FabricCoordinator,
    bind: tuple[str, int],
    workers: int,
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
    campaign = coordinator.campaign
    # Handed over at spawn: a forked worker needs no JSON description of
    # the suite, so custom models, dictionaries and strategies run too.
    recipe = wire.SuiteRecipe(
        model=campaign.model,
        dictionaries=campaign.dictionaries,
        strategy=campaign.strategy,
        functions=campaign.functions,
        total=len(coordinator.spec_at),
    )
    # Compiled once, here, before the fork: every worker (and every
    # respawn) inherits it, and analyse reuses it.
    plan = campaign.plan() if campaign.compiled_plan else None

    def spawn(slot: int):  # noqa: ANN202
        process = context.Process(
            target=run_worker,
            kwargs={
                "host": connect_host,
                "port": coordinator.addr[1],
                "name": f"local-{slot}",
                "reconnect": True,
                "heartbeat_s": heartbeat_s,
                "recipe": recipe,
                "plan": plan,
            },
            daemon=True,
        )
        process.start()
        return process

    processes: list = (
        [spawn(slot) for slot in range(workers)] if coordinator.unresolved else []
    )
    stats = coordinator.session.stats
    breaker = RespawnBreaker()
    supervisor: asyncio.Task | None = None

    async def supervise() -> None:
        # Each respawned process is one breaker round, productive if the
        # campaign advanced while it lived.  A worker lost on a probe
        # lease counts as a probe respawn (its re-lease did), not as a
        # pool respawn.
        respawned_at: dict[int, tuple] = {}
        while True:
            await asyncio.sleep(0.2)
            if coordinator.done.is_set():
                return
            for slot, process in enumerate(processes):
                if process is None or process.is_alive():
                    continue
                name = f"local-{slot}"
                if name in coordinator.workers:
                    continue  # its lost connection is not handled yet
                process.join()
                processes[slot] = None
                on_probe = name in coordinator.lost_on_probe
                coordinator.lost_on_probe.discard(name)
                if not coordinator._lease_seq:  # nothing leased yet
                    coordinator.failure = RuntimeError(
                        "worker pool died before any test started "
                        "(initializer failure?)"
                    )
                    coordinator.done.set()
                    return
                if slot in respawned_at:
                    breaker.note_round(
                        coordinator.progress_marker() != respawned_at.pop(slot)
                    )
                if coordinator.done.is_set() or breaker.tripped:
                    continue
                if not on_probe:
                    stats["pool_respawns"] += 1
                breaker.note_spawn()
                processes[slot] = spawn(slot)
                respawned_at[slot] = coordinator.progress_marker()
            if (
                breaker.tripped
                and all(process is None for process in processes)
                and not coordinator.workers
            ):
                coordinator.degraded = True
                coordinator.done.set()
                return

    if processes:
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
