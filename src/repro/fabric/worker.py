"""The fabric worker agent: connect, lease, execute, stream records.

One agent process serves one coordinator.  The control plane is an
asyncio connection (hello/welcome, lease grants, revocations,
heartbeats); the data plane is the same :class:`~repro.fault.executor`
the serial path uses, running leases on a thread so the event loop keeps
heartbeating while tests execute — which is exactly why the per-test
watchdog has an off-main-thread fallback (see ``_watchdog`` in the
executor).  Records travel back as batches of compact
:func:`~repro.fault.wire.encode_record` dicts, flushed by count and by
time so the coordinator always sees lease progress well inside its
lease timeout.

The agent is deliberately stateless between leases: everything it
knows (spec table, compiled plan, executor) derives from the welcome
frame's :class:`~repro.fabric.config.FabricConfig`, so a worker that
reconnects — or a fresh worker replacing a dead one — rebuilds the
identical state and any spec index means the same test.  A loopback
worker forked by the coordinator is also handed the campaign's suite
recipe, so it can run a campaign the JSON config cannot describe, and
the coordinator's compiled plan, so it compiles nothing.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time

from repro.fabric.config import PROTOCOL_VERSION, FabricConfig, FabricError
from repro.fabric.frames import FrameError, encode_frame, read_frame
from repro.fault import wire
from repro.fault.executor import TestExecutor, _kill_injected
from repro.fault.plan import CompiledPlan, group_consecutive
from repro.fault.testlog import TestRecord

#: Records per batch frame on the data plane.  One frame per record
#: would cost an encode, a socket write and a coordinator wakeup per
#: test; batching amortises that, and a worker death loses at most one
#: unflushed batch, whose specs are simply re-leased as probes.
DEFAULT_FLUSH_RECORDS = 32
#: Maximum seconds a finished record may sit unflushed: keeps the
#: coordinator's view of lease progress fresh even when records are
#: trickling in far below the batch size.
FLUSH_INTERVAL_S = 0.5
DEFAULT_HEARTBEAT_S = 2.0
#: Connection attempts (and the pause between them) before an agent
#: gives up on an unreachable coordinator.
CONNECT_ATTEMPTS = 20
CONNECT_DELAY_S = 0.25

#: Sentinel queued by the reader task when the connection is gone.
_CLOSED = {"type": "__closed__"}


class WorkerAgent:
    """One fabric worker: a connection loop around a local executor."""

    def __init__(
        self,
        host: str,
        port: int,
        name: str | None = None,
        reconnect: bool = True,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        recipe: wire.SuiteRecipe | None = None,
        plan: CompiledPlan | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.reconnect = reconnect
        self.heartbeat_s = heartbeat_s
        #: Suite recipe handed over at spawn (loopback workers); None =
        #: rebuild it from the welcome frame's config.
        self.recipe = recipe
        #: The coordinator's compiled plan over the recipe's spec table,
        #: handed over at spawn (loopback workers); None = compile it.
        self.plan = plan
        #: Lease number -> spec indices revoked (stolen) from that
        #: lease; read by the execution thread, written by the event
        #: loop's reader task.  Keyed by lease because a stolen index
        #: can come back to this worker in a later lease (re-queued
        #: after the thief died), and must run there.
        self._revoked: dict[int, set[int]] = {}
        self._revoked_lock = threading.Lock()
        #: (config-dict JSON, executor, spec table, plan) cached across
        #: reconnects: rebuilding the warm-boot snapshot and compiled
        #: plan is the expensive part of agent startup.
        self._state: tuple | None = None

    # -- entry point --------------------------------------------------------

    def run(self) -> None:
        """Serve the coordinator until it says done (or is gone for good)."""
        asyncio.run(self._main())

    async def _main(self) -> None:
        misses = 0
        while True:
            try:
                reader, writer = await asyncio.open_connection(self.host, self.port)
            except OSError:
                misses += 1
                if misses >= CONNECT_ATTEMPTS:
                    raise FabricError(
                        f"coordinator at {self.host}:{self.port} unreachable "
                        f"after {misses} attempts"
                    )
                await asyncio.sleep(CONNECT_DELAY_S)
                continue
            misses = 0
            try:
                finished = await self._serve(reader, writer)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass
            if finished or not self.reconnect:
                return
            # Connection dropped mid-campaign: reconnect and resume —
            # the coordinator re-leases whatever this agent still owed.

    # -- one connection -----------------------------------------------------

    async def _serve(self, reader, writer) -> bool:  # noqa: ANN001
        """Serve one connection; True when the campaign completed."""
        send_lock = asyncio.Lock()

        async def send(message: dict) -> None:
            async with send_lock:
                writer.write(encode_frame(message))
                await writer.drain()

        await send(
            {
                "type": "hello",
                "name": self.name,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
            }
        )
        try:
            welcome = await read_frame(reader)
        except FrameError as exc:
            raise FabricError(f"bad welcome from coordinator: {exc}") from exc
        if welcome is None:
            return False  # coordinator vanished during the handshake
        if welcome.get("type") != "welcome":
            raise FabricError(
                f"expected welcome, got {welcome.get('type')!r}"
            )
        if welcome.get("protocol") != PROTOCOL_VERSION:
            raise FabricError(
                f"protocol mismatch: coordinator speaks "
                f"{welcome.get('protocol')}, this agent {PROTOCOL_VERSION}"
            )
        state = self._build_state(welcome.get("config") or {})
        # Lease numbers are per coordinator: a reconnect may be talking
        # to a restarted one that counts from 1 again.
        with self._revoked_lock:
            self._revoked.clear()

        incoming: asyncio.Queue = asyncio.Queue()

        async def read_loop() -> None:
            while True:
                try:
                    frame = await read_frame(reader)
                except (FrameError, OSError):
                    frame = None
                if frame is None:
                    incoming.put_nowait(_CLOSED)
                    return
                kind = frame.get("type")
                if kind == "revoke":
                    with self._revoked_lock:
                        revoked = self._revoked.setdefault(frame.get("lease"), set())
                        revoked.update(frame.get("indices", ()))
                elif kind in ("lease", "done"):
                    incoming.put_nowait(frame)
                # Unknown control frames are ignored: a newer
                # coordinator may speak extensions this agent predates.

        async def heartbeat_loop() -> None:
            while True:
                await asyncio.sleep(self.heartbeat_s)
                try:
                    await send({"type": "heartbeat"})
                except (ConnectionError, OSError):
                    return

        async def drain_for_done() -> bool:
            # A send can fail *after* the campaign ended: the
            # coordinator's done frame may already sit in the incoming
            # queue (or the socket buffer) behind a connection its
            # shutdown has closed.  Keep reading until the done frame
            # or the reader's EOF sentinel settles it.
            while True:
                frame = await incoming.get()
                if frame is _CLOSED:
                    return False
                if frame.get("type") == "done":
                    return True

        reader_task = asyncio.create_task(read_loop())
        beat_task = asyncio.create_task(heartbeat_loop())
        try:
            while True:
                await send({"type": "lease-request"})
                frame = await incoming.get()
                if frame is _CLOSED:
                    return False
                if frame.get("type") == "done":
                    return True
                await self._execute_lease(state, frame, send, writer.write)
        except (ConnectionError, OSError):
            return await drain_for_done()
        finally:
            reader_task.cancel()
            beat_task.cancel()

    def _build_state(self, config_dict: dict) -> tuple:
        """Executor + spec table + plan for one config, reconnect-cached."""
        import json

        key = json.dumps(config_dict, sort_keys=True)
        if self._state is not None and self._state[0] == key:
            return self._state
        config = FabricConfig.from_dict(config_dict)
        table = wire.build_spec_table(
            self.recipe if self.recipe is not None else config.recipe()
        )
        executor = TestExecutor(
            kernel_version=config.kernel_version,
            frames=config.frames,
            warm_boot=config.warm_boot,
            timeout_s=config.timeout_s,
            delta_reset=config.delta_reset,
            journal_budget=config.journal_budget,
            verify_reset=config.verify_reset,
            verify_plan=config.verify_plan,
            profile=config.profile,
        )
        plan = None
        if config.compiled_plan:
            plan = self.plan
            if plan is None:
                plan = executor.compile_suite(table)
            elif (plan.kernel_version, plan.frames, len(plan)) != (
                config.kernel_version, config.frames, len(table),
            ):
                raise RuntimeError(
                    f"handed-over plan ({plan.kernel_version}, {plan.frames} "
                    f"frames, {len(plan)} entries) does not match the config "
                    f"({config.kernel_version}, {config.frames} frames, "
                    f"{len(table)} specs)"
                )
        executor.prepare()
        self._state = (key, config, executor, table, plan)
        return self._state

    # -- lease execution ----------------------------------------------------

    async def _execute_lease(self, state, frame, send, write) -> None:  # noqa: ANN001
        """Run one lease on a thread, streaming record batches back.

        The execution thread encodes each batch frame itself and hands
        the loop only the bytes to ``write``: leaving the encoding to
        the loop thread stalled the tests on the interpreter lock once
        per batch.
        """
        _key, config, executor, table, plan = state
        lease_no = frame.get("lease")
        indices = list(frame.get("indices", ()))
        flush_n = max(1, int(frame.get("flush") or DEFAULT_FLUSH_RECORDS))
        loop = asyncio.get_running_loop()

        def submit(batch: list[dict]) -> None:
            message = {"type": "records", "lease": lease_no, "records": batch}
            if flush_n == 1:
                # Per-record leases probe the suspects of a worker
                # death: a record must be on the wire before the next
                # test runs, or a death in that test would leave the
                # coordinator blaming the innocent one still queued.
                asyncio.run_coroutine_threadsafe(send(message), loop).result()
            else:
                loop.call_soon_threadsafe(write, encode_frame(message))

        try:
            stats, phases = await asyncio.to_thread(
                self._run_indices, config, executor, table, plan,
                lease_no, indices, flush_n, submit,
            )
            # Every write was queued with call_soon_threadsafe before
            # to_thread resolved (FIFO), so the records precede this.
            done_frame = {"type": "lease-done", "lease": lease_no}
            if stats:
                done_frame["stats"] = stats
            if phases:
                done_frame["phases"] = phases
            await send(done_frame)
        finally:
            with self._revoked_lock:
                self._revoked.pop(lease_no, None)

    def _run_indices(
        self,
        config: FabricConfig,
        executor: TestExecutor,
        table: list,
        plan,  # noqa: ANN001 - CompiledPlan | None
        lease_no: int,
        indices: list[int],
        flush_n: int,
        submit,  # noqa: ANN001
    ) -> tuple[dict, dict]:
        """Execution-thread body: run one lease's specs.

        Runs the leased indices in order, skipping any revoked from
        this lease before they start (a stolen index already running
        just finishes — the coordinator dedups by test id).  Returns
        (reset-stat deltas, phase-time deltas) for the lease-done frame.
        """
        stats_before = dict(executor.reset_stats)
        phases_before = dict(executor.phase_times) if config.profile else {}
        pending: list[dict] = []
        last_flush = time.monotonic()

        def emit_record(record: TestRecord) -> None:
            nonlocal last_flush
            pending.append(wire.encode_record(record))
            now = time.monotonic()
            if len(pending) >= flush_n or now - last_flush >= FLUSH_INTERVAL_S:
                submit(pending[:])
                pending.clear()
                last_flush = now

        def skip(index: int) -> bool:
            with self._revoked_lock:
                return index in self._revoked.get(lease_no, ())

        def gate(test_id: str) -> None:
            if _kill_injected(test_id):
                os._exit(17)  # fault injection: die like a harness-killing test

        if plan is not None:
            live = [(i, plan.entries[i]) for i in indices]
            if config.batch_hypercalls:
                for group in _group_pairs(live):
                    # Lazy, so an index revoked while its group runs is
                    # skipped rather than run twice (here and by the
                    # thief that stole it).
                    executor.run_group(
                        (e for i, e in group if not skip(i)),
                        emit=lambda _e, r: emit_record(r),
                        gate=lambda e: gate(e.test_id),
                    )
            else:
                for index, entry in live:
                    if skip(index):
                        continue
                    gate(entry.test_id)
                    emit_record(executor.run_planned(entry))
        else:
            for index in indices:
                if skip(index):
                    continue
                spec = table[index]
                gate(spec.test_id)
                emit_record(executor.run(spec))
        if pending:
            submit(pending[:])
            pending.clear()
        stats_delta = {
            name: count - stats_before.get(name, 0)
            for name, count in executor.reset_stats.items()
            if count != stats_before.get(name, 0)
        }
        phases_delta = (
            {
                name: seconds - phases_before.get(name, 0.0)
                for name, seconds in executor.phase_times.items()
                if seconds != phases_before.get(name, 0.0)
            }
            if config.profile
            else {}
        )
        return stats_delta, phases_delta


def _group_pairs(live: list[tuple[int, object]]) -> list[list[tuple[int, object]]]:
    """``group_consecutive`` over (index, entry) pairs."""
    grouped = group_consecutive([entry for _i, entry in live])
    out: list[list[tuple[int, object]]] = []
    position = 0
    for group in grouped:
        out.append(live[position : position + len(group)])
        position += len(group)
    return out


def run_worker(
    host: str,
    port: int,
    name: str | None = None,
    reconnect: bool = True,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    recipe: wire.SuiteRecipe | None = None,
    plan: CompiledPlan | None = None,
) -> None:
    """Module-level worker entry point (picklable for multiprocessing)."""
    from repro.fault import failpoints

    failpoints.mark_worker_process()
    WorkerAgent(
        host,
        port,
        name=name,
        reconnect=reconnect,
        heartbeat_s=heartbeat_s,
        recipe=recipe,
        plan=plan,
    ).run()
