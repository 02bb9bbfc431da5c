"""Test execution: pack, boot, run, observe (paper steps 3-5).

For each test case the FDIR test partition carries the fault
placeholder, which stages the layout buffers, invokes the hypercall with
the resolved dataset once per major frame, and records whether/what it
returned.  The executor runs the simulator for a fixed number of major
frames, catching the two simulator-level failures, and distils
everything the paper logs into a
:class:`~repro.fault.testlog.TestRecord`.

Every test observes the same timeline: the system boots, runs one full
*settle* major frame with the placeholder staged but not yet invoking,
then invokes once per major frame for ``frames`` frames.  That shared
settle frame is what makes the two execution modes byte-identical:

- **cold boot** — pack a fresh TSP system, boot it, run the settle
  frame, arm the payload, run the test window;
- **warm boot** (default) — boot *once* per
  ``(testbed, kernel_version, layout)``, capture a deep
  :class:`~repro.tsim.simulator.SimSnapshot` right after the settle
  frame, then run each test by restoring the snapshot, arming the
  restored payload with the spec, and running the same test window.

Warm boot skips the pack/boot/settle work per test (the dominant cost)
and is disabled automatically — with a cold fallback — when a custom
``system_factory`` is installed or the packed software turns out not to
be snapshottable.

Process isolation (worker processes separate from the campaign,
faithful to the paper's one-TSIM-per-test shell scripts) is provided by
the fabric's worker agents (:mod:`repro.fabric.worker`): each worker
process holds one executor, builds its snapshot once and reuses it for
every lease of spec-table indices it is handed.  An optional wall-clock
watchdog (``timeout_s``) turns a runaway run into a ``sim_hung``-style
record instead of a stalled campaign.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.fault import failpoints
from repro.fault.mutant import TestCallSpec, TestPartitionLayout, default_layout
from repro.fault.plan import (
    DEFAULT_FRAMES,
    DEFAULT_JOURNAL_BUDGET,
    CompiledPlan,
    PlanEntry,
)
from repro.fault.testlog import Invocation, TestRecord, capture_state
from repro.testbed import build_system
from repro.testbed.builder import FDIR_SLOT_HOOK
from repro.tsim.delta import DeltaResetError, Unjournalable
from repro.tsim.simulator import (
    SimSnapshot,
    SimulatorCrash,
    SimulatorHang,
    SnapshotCache,
    SnapshotError,
)
from repro.xm.errors import NoReturnFromHypercall
from repro.xm.vulns import VULNERABLE_VERSION

#: Console lines kept in the record.
CONSOLE_TAIL = 8

#: Fault-injection hooks for the campaign supervisor's own tests: a
#: worker that is handed a named test id dies (or spins until the
#: watchdog fires) on purpose, reproducing at process level the paper's
#: tests that killed their own harness (`XM_set_timer(1,1,1)` took TSIM
#: down with it).  Each variable takes a comma-separated list of test
#: ids, or ``*`` for every spec.  Ignored unless set.
KILL_SPEC_ENV = "REPRO_KILL_SPEC"
HANG_SPEC_ENV = "REPRO_HANG_SPEC"
#: Directory of one-shot markers: when set, each injected kill/hang
#: fires only the *first* time a given test id is handed to a worker
#: (a marker file is claimed with O_CREAT|O_EXCL, so the exactly-once
#: guarantee holds across worker respawns and processes).  Transient
#: faults are what verdict arbitration exists to absorb — this is how
#: its tests make a spec lethal once and innocent ever after.
FAULT_ONCE_DIR_ENV = "REPRO_FAULT_ONCE_DIR"


def _fault_once(test_id: str, kind: str) -> bool:
    """Whether an injected fault should fire under the once-marker dir.

    Always True when ``FAULT_ONCE_DIR_ENV`` is unset (faults repeat on
    every run); with it set, the first caller to claim the marker file
    fires and every later attempt stays innocent.
    """
    marker_dir = os.environ.get(FAULT_ONCE_DIR_ENV)
    if not marker_dir:
        return True
    marker = os.path.join(marker_dir, f"{kind}-{test_id}")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _fault_targets(value: str | None) -> set[str]:
    """Parse a fault-hook env value into its set of targeted test ids."""
    if not value:
        return set()
    return {target.strip() for target in value.split(",") if target.strip()}


def _kill_injected(test_id: str) -> bool:
    """Whether the kill-injection hook says this worker run must die."""
    targets = _fault_targets(os.environ.get(KILL_SPEC_ENV))
    if "*" not in targets and test_id not in targets:
        return False
    return _fault_once(test_id, "kill")


class ResetVerifyError(RuntimeError):
    """``--verify-reset``: a delta-path record diverged from full restore."""

    def __init__(self, test_id: str, field_name: str) -> None:
        super().__init__(
            f"verify-reset mismatch on {test_id}: field {field_name!r} differs "
            "between the delta-reset and full-restore runs"
        )
        self.test_id = test_id
        self.field_name = field_name


class PlanVerifyError(RuntimeError):
    """``--verify-plan``: a compiled-plan record diverged from unplanned."""

    def __init__(self, test_id: str, field_name: str) -> None:
        super().__init__(
            f"verify-plan mismatch on {test_id}: field {field_name!r} differs "
            "between the compiled-plan and unplanned runs"
        )
        self.test_id = test_id
        self.field_name = field_name


class WatchdogExpired(Exception):
    """A test run exceeded the executor's wall-clock budget.

    ``timeout_s`` defaults to None because the timer-thread watchdog
    delivers this exception asynchronously via
    ``PyThreadState_SetAsyncExc``, which instantiates the class with no
    arguments.
    """

    def __init__(self, timeout_s: float | None = None) -> None:
        budget = f"{timeout_s}s" if timeout_s is not None else "wall-clock"
        super().__init__(f"test run exceeded the {budget} watchdog")
        self.timeout_s = timeout_s


class _ThreadWatchdog:
    """Timer-thread watchdog for executors running off the main thread.

    ``signal.setitimer`` raises ``ValueError`` anywhere but the main
    thread, and the fabric worker agent runs its executor in a thread
    spawned from the asyncio event loop — so off the main thread the
    deadline is enforced by a daemon :class:`threading.Timer` that
    raises :class:`WatchdogExpired` *inside the guarded thread* via
    ``PyThreadState_SetAsyncExc`` (delivered at the next bytecode
    boundary, which interrupts a Python-level livelock exactly like the
    SIGALRM path does).  ``disarm`` both cancels the timer and clears a
    fired-but-not-yet-delivered exception, so a test that finished just
    under the deadline cannot have its completed record destroyed by a
    late delivery.
    """

    def __init__(self, timeout_s: float, thread_id: int) -> None:
        self._thread_id = thread_id
        self._lock = threading.Lock()
        self._fired = False
        self._disarmed = False
        self._timer = threading.Timer(timeout_s, self._fire)
        self._timer.daemon = True
        self._timer.start()

    def _fire(self) -> None:
        import ctypes

        with self._lock:
            if self._disarmed:
                return
            self._fired = True
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(self._thread_id),
                ctypes.py_object(WatchdogExpired),
            )

    def disarm(self) -> None:
        """Cancel the timer and retract a fired-but-undelivered raise."""
        import ctypes

        with self._lock:
            self._disarmed = True
            self._timer.cancel()
            if self._fired:
                # Clear a pending (undelivered) async exception; a
                # no-op when it was already delivered and caught.
                ctypes.pythonapi.PyThreadState_SetAsyncExc(
                    ctypes.c_ulong(self._thread_id), None
                )
                self._fired = False


#: The active watchdog of each non-main thread (see ``_disarm_watchdog``).
_THREAD_WATCHDOG = threading.local()


@contextmanager
def _watchdog(timeout_s: float | None) -> Iterator[None]:
    """Raise :class:`WatchdogExpired` in-thread after ``timeout_s``.

    SIGALRM-based on the main thread of a process (the serial runner);
    off the main thread — a fabric worker agent running the executor
    from its event loop's thread pool — it falls back to a
    :class:`_ThreadWatchdog` timer thread instead of silently running
    unguarded.  Either way a runaway test (a livelock the event budget
    cannot see, e.g. one spinning outside the simulator) is interrupted
    instead of hanging the campaign.
    """
    if not timeout_s:
        yield
        return
    if (
        not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        ident = threading.get_ident()
        watchdog = _ThreadWatchdog(timeout_s, ident)
        _THREAD_WATCHDOG.active = watchdog
        try:
            yield
        finally:
            _THREAD_WATCHDOG.active = None
            watchdog.disarm()
        return

    def _fire(signum, frame):  # noqa: ANN001 - signal handler signature
        raise WatchdogExpired(timeout_s)

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _disarm_watchdog() -> None:
    """Stop a pending watchdog before the run's grace period expires.

    Called as soon as the run phase is over: a test that completed just
    under the deadline must not have its finished record discarded — or
    its snapshot recycling aborted midway — by the timer firing during
    record building.  Idempotent with the context manager's own disarm;
    covers both the SIGALRM path and the timer-thread fallback.
    """
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    active = getattr(_THREAD_WATCHDOG, "active", None)
    if active is not None:
        active.disarm()


def _maybe_injected_hang(test_id: str) -> None:
    """Spin forever when the hang-injection hook names this test."""
    targets = _fault_targets(os.environ.get(HANG_SPEC_ENV))
    if ("*" in targets or test_id in targets) and _fault_once(test_id, "hang"):
        while True:  # interrupted by the watchdog's SIGALRM
            time.sleep(0.01)


@dataclass(frozen=True)
class ExecutionResult:
    """A record plus the executor inputs that produced it."""

    record: TestRecord
    spec: TestCallSpec
    kernel_version: str


@dataclass
class CampaignPayload:
    """The fault placeholder packed into the FDIR partition.

    A plain (picklable) object rather than a closure, so it can travel
    inside warm-boot snapshots.  Unarmed, it only stages the layout
    buffers; :meth:`arm` gives it a spec, after which every FDIR slot
    resolves the dataset (once), captures the kernel state vector and
    invokes the hypercall.

    The first slot of the system's life is the *settle* slot: the
    payload stages and returns without invoking, so the test window
    always starts one major frame after boot — the anchor that keeps
    warm-boot and cold-boot runs on the same timeline.  After a system
    reset there is no settling: the payload re-stages and invokes in the
    same slot, exactly like the packed placeholder on the real testbed.
    """

    layout: TestPartitionLayout
    spec: TestCallSpec | None = None
    invocations: list[Invocation] = field(default_factory=list)
    resolved: tuple[int, ...] | None = None
    staged_epoch: int = -1
    applied_epoch: int = -1
    settled: bool = False
    #: Compiled-plan entry when armed via :meth:`arm_planned`; carries
    #: pre-converted arguments for the kernel's prepared dispatch path.
    plan_entry: PlanEntry | None = None

    def arm(self, spec: TestCallSpec) -> None:
        """Point the placeholder at a test spec, clearing old results.

        The dataset is resolved here, once per arm — resolution is pure
        in (spec, layout), so resolving eagerly is observationally
        identical to the old first-invocation resolution and removes
        the double work the record builder used to do when a test
        crashed before its first invocation ever resolved.
        """
        self.spec = spec
        self.invocations = []
        self.resolved = spec.resolve_args(self.layout)
        self.applied_epoch = -1
        self.plan_entry = None

    def arm_planned(self, entry: PlanEntry) -> None:
        """Arm from a compiled-plan entry: resolution already done."""
        self.spec = entry.spec
        self.invocations = []
        self.resolved = entry.resolved
        self.applied_epoch = -1
        self.plan_entry = entry

    def apply_state(self, ctx, xm) -> None:  # noqa: ANN001 - slot signature
        """Pre-invocation hook, once per boot epoch (stress overrides)."""

    def __call__(self, ctx, xm) -> None:  # noqa: ANN001 - FdirPayload signature
        """One FDIR slot: stage (first slot per epoch), then invoke."""
        epoch = ctx.kernel.boot_epoch
        if self.staged_epoch != epoch:
            for address, data in self.layout.staging_writes():
                xm.write_bytes(address, data)
            self.staged_epoch = epoch
            if not self.settled:
                self.settled = True
                return
        if self.spec is None:
            return
        if self.applied_epoch != epoch:
            self.apply_state(ctx, xm)
            self.applied_epoch = epoch
        if self.resolved is None:  # armed by hand, not via arm()
            self.resolved = self.spec.resolve_args(self.layout)
        state = capture_state(ctx.kernel)
        entry = self.plan_entry
        try:
            if entry is not None:
                code = ctx.kernel.hypercall_prepared(ctx.partition, entry)
            else:
                code = xm.call(self.spec.function, *self.resolved)
        except NoReturnFromHypercall as exc:
            self.invocations.append(
                Invocation(returned=False, note=str(exc), state=state)
            )
            raise
        self.invocations.append(Invocation(returned=True, rc=code, state=state))


#: Process-wide snapshot cache: one boot per (testbed, version, layout)
#: key no matter how many executors run in this process.
_SNAPSHOT_CACHE = SnapshotCache()


class TestExecutor:
    """Runs test-call specs on EagleEye systems (warm-boot by default)."""

    __test__ = False  # keep pytest from collecting this library class

    def __init__(
        self,
        kernel_version: str = VULNERABLE_VERSION,
        frames: int = DEFAULT_FRAMES,
        layout: TestPartitionLayout | None = None,
        system_factory=None,
        warm_boot: bool = True,
        snapshot_cache: SnapshotCache | None = None,
        timeout_s: float | None = None,
        delta_reset: bool = True,
        journal_budget: int | None = DEFAULT_JOURNAL_BUDGET,
        verify_reset: bool = False,
        verify_plan: bool = False,
        profile: bool = False,
    ) -> None:
        self.kernel_version = kernel_version
        self.frames = frames
        #: Per-test wall-clock watchdog; None disables it.
        self.timeout_s = timeout_s
        self.layout = layout if layout is not None else default_layout()
        #: Builds (payload, version) -> Simulator; defaults to EagleEye.
        #: Swapping it retargets the whole campaign to another testbed
        #: (e.g. repro.testbed.dummy.build_dummy_system) — and forces
        #: cold boots, since the snapshot key only describes EagleEye.
        self.system_factory = system_factory if system_factory is not None else build_system
        self.warm_boot = warm_boot and system_factory is None
        self.snapshot_cache = snapshot_cache if snapshot_cache is not None else _SNAPSHOT_CACHE
        #: Top rung of the reset ladder: keep one live simulator per
        #: snapshot key and revert it in place between tests.  Demoted
        #: automatically (see _run_on_snapshot) when the graph proves
        #: unjournalable; individual tests fall back when the run
        #: crashed/hung or the journal overflows its budget.
        self.delta_reset = delta_reset and self.warm_boot
        self.journal_budget = journal_budget
        #: Run every spec both ways (delta-maintained sim and a fresh
        #: snapshot restore) and require field-for-field record identity.
        self.verify_reset = verify_reset
        #: Run every planned spec through the uncompiled path too and
        #: require field-for-field record identity (the compiled-plan
        #: analogue of ``verify_reset``).
        self.verify_plan = verify_plan
        #: Accumulate per-phase wall time into :attr:`phase_times`.
        self.profile = profile
        #: Wall seconds per execution phase (populated when profiling).
        self.phase_times = {
            "bringup": 0.0,
            "run": 0.0,
            "record": 0.0,
            "reset": 0.0,
        }
        #: The delta-maintained live simulator (and the snapshot key it
        #: was restored from), or None between fallbacks.
        self._live = None
        self._live_key: tuple | None = None
        #: Per-test bring-up modes plus fallback/verification counters.
        self.reset_stats = {
            "delta": 0,
            "restore": 0,
            "cold": 0,
            "delta_fallbacks": 0,
            "verified": 0,
            "plan_verified": 0,
        }

    # -- warm boot ---------------------------------------------------------

    def _snapshot_key(self) -> tuple:
        """Build parameters the boot-time state depends on."""
        return ("EagleEye", self.kernel_version, self.layout)

    def _make_payload(self) -> CampaignPayload:
        """Fresh unarmed placeholder (stress executors override)."""
        return CampaignPayload(layout=self.layout)

    def _build_snapshot(self) -> SimSnapshot:
        """Boot once and capture the post-settle system image."""
        sim = self.system_factory(
            fdir_payload=self._make_payload(), kernel_version=self.kernel_version
        )
        try:
            kernel = sim.boot()
            sim.run_until(kernel.major_frame_us - 1)
        except (SimulatorCrash, SimulatorHang) as exc:
            # A system that cannot settle nominally is a cold-path
            # problem; fall back so the failure is recorded per test.
            raise SnapshotError(f"system failed to settle: {exc}") from exc
        return sim.snapshot()

    def prepare(self) -> None:
        """Eagerly build (or fetch) the warm-boot snapshot.

        Worker agents call this while they set up, so the one-off boot
        cost is paid before the first test arrives.  Falls
        back to cold boots when the system is not snapshottable.
        """
        if not self.warm_boot:
            return
        try:
            self.snapshot_cache.get_or_build(self._snapshot_key(), self._build_snapshot)
        except SnapshotError:
            self.warm_boot = False

    # -- execution ---------------------------------------------------------

    def run(self, spec: TestCallSpec) -> TestRecord:
        """Execute one test case and log the outcome.

        With ``timeout_s`` set, a runaway run is interrupted by the
        wall-clock watchdog and logged as a hung (``sim_hung``) record
        instead of stalling the campaign.
        """
        failpoints.fire("executor.run")
        started = time.perf_counter()
        try:
            with _watchdog(self.timeout_s):
                _maybe_injected_hang(spec.test_id)
                return self._execute(spec, started)
        except WatchdogExpired:
            return self._watchdog_record(spec, started)

    # -- compiled-plan execution -------------------------------------------

    def compile_suite(self, specs) -> CompiledPlan:  # noqa: ANN001
        """Compile ``specs`` against this executor's configuration."""
        return CompiledPlan(specs, self.layout, self.kernel_version, self.frames)

    def run_planned(self, entry: PlanEntry) -> TestRecord:
        """Planned-path :meth:`run`: same semantics, precomputed facts."""
        failpoints.fire("executor.run")
        started = time.perf_counter()
        try:
            with _watchdog(self.timeout_s):
                _maybe_injected_hang(entry.test_id)
                record = self._execute(entry.spec, started, entry)
        except WatchdogExpired:
            return self._watchdog_record(entry.spec, started)
        if self.verify_plan:
            self._verify_against_unplanned(entry, record)
        return record

    def run_group(self, entries, emit=None, gate=None) -> list[TestRecord]:  # noqa: ANN001
        """Batched same-hypercall pass over consecutive plan ``entries``.

        The whole group runs through one armed simulator loop: snapshot
        resolved once, delta journal armed on the first restore,
        reverted in place between tests — only the per-test arm and the
        run itself are paid per spec.  Order and per-test semantics are
        identical to calling :meth:`run_planned` per entry; campaigns
        fall back to exactly that per-spec path whenever a per-test
        wall-clock watchdog or a verification audit is armed (the
        watchdog must bracket one test, and the audits interleave
        reference runs the shared loop must not absorb).

        ``emit(entry, record)`` fires as each record exists (streamed
        checkpoints keep per-test granularity); ``gate(entry)`` fires
        before each test (the worker agent's kill-injection hook).
        """
        if (
            not (self.warm_boot and self.delta_reset)
            or self.timeout_s
            or self.verify_reset
            or self.verify_plan
        ):
            records = []
            for entry in entries:
                if gate is not None:
                    gate(entry)
                record = self.run_planned(entry)
                if emit is not None:
                    emit(entry, record)
                records.append(record)
            return records
        key = self._snapshot_key()
        try:
            snapshot = self.snapshot_cache.get_or_build(key, self._build_snapshot)
        except SnapshotError:
            self.warm_boot = False
            return self.run_group(entries, emit, gate)
        records = []
        for entry in entries:
            if gate is not None:
                gate(entry)
            failpoints.fire("executor.run")
            started = time.perf_counter()
            _maybe_injected_hang(entry.test_id)
            try:
                record = self._run_on_snapshot(
                    entry.spec, started, snapshot, key, primary=True, entry=entry
                )
            except SnapshotError:
                self.warm_boot = False
                record = self._run_cold(entry.spec, started, entry)
            if emit is not None:
                emit(entry, record)
            records.append(record)
        return records

    def _execute(
        self, spec: TestCallSpec, started: float, entry: PlanEntry | None = None
    ) -> TestRecord:
        if self.warm_boot:
            try:
                return self._run_warm(spec, started, entry)
            except SnapshotError:
                self.warm_boot = False
        return self._run_cold(spec, started, entry)

    def _run_warm(
        self, spec: TestCallSpec, started: float, entry: PlanEntry | None = None
    ) -> TestRecord:
        key = self._snapshot_key()
        snapshot = self.snapshot_cache.get_or_build(key, self._build_snapshot)
        record = self._run_on_snapshot(
            spec, started, snapshot, key, primary=True, entry=entry
        )
        if self.verify_reset:
            self._verify_against_fresh(spec, record, snapshot, key)
        return record

    def _run_on_snapshot(
        self,
        spec: TestCallSpec,
        started: float,
        snapshot: SimSnapshot,
        key: tuple,
        primary: bool,
        entry: PlanEntry | None = None,
    ) -> TestRecord:
        """One warm run: reuse the delta-maintained sim or restore fresh.

        ``primary=False`` is the verification reference path: always a
        fresh restore, never kept, never counted in the bring-up stats.
        ``entry`` switches the payload and record builder onto the
        compiled-plan fast paths (same observable behaviour).
        """
        prof = self.profile
        t0 = time.perf_counter() if prof else 0.0
        reuse = primary and self.delta_reset
        sim = None
        delta_used = False
        if reuse and self._live is not None and self._live_key == key:
            sim, self._live = self._live, None
            delta_used = True
        if sim is None:
            sim = snapshot.restore()
            if reuse:
                try:
                    sim.arm_delta(self.journal_budget)
                except Unjournalable:
                    # The graph holds an object the journal cannot
                    # revert; delta reset is off for good on this
                    # executor (full restores still work).
                    self.delta_reset = False
                    self.reset_stats["delta_fallbacks"] += 1
                    reuse = False
        if primary:
            self.reset_stats["delta" if delta_used else "restore"] += 1
        keep = False
        try:
            kernel = sim.kernel
            slot = sim.image.runtime_hooks.get(FDIR_SLOT_HOOK)
            if slot is None or not isinstance(slot.payload, CampaignPayload):
                raise SnapshotError("restored image carries no campaign payload slot")
            payload = slot.payload
            if entry is not None:
                payload.arm_planned(entry)
            else:
                payload.arm(spec)
            if prof:
                t1 = time.perf_counter()
                self.phase_times["bringup"] += t1 - t0
                t0 = t1
            crashed = hung = False
            try:
                sim.run_until((self.frames + 1) * kernel.major_frame_us)
            except SimulatorCrash:
                crashed = True
            except SimulatorHang:
                hung = True
            # The run phase is over; the completed test's record and the
            # snapshot recycle must not race a late watchdog SIGALRM.
            if self.timeout_s:
                _disarm_watchdog()
            if prof:
                t1 = time.perf_counter()
                self.phase_times["run"] += t1 - t0
                t0 = t1
            record = self._build_record(
                spec, sim, kernel, payload, crashed, hung, started, entry
            )
            if prof:
                t1 = time.perf_counter()
                self.phase_times["record"] += t1 - t0
                t0 = t1
            # Crashed/hung simulators are never trusted for in-place
            # reuse: the next test pays a full restore.
            if reuse and not crashed and not hung:
                keep = self._try_delta_reset(sim)
                if prof:
                    self.phase_times["reset"] += time.perf_counter() - t0
            return record
        finally:
            # Pooled buffers must come back on every exit path — a
            # raising _build_record (or the watchdog, or an injected
            # recycle fault) must not leak the restored simulator's
            # memory.  A kept simulator owns its buffers until the next
            # test takes it over.
            try:
                failpoints.fire("executor.recycle")
            finally:
                if keep:
                    self._live = sim
                    self._live_key = key
                else:
                    sim.disarm_delta()
                    snapshot.recycle(sim)

    def _try_delta_reset(self, sim) -> bool:  # noqa: ANN001
        """Bottom of a clean run: revert in place for the next test."""
        try:
            sim.reset()
            return True
        except DeltaResetError:
            # Journal overflow or a baseline destroyed mid-run (in-test
            # cold reset): drop this simulator; the next test restores.
            self.reset_stats["delta_fallbacks"] += 1
            return False

    def _verify_against_fresh(
        self,
        spec: TestCallSpec,
        record: TestRecord,
        snapshot: SimSnapshot,
        key: tuple,
    ) -> None:
        """Re-run ``spec`` from a fresh restore and require identity."""
        reference = self._run_on_snapshot(
            spec, time.perf_counter(), snapshot, key, primary=False
        )
        primary_dict = record.to_dict()
        reference_dict = reference.to_dict()
        for fields in (primary_dict, reference_dict):
            fields.pop("wall_time_s", None)  # the only nondeterministic field
        if primary_dict != reference_dict:
            diverging = next(
                name
                for name in primary_dict
                if primary_dict[name] != reference_dict.get(name)
            )
            raise ResetVerifyError(spec.test_id, diverging)
        self.reset_stats["verified"] += 1

    def _verify_against_unplanned(self, entry: PlanEntry, record: TestRecord) -> None:
        """Re-run ``entry``'s spec via the uncompiled path; require identity."""
        started = time.perf_counter()
        if self.warm_boot:
            key = self._snapshot_key()
            snapshot = self.snapshot_cache.get_or_build(key, self._build_snapshot)
            reference = self._run_on_snapshot(
                entry.spec, started, snapshot, key, primary=False
            )
        else:
            reference = self._run_cold(entry.spec, started)
            self.reset_stats["cold"] -= 1  # the audit is not a bring-up
        planned_dict = record.to_dict()
        reference_dict = reference.to_dict()
        for fields in (planned_dict, reference_dict):
            fields.pop("wall_time_s", None)  # the only nondeterministic field
        if planned_dict != reference_dict:
            diverging = next(
                name
                for name in planned_dict
                if planned_dict[name] != reference_dict.get(name)
            )
            raise PlanVerifyError(entry.test_id, diverging)
        self.reset_stats["plan_verified"] += 1

    def _run_cold(
        self, spec: TestCallSpec, started: float, entry: PlanEntry | None = None
    ) -> TestRecord:
        self.reset_stats["cold"] += 1
        prof = self.profile
        t0 = time.perf_counter() if prof else 0.0
        payload = self._make_payload()
        sim = self.system_factory(
            fdir_payload=payload, kernel_version=self.kernel_version
        )
        kernel = sim.boot()
        crashed = hung = False
        try:
            sim.run_until(kernel.major_frame_us - 1)  # settle frame
            if prof:
                t1 = time.perf_counter()
                self.phase_times["bringup"] += t1 - t0
                t0 = t1
            if entry is not None:
                payload.arm_planned(entry)
            else:
                payload.arm(spec)
            sim.run_until((self.frames + 1) * kernel.major_frame_us)
        except SimulatorCrash:
            crashed = True
        except SimulatorHang:
            hung = True
        if self.timeout_s:
            _disarm_watchdog()
        if prof:
            t1 = time.perf_counter()
            self.phase_times["run"] += t1 - t0
            t0 = t1
        record = self._build_record(
            spec, sim, kernel, payload, crashed, hung, started, entry
        )
        if prof:
            self.phase_times["record"] += time.perf_counter() - t0
        return record

    def _watchdog_record(self, spec: TestCallSpec, started: float) -> TestRecord:
        """A sim-hung-style record for a run the watchdog had to kill."""
        return TestRecord(
            test_id=spec.test_id,
            function=spec.function,
            category=spec.category,
            arg_labels=spec.arg_labels(),
            sim_hung=True,
            watchdog_expired=True,
            kernel_version=self.kernel_version,
            frames=self.frames,
            wall_time_s=time.perf_counter() - started,
        )

    def _build_record(
        self,
        spec: TestCallSpec,
        sim,  # noqa: ANN001
        kernel,  # noqa: ANN001
        payload: CampaignPayload,
        crashed: bool,
        hung: bool,
        started: float,
        entry: PlanEntry | None = None,
    ) -> TestRecord:
        if entry is not None:
            # The static half of the record was compiled with the plan.
            return TestRecord(
                invocations=payload.invocations,
                sim_crashed=crashed,
                sim_hung=hung,
                kernel_halted=kernel.is_halted(),
                halt_reason=kernel.halt_reason or "",
                resets=[(r.kind, r.source) for r in kernel.reset_log],
                hm_events=[
                    (rec.event.name, rec.partition_id, rec.detail)
                    for rec in kernel.hm.records
                ],
                overruns=len(kernel.sched.overruns),
                test_partition_state=(
                    kernel.partitions[0].state.value if 0 in kernel.partitions else ""
                ),
                console_tail=sim.machine.uart.lines()[-CONSOLE_TAIL:],
                kernel_version=self.kernel_version,
                frames=self.frames,
                wall_time_s=time.perf_counter() - started,
                **entry.record_base,
            )
        resolved = (
            payload.resolved
            if payload.resolved is not None
            else spec.resolve_args(self.layout)
        )
        return TestRecord(
            test_id=spec.test_id,
            function=spec.function,
            category=spec.category,
            arg_labels=spec.arg_labels(),
            resolved_args=resolved,
            invocations=payload.invocations,
            sim_crashed=crashed,
            sim_hung=hung,
            kernel_halted=kernel.is_halted(),
            halt_reason=kernel.halt_reason or "",
            resets=[(r.kind, r.source) for r in kernel.reset_log],
            hm_events=[
                (rec.event.name, rec.partition_id, rec.detail)
                for rec in kernel.hm.records
            ],
            overruns=len(kernel.sched.overruns),
            test_partition_state=(
                kernel.partitions[0].state.value if 0 in kernel.partitions else ""
            ),
            console_tail=sim.machine.uart.lines()[-CONSOLE_TAIL:],
            kernel_version=self.kernel_version,
            frames=self.frames,
            wall_time_s=time.perf_counter() - started,
        )


def worker_killed_record(
    spec: TestCallSpec,
    kernel_version: str,
    frames: int,
    attempts: int = 1,
    arbitrated: bool = False,
    host_context: dict | None = None,
) -> TestRecord:
    """Parent-side record for a spec whose run killed its worker.

    The worker is dead, so nothing was observed beyond the kill itself;
    the supervisor logs the spec as a first-class ``worker_killed``
    outcome (the process-level analogue of the paper's simulator-crash
    failure mode) and the campaign carries on.  ``attempts`` /
    ``arbitrated`` carry the verdict-arbitration provenance and
    ``host_context`` the worker and lease shape the kills were observed
    under, so triage can separate kernel-caused deaths from host-load
    artefacts.
    """
    return TestRecord(
        test_id=spec.test_id,
        function=spec.function,
        category=spec.category,
        arg_labels=spec.arg_labels(),
        worker_killed=True,
        kernel_version=kernel_version,
        frames=frames,
        attempts=attempts,
        arbitrated=arbitrated,
        host_context=host_context,
    )
