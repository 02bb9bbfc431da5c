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

Every verdict the executor returns comes from what the simulation
did: a hung system is the simulator's deterministic event budget
(``sim_hung``), never a wall clock.  Process isolation (worker processes
separate from the campaign, faithful to the paper's one-TSIM-per-test
shell scripts) is provided by the fabric's worker agents
(:mod:`repro.fabric.worker`): each worker process holds one executor,
builds its snapshot once and reuses it for every lease of spec-table
indices it is handed.  The campaign's wall-clock deadline
(``timeout_s``) lives there too: a test that overruns it ends its
worker process, and the coordinator logs the spec with
:func:`worker_killed_record`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.fault import failpoints
from repro.fault.mutant import TestCallSpec, TestPartitionLayout, default_layout
from repro.fault.plan import (
    DEFAULT_FRAMES,
    DEFAULT_JOURNAL_BUDGET,
    CompiledPlan,
    PlanEntry,
)
from repro.fault.resilience import VERDICT_FLAGS
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
        delta_reset: bool = True,
        journal_budget: int | None = DEFAULT_JOURNAL_BUDGET,
        verify_reset: bool = False,
        verify_plan: bool = False,
        profile: bool = False,
    ) -> None:
        self.kernel_version = kernel_version
        self.frames = frames
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
        """Execute one test case and log the outcome."""
        failpoints.fire("executor.run")
        return self._execute(spec, time.perf_counter())

    # -- compiled-plan execution -------------------------------------------

    def compile_suite(self, specs) -> CompiledPlan:  # noqa: ANN001
        """Compile ``specs`` against this executor's configuration."""
        return CompiledPlan(specs, self.layout, self.kernel_version, self.frames)

    def run_planned(self, entry: PlanEntry) -> TestRecord:
        """Planned-path :meth:`run`: same semantics, precomputed facts."""
        failpoints.fire("executor.run")
        record = self._execute(entry.spec, time.perf_counter(), entry)
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
        fall back to exactly that per-spec path whenever the delta rung
        is off or a verification audit is armed (the audits interleave
        reference runs the shared loop must not absorb).

        ``emit(entry, record)`` fires as each record exists (streamed
        checkpoints keep per-test granularity); ``gate(entry)`` fires
        before each test (the worker agent's deadline mark and fault
        injection hooks).
        """
        if (
            not (self.warm_boot and self.delta_reset)
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
            # raising _build_record (or an injected recycle fault) must
            # not leak the restored simulator's memory.  A kept
            # simulator owns its buffers until the next test takes it
            # over.
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
    verdict: str = "worker_killed",
) -> TestRecord:
    """Parent-side record for a spec whose run killed its worker.

    The worker is dead, so nothing was observed beyond the kill itself;
    the supervisor logs the spec as a first-class ``worker_killed``
    outcome (the process-level analogue of the paper's simulator-crash
    failure mode) and the campaign carries on.  ``verdict`` names how
    the worker died: ``"watchdog_expired"`` is a test that overran the
    campaign's wall-clock deadline, so its worker ended itself, and the
    record is a hung run (``sim_hung`` and ``watchdog_expired``).
    ``attempts`` / ``arbitrated`` carry the verdict-arbitration
    provenance and ``host_context`` the worker and lease shape the
    deaths were observed under, so triage can separate kernel-caused
    deaths from host-load artefacts.
    """
    return TestRecord(
        test_id=spec.test_id,
        function=spec.function,
        category=spec.category,
        arg_labels=spec.arg_labels(),
        **VERDICT_FLAGS[verdict],
        kernel_version=kernel_version,
        frames=frames,
        attempts=attempts,
        arbitrated=arbitrated,
        host_context=host_context,
    )
