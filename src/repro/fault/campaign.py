"""Campaign orchestration: the whole methodology end to end (Fig. 1).

A :class:`Campaign` binds the preparation-phase artefacts (API model,
dictionaries, strategy, oracle) and runs the generation + execution +
analysis pipeline over the in-scope hypercalls.  Execution is serial by
default; pass ``processes`` to fan the independent test runs across a
process pool (the work is embarrassingly parallel — the paper ran its
campaign from shell scripts for the same reason).  The pool dispatches
in *shards*: specs travel as compact indices into the suites both sides
generate deterministically (see :mod:`repro.fault.wire`), one future
covers a whole batch, and workers stream records back per test on a
results relay — so the per-test cost is the test, not the bookkeeping.

Execution is also *durable*: ``log_path`` checkpoints every record to a
JSONL stream the moment it arrives, the parallel runner supervises its
workers (a test that kills its worker is logged as a ``worker_killed``
record and the pool is respawned — robustness tests kill their own
harness, as the paper's ``XM_set_timer(1,1,1)`` did to TSIM), and
``timeout_s`` arms a per-test wall-clock watchdog.  An interrupted
campaign resumes losslessly from its own partial stream via
``resume_from``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from repro.fault import failpoints, wire
from repro.fault.apimodel import ApiFunction, ApiModel, api_model_from_table
from repro.fault.classify import Classification, Severity, classify
from repro.fault.combinator import CartesianStrategy, GenerationStrategy
from repro.fault.dictionaries import DictionarySet
from repro.fault.issues import Issue, cluster_issues
from repro.fault.mutant import TestCallSpec, default_layout
from repro.fault.oracle import Expectation, OracleContext, ReferenceOracle
from repro.fault.plan import (
    DEFAULT_FRAMES,
    DEFAULT_JOURNAL_BUDGET,
    CompiledPlan,
    group_consecutive,
)
from repro.fault.resilience import (
    Quarantine,
    RespawnBreaker,
    RetryPolicy,
    VerdictArbiter,
    quarantined_record,
)
from repro.fault.testlog import CampaignLog, TestRecord
from repro.xm.vulns import VULNERABLE_VERSION

if TYPE_CHECKING:  # the executor loads the simulator: run paths import it
    from repro.fault.executor import TestExecutor


class ResumeMismatch(ValueError):
    """A resumed log was recorded under another campaign configuration."""


@dataclass
class HypercallSuite:
    """All test cases for one hypercall."""

    function: ApiFunction
    specs: list[TestCallSpec]

    @property
    def size(self) -> int:
        """Number of test cases in the suite."""
        return len(self.specs)


@dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    log: CampaignLog
    classified: list[tuple[TestRecord, Expectation, Classification]]
    issues: list[Issue]
    kernel_version: str
    model: ApiModel
    strategy_name: str
    #: Supervision counters from the run that produced this result
    #: (pool/probe respawns, arbitration retries, quarantine skips,
    #: serial degradation, reset modes).  Offline analysis rehydrates
    #: them from the log's stats trailer; None only for logs that never
    #: carried one (pre-trailer logs, hand-built record lists).
    execution_stats: dict | None = None

    @property
    def total_tests(self) -> int:
        """Executed test cases."""
        return len(self.log)

    def failures(self) -> list[tuple[TestRecord, Expectation, Classification]]:
        """Classified entries that failed."""
        return [item for item in self.classified if item[2].is_failure]

    def severity_counts(self) -> dict[Severity, int]:
        """CRASH histogram over all tests."""
        counts = {severity: 0 for severity in Severity}
        for _record, _expectation, classification in self.classified:
            counts[classification.severity] += 1
        return counts

    def issues_in(self, category: str) -> list[Issue]:
        """Issues raised in one Table III category."""
        return [issue for issue in self.issues if issue.category == category]

    def issue_count(self) -> int:
        """Number of clustered issues (the paper's '9')."""
        return len(self.issues)


ProgressHook = Callable[[int, int, TestRecord], None]
#: Per-record checkpoint callback (the streaming log's append).
RecordSink = Callable[[TestRecord], None]


def _auto_shard_size(total: int, processes: int) -> int:
    """Default shard size for ``total`` specs across ``processes`` workers.

    Big enough to amortise per-task dispatch (at least 16 specs, ~8
    shards per worker on large campaigns so stragglers balance), but
    never so big that a worker sits idle while another holds more than
    its share of a small campaign.
    """
    if total <= 0:
        return 1
    amortised = max(16, total // (processes * 8))
    per_worker = -(-total // processes)  # ceil
    return max(1, min(amortised, per_worker))


def _merge_reset_modes(stats: dict, counts: dict) -> None:
    """Accumulate executor reset-ladder counters into ``execution_stats``."""
    modes = stats.setdefault("reset_modes", {})
    for name, count in counts.items():
        if count:
            modes[name] = modes.get(name, 0) + count


def _merge_phase_times(stats: dict, phases: dict) -> None:
    """Accumulate a ``--profile`` per-phase wall-time breakdown."""
    times = stats.setdefault("phase_times", {})
    for name, seconds in phases.items():
        if seconds:
            times[name] = times.get(name, 0.0) + seconds


def _merge_execution_stats(stats: dict, prior: dict) -> None:
    """Fold a previous (interrupted) run's stats into this run's.

    Counters add, flags OR, the reset-mode histogram merges per mode
    (and the profile's phase timings per phase) — so an
    interrupted+resumed campaign reports the same totals an
    uninterrupted run of the same suite would have.
    """
    for key, value in prior.items():
        if key == "reset_modes":
            _merge_reset_modes(stats, value or {})
        elif key == "phase_times":
            _merge_phase_times(stats, value or {})
        elif isinstance(value, bool):
            stats[key] = bool(stats.get(key)) or value
        elif isinstance(value, (int, float)):
            stats[key] = stats.get(key, 0) + value
        else:
            stats.setdefault(key, value)


#: Process-level :class:`CompiledPlan` memo.  Compilation is pure in
#: (specs, layout, kernel version, frames); keys carry the identity of
#: the shared spec lists (themselves memoized in
#: :func:`repro.fault.wire.generate_suites`), and each entry pins those
#: lists alive so a recycled id() can never alias a different suite.
_PLAN_MEMO: dict[tuple, tuple] = {}
_PLAN_MEMO_MAX = 8


# Default-configuration singletons.  The model, dictionaries and
# strategy are treated as immutable once built, so every
# default-configured campaign shares one instance of each — which is
# what lets the identity-keyed suite and plan memos above actually hit
# across campaign objects (fresh defaults per instance would never
# share a key).


@lru_cache(maxsize=1)
def _default_model() -> ApiModel:
    return api_model_from_table()


@lru_cache(maxsize=1)
def _default_dictionaries() -> DictionarySet:
    return DictionarySet()


@lru_cache(maxsize=1)
def _default_strategy() -> CartesianStrategy:
    return CartesianStrategy()


@dataclass
class Campaign:
    """One configured robustness-testing campaign."""

    model: ApiModel = field(default_factory=_default_model)
    dictionaries: DictionarySet = field(default_factory=_default_dictionaries)
    strategy: GenerationStrategy = field(default_factory=_default_strategy)
    kernel_version: str = VULNERABLE_VERSION
    frames: int = DEFAULT_FRAMES
    functions: tuple[str, ...] | None = None
    oracle_context: OracleContext = field(default_factory=OracleContext)
    #: Testbed factory for the serial executor; None = EagleEye.  The
    #: process-parallel path always uses the default testbed (factories
    #: do not cross process boundaries).
    system_factory: object | None = None
    #: Execute via warm-boot snapshots (see :mod:`repro.fault.executor`);
    #: forced off when ``system_factory`` is custom.
    warm_boot: bool = True
    #: Top rung of the executor's reset ladder: keep a live simulator
    #: per worker and revert it in place between tests (falls back to
    #: full snapshot restores on journal overflow, crash/hang, or an
    #: unjournalable object graph).  Only meaningful under ``warm_boot``.
    delta_reset: bool = True
    #: Board-memory bytes one delta reset may revert; None = unlimited.
    journal_budget: int | None = DEFAULT_JOURNAL_BUDGET
    #: Run every spec both ways (delta reset and full restore) and
    #: require field-for-field record identity; raises on divergence.
    verify_reset: bool = False
    #: Compile the suites into a :class:`~repro.fault.plan.CompiledPlan`
    #: once per campaign (resolved arguments, pre-converted hypercall
    #: arguments, dispatch prechecks, record skeletons) instead of
    #: re-deriving all of it per test.
    compiled_plan: bool = True
    #: Execute consecutive same-hypercall specs as one batched pass
    #: through a single armed simulator loop (snapshot resolved and
    #: journal armed once per group).  Only meaningful under
    #: ``compiled_plan``; the executor falls back to per-spec execution
    #: whenever a watchdog, audit, or reset-ladder degradation needs
    #: per-test bracketing.
    batch_hypercalls: bool = True
    #: Run every planned spec through the uncompiled path too and
    #: require field-for-field record identity; raises on divergence.
    verify_plan: bool = False
    #: Collect a per-phase wall-time breakdown (bringup/run/record/
    #: reset) into ``execution_stats["phase_times"]``.
    profile: bool = False
    #: Suites are deterministic for a fixed configuration, so they are
    #: generated once and reused by run()/analyse()/total_tests().
    _suites: list[HypercallSuite] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The compiled execution plan over the suites, likewise cached.
    _plan: CompiledPlan | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def paper_campaign(cls, **overrides: object) -> "Campaign":
        """The XtratuM case-study configuration (Table III scope)."""
        return cls(**overrides)  # type: ignore[arg-type]

    # -- generation ---------------------------------------------------------

    def scope(self) -> list[ApiFunction]:
        """The in-scope (tested) hypercalls."""
        return wire.scoped_functions(self.model, self.functions)

    def suites(self) -> list[HypercallSuite]:
        """Generate every suite (Fig. 4 steps 1-3), cached.

        Generation is pure in the campaign configuration, so the suites
        are built once; run() and analyse() no longer each pay a full
        matrix expansion over the same scope.  The expansion itself
        lives in :func:`repro.fault.wire.generate_suites` — the same
        helper pool workers use to regenerate their spec tables, so
        wire indices always address the specs this side generated.
        """
        if self._suites is None:
            self._suites = [
                HypercallSuite(function=function, specs=specs)
                for function, specs in wire.generate_suites(
                    self.model, self.dictionaries, self.strategy, self.functions
                )
            ]
        return self._suites

    def iter_specs(self) -> Iterator[TestCallSpec]:
        """All test cases across suites."""
        for suite in self.suites():
            yield from suite.specs

    def plan(self) -> CompiledPlan:
        """The compiled execution plan over all suites, cached.

        Compilation is pure in the campaign configuration (specs, test
        partition layout, kernel version), so — like :meth:`suites` —
        it runs once and is shared by the serial runner and
        :meth:`analyse`.  Pool workers compile their own copy from the
        wire recipe in their initializer (plans do not cross process
        boundaries; the spec tables they compile from are regenerated
        deterministically on both sides).
        """
        if self._plan is None:
            suites = self.suites()
            key = (
                tuple(id(suite.specs) for suite in suites),
                self.kernel_version,
                self.frames,
            )
            hit = _PLAN_MEMO.get(key)
            if hit is None:
                compiled = CompiledPlan(
                    list(self.iter_specs()),
                    default_layout(),
                    self.kernel_version,
                    self.frames,
                )
                # The pinned spec lists keep the id() key unambiguous.
                hit = (tuple(suite.specs for suite in suites), compiled)
                _PLAN_MEMO[key] = hit
                while len(_PLAN_MEMO) > _PLAN_MEMO_MAX:
                    _PLAN_MEMO.pop(next(iter(_PLAN_MEMO)))
            self._plan = hit[1]
        return self._plan

    def total_tests(self) -> int:
        """Campaign size before execution."""
        return sum(suite.size for suite in self.suites())

    # -- execution ----------------------------------------------------------

    def run(
        self,
        processes: int | None = None,
        progress: ProgressHook | None = None,
        resume_from: CampaignLog | None = None,
        log_path: str | Path | None = None,
        timeout_s: float | None = None,
        shard_size: int | None = None,
        retry_policy: RetryPolicy | None = None,
        quarantine_path: str | Path | None = None,
        log_fsync: bool = False,
    ) -> CampaignResult:
        """Execute the campaign and analyse the logs.

        ``processes=None`` runs serially in-process; an integer fans out
        across a supervised worker pool with process isolation.  The
        pool dispatches *shards* — batches of specs encoded as indices
        into the campaign's own suites — rather than one task per spec,
        so per-test bookkeeping is amortised; ``shard_size`` overrides
        the auto-sized batches (``shard_size=1`` degenerates to per-spec
        dispatch and produces field-for-field identical records).
        ``resume_from`` skips tests already present in an earlier log
        (an interrupted campaign picks up where it stopped, like the
        paper's restartable shell scripts); the analysed result covers
        the union and is ordered — and therefore classified and
        clustered — exactly as an uninterrupted run would be.  Resumed
        records are validated against this campaign's configuration:
        a log recorded on another kernel version or frame count, or a
        record whose arguments differ from this suite's spec at its id,
        raises ``ValueError`` rather than being classified against the
        wrong oracle or the wrong spec.

        ``log_path`` streams every record to a JSONL checkpoint file
        the moment it arrives (append mode, flushed per record), so a
        crash or Ctrl-C never loses completed work; pointing it at a
        partial log appends only the missing records.  ``log_fsync``
        follows every checkpoint flush with ``os.fsync``, extending
        durability from process crashes to host power loss.
        ``timeout_s`` arms a per-test wall-clock watchdog.

        ``retry_policy`` controls verdict arbitration (see
        :class:`~repro.fault.resilience.RetryPolicy`): by default a
        suspect ``worker_killed`` / ``watchdog_expired`` outcome is
        re-run once and the verdict needs two agreeing observations;
        ``RetryPolicy(max_attempts=1)`` restores first-sight verdicts.
        ``quarantine_path`` names a persistent quarantine file: specs
        with a confirmed killer verdict are added to it, and specs
        already in it are skipped with a ``quarantined`` record rather
        than re-fed to a fresh pool.
        """
        specs = list(self.iter_specs())
        remaining = specs
        done: list[TestRecord] = []
        if resume_from is not None:
            done, remaining = self._split_resume(resume_from, specs)
        if processes is not None and self.system_factory is not None:
            raise ValueError(
                "process-parallel execution supports only the default testbed"
            )
        policy = retry_policy if retry_policy is not None else RetryPolicy()
        stats = {
            "pool_respawns": 0,
            "probe_respawns": 0,
            "retries": 0,
            "degraded_serial": False,
            "quarantined_skips": 0,
            # Per-test bring-up modes across all executors/workers (the
            # reset ladder: delta reset > snapshot restore > cold boot).
            "reset_modes": {},
        }
        if resume_from is not None and resume_from.execution_stats:
            # The interrupted run's supervision counters rode along on
            # its log trailer; fold them in so the resumed campaign
            # reports run totals, not just this process's share.
            _merge_execution_stats(stats, resume_from.execution_stats)
        quarantine: Quarantine | None = None
        if quarantine_path is not None:
            quarantine = Quarantine.load(quarantine_path)
            skipped = [s for s in remaining if s.test_id in quarantine]
            if skipped:
                # Known killers are skipped-with-record: the verdict
                # stays visible in the analysis without feeding the
                # spec to (and losing) another worker.
                remaining = [s for s in remaining if s.test_id not in quarantine]
                done = [
                    *done,
                    *(
                        quarantined_record(
                            spec,
                            self.kernel_version,
                            self.frames,
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
        try:
            if stream is not None:
                # Checkpoint resumed records too (no-ops when resuming
                # into the same file), so the stream alone is always a
                # complete restart point.
                for record in done:
                    stream.append(record)
            sink = stream.append if stream is not None else None
            if processes is None:
                records = self._run_serial(
                    remaining, progress, sink, timeout_s, policy, stats
                )
            else:
                records = self._run_parallel(
                    remaining,
                    processes,
                    progress,
                    sink,
                    timeout_s,
                    shard_size,
                    policy,
                    quarantine,
                    stats,
                )
        finally:
            if stream is not None:
                # Trailer the supervision stats onto the stream — even
                # on interrupt — so a log analysed offline reports what
                # the live run did (reset modes, respawns, arbitration)
                # and a resumed campaign can fold this leg's counters
                # into its own.
                try:
                    stream.append_stats(stats)
                finally:
                    stream.close()
            # Quarantine additions survive even an aborted campaign —
            # a confirmed killer must not be forgotten by the next run.
            if quarantine is not None and quarantine.dirty:
                quarantine.save()
        # Merge in global spec order: resumed, parallel and interrupted
        # campaigns must classify and cluster exactly like a serial
        # uninterrupted run.
        order = {spec.test_id: index for index, spec in enumerate(specs)}
        combined = [*done, *records]
        combined.sort(key=lambda record: order[record.test_id])
        log = CampaignLog(combined)
        log.execution_stats = stats
        result = self.analyse(log)
        result.execution_stats = stats
        return result

    def _split_resume(
        self, resume_from: CampaignLog, specs: list[TestCallSpec]
    ) -> tuple[list[TestRecord], list[TestCallSpec]]:
        """``(records reused from resume_from, specs still to run)``.

        Rejects, with :class:`ResumeMismatch` (a ``ValueError``), a log
        recorded under a different configuration: another kernel version
        or frame count, or a record whose arguments differ from this
        suite's spec at its id.
        Test ids are positional (``function#index``), so a log written
        by another strategy or dictionary set names different argument
        tuples under the same ids.
        """
        for record in resume_from:
            if record.kernel_version and record.kernel_version != self.kernel_version:
                raise ResumeMismatch(
                    f"cannot resume: record {record.test_id} was executed on "
                    f"kernel {record.kernel_version}, this campaign targets "
                    f"{self.kernel_version}"
                )
            if record.frames and record.frames != self.frames:
                raise ResumeMismatch(
                    f"cannot resume: record {record.test_id} ran over "
                    f"{record.frames} major frames, this campaign runs "
                    f"{self.frames}"
                )
        have = {record.test_id: record for record in resume_from}
        done: list[TestRecord] = []
        remaining: list[TestCallSpec] = []
        for spec in specs:
            record = have.get(spec.test_id)
            if record is None:
                remaining.append(spec)
                continue
            labels = spec.arg_labels()
            if tuple(record.arg_labels) != labels:
                raise ResumeMismatch(
                    f"cannot resume: record {spec.test_id} ran with arguments "
                    f"{tuple(record.arg_labels)}, this campaign's spec for "
                    f"that id has {labels}"
                )
            done.append(record)
        return done, remaining

    def _run_serial(
        self,
        specs: list[TestCallSpec],
        progress: ProgressHook | None,
        sink: RecordSink | None = None,
        timeout_s: float | None = None,
        policy: RetryPolicy | None = None,
        stats: dict | None = None,
    ) -> list[TestRecord]:
        from repro.fault.executor import TestExecutor

        executor = TestExecutor(
            kernel_version=self.kernel_version,
            frames=self.frames,
            system_factory=self.system_factory,
            warm_boot=self.warm_boot,
            timeout_s=timeout_s,
            delta_reset=self.delta_reset,
            journal_budget=self.journal_budget,
            verify_reset=self.verify_reset,
            verify_plan=self.verify_plan,
            profile=self.profile,
        )
        arbiter = VerdictArbiter(policy) if policy is not None else None
        records: list[TestRecord] = []
        total = len(specs)

        def finish(record: TestRecord) -> None:
            records.append(record)
            if sink is not None:
                sink(record)
            if progress is not None:
                progress(len(records), total, record)

        try:
            if self.compiled_plan:
                plan = self.plan()
                entries = [plan.by_id[spec.test_id] for spec in specs]

                def emit(entry, record: TestRecord) -> None:  # noqa: ANN001
                    finish(
                        self._arbitrated_serial_run(
                            executor, entry.spec, policy, arbiter, record
                        )
                    )

                if self.batch_hypercalls:
                    for group in group_consecutive(entries):
                        executor.run_group(group, emit=emit)
                else:
                    for entry in entries:
                        emit(entry, executor.run_planned(entry))
            else:
                for spec in specs:
                    finish(
                        self._arbitrated_serial_run(executor, spec, policy, arbiter)
                    )
        finally:
            if stats is not None:
                _merge_reset_modes(stats, executor.reset_stats)
                if self.profile:
                    _merge_phase_times(stats, executor.phase_times)
        return records

    def _arbitrated_serial_run(
        self,
        executor: TestExecutor,
        spec: TestCallSpec,
        policy: RetryPolicy | None,
        arbiter: VerdictArbiter | None,
        record: TestRecord | None = None,
    ) -> TestRecord:
        """One serial run, re-trying watchdog verdicts up to the quorum.

        The only process-level verdict the in-process runner can see is
        ``watchdog_expired`` (nothing kills a worker — there is none);
        a suspect expiry is re-run until the quorum agrees, the attempt
        budget runs out, or a re-run completes and wins outright.  A
        planned/batched record enters arbitration via ``record`` —
        re-runs always take the unplanned per-spec path, so a suspect
        verdict is re-checked outside the machinery under suspicion.
        """
        if record is None:
            record = executor.run(spec)
        if arbiter is not None and policy is not None and not policy.single_shot:
            while record.watchdog_expired and not arbiter.observe(
                spec.test_id, "watchdog_expired"
            ):
                policy.backoff(len(arbiter.observations(spec.test_id)))
                record = executor.run(spec)
            arbiter.annotate(record)
        if record.watchdog_expired:
            record.host_context = {
                "processes": 1,
                "shard_size": 1,
                "attempt": record.attempts,
            }
        return record

    def _wire_recipe(self) -> wire.SuiteRecipe:
        """The recipe pool workers regenerate their spec tables from."""
        return wire.SuiteRecipe(
            model=self.model,
            dictionaries=self.dictionaries,
            strategy=self.strategy,
            functions=self.functions,
            total=self.total_tests(),
        )

    def _run_parallel(
        self,
        specs: list[TestCallSpec],
        processes: int,
        progress: ProgressHook | None,
        sink: RecordSink | None = None,
        timeout_s: float | None = None,
        shard_size: int | None = None,
        policy: RetryPolicy | None = None,
        quarantine: Quarantine | None = None,
        stats: dict | None = None,
    ) -> list[TestRecord]:
        """Supervised sharded execution that survives worker deaths.

        Specs are partitioned into shards and each shard is one pool
        task: a persistent worker (warm-boot snapshot built once, in
        the initializer) runs the whole shard and streams records back
        on the results relay in batches — delivery, checkpointing via
        ``sink`` and ``progress`` reporting stay at test granularity on
        the parent side, while the per-test relay put (a pickle plus a
        pipe syscall each) is amortised over the batch.  When a test
        kills its worker the pool breaks; instead of forfeiting the
        run, the supervisor takes the unfinished remainders of every
        announced shard as suspects (a dead worker's unflushed batch
        tail makes some of them innocents that actually finished) and
        re-runs them on a single-worker probe pool with single-spec
        shards — which flush per record, so innocents simply complete
        there, and when the probe pool breaks the killer is exactly the
        suspect without a record.

        Process-level verdicts are *arbitrated* under ``policy``: a
        suspect kill or watchdog expiry is re-run and the verdict needs
        a quorum of observations (a re-run that completes normally wins
        immediately), with the consumed attempts recorded on the
        record.  Confirmed killers are added to ``quarantine``; a
        :class:`~repro.fault.resilience.RespawnBreaker` watches the
        pool respawns and degrades the rest of the campaign to the
        serial in-process runner when respawned pools keep dying
        without progress.  User ``progress``/``sink`` callbacks are
        sandboxed — one warning per hook, a raising callback never
        aborts the round (keyboard interrupts still do).
        """
        from repro.fault.executor import worker_killed_record

        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        if shard_size is not None and shard_size < 1:
            raise ValueError(f"shard_size must be >= 1, got {shard_size}")
        if policy is None:
            policy = RetryPolicy(max_attempts=1, quorum=1)
        if stats is None:
            stats = {}
        stats.setdefault("pool_respawns", 0)
        stats.setdefault("probe_respawns", 0)
        stats.setdefault("retries", 0)
        stats.setdefault("degraded_serial", False)
        arbiter = VerdictArbiter(policy)
        breaker = RespawnBreaker()
        total = len(specs)
        records: list[TestRecord] = []
        warned: set[str] = set()
        round_ctx = {"shard_size": 0}

        def guarded(kind: str, hook, *args) -> None:  # noqa: ANN001
            # A user callback must not take the campaign down with it:
            # a raising progress bar (or sink) mid-round would strand
            # the pump/watcher threads and forfeit the run.  Catch,
            # warn once per hook, keep going.  BaseException (e.g.
            # KeyboardInterrupt) still aborts — interrupting from a
            # progress hook is the documented way to stop a campaign —
            # and injected ChaosError stays fatal by design.
            try:
                hook(*args)
            except failpoints.ChaosError:
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

        def host_context(attempt: int) -> dict:
            return {
                "processes": processes,
                "shard_size": round_ctx["shard_size"],
                "attempt": attempt,
            }

        def deliver(record: TestRecord) -> bool:
            # Relayed records pass through verdict arbitration before
            # they become campaign output: a suspect watchdog expiry is
            # withheld (False) and its spec re-run until the quorum
            # decides; everything else is emitted immediately.
            if record.watchdog_expired and not policy.single_shot:
                if not arbiter.observe(record.test_id, "watchdog_expired"):
                    stats["retries"] += 1
                    return False
            arbiter.annotate(record)
            if record.watchdog_expired:
                record.host_context = host_context(record.attempts)
            emit(record)
            return True

        remaining = list(specs)
        respawned = False
        while remaining:
            if respawned:
                if breaker.tripped:
                    # Respawned pools keep dying without progress:
                    # stop thrashing and finish in-process, where a
                    # worker kill cannot happen at all.
                    stats["degraded_serial"] = True
                    warnings.warn(
                        f"pool respawn budget exhausted after "
                        f"{stats['pool_respawns']} respawns; degrading to "
                        f"serial execution for {len(remaining)} remaining "
                        "specs",
                        stacklevel=2,
                    )
                    self._run_serial(
                        remaining, None, emit, timeout_s, policy, stats
                    )
                    remaining = []
                    break
                failpoints.fire("campaign.respawn")
                stats["pool_respawns"] += 1
                breaker.note_spawn()
            marker = (len(records), arbiter.total_observations)
            size = shard_size or _auto_shard_size(len(remaining), processes)
            round_ctx["shard_size"] = size
            arrived, retry_ids, suspect_shards, broke = self._pool_round(
                remaining, processes, size, timeout_s, deliver, stats
            )
            resolved = arrived - retry_ids
            if broke:
                if not respawned and not arrived and not suspect_shards:
                    raise RuntimeError(
                        "worker pool died before any test started "
                        "(initializer failure?)"
                    )
                # One probe pool per kill, reused across the whole
                # suspect list — not one pool (and one warm boot) per
                # suspect.  Records that arrived but were withheld for
                # retry still clear their spec of killer suspicion.
                suspects = [spec for shard in suspect_shards for spec in shard]
                ever_arrived = set(arrived)
                while suspects:
                    failpoints.fire("campaign.probe_loop")
                    stats["probe_respawns"] += 1
                    # Single-spec shards: the relay flushes its record
                    # batch at every shard end, so probing one spec per
                    # shard restores exact per-record arrival — the
                    # killer is precisely the suspect without a record,
                    # with no innocents lost in an unflushed batch tail.
                    probe_arrived, probe_retry, _shards, probe_broke = (
                        self._pool_round(
                            suspects, 1, 1, timeout_s, deliver, stats
                        )
                    )
                    ever_arrived |= probe_arrived
                    resolved |= probe_arrived - probe_retry
                    suspects = [
                        s for s in suspects if s.test_id not in resolved
                    ]
                    if not probe_broke:
                        if not probe_retry:
                            break
                        continue
                    killer = next(
                        (s for s in suspects if s.test_id not in ever_arrived),
                        None,
                    )
                    if killer is None:
                        break
                    terminal = policy.single_shot or arbiter.observe(
                        killer.test_id, "worker_killed"
                    )
                    observations = arbiter.observations(killer.test_id) or [
                        "worker_killed"
                    ]
                    if not terminal:
                        stats["retries"] += 1
                        policy.backoff(len(observations))
                        continue  # killer stays first in suspects: re-probe
                    emit(
                        worker_killed_record(
                            killer,
                            self.kernel_version,
                            self.frames,
                            attempts=len(observations),
                            arbitrated=len(observations) > 1,
                            host_context=host_context(len(observations)),
                        )
                    )
                    if quarantine is not None:
                        quarantine.add(
                            killer.test_id, killer.function, observations
                        )
                    resolved.add(killer.test_id)
                    suspects = [
                        s for s in suspects if s.test_id not in resolved
                    ]
            remaining = [s for s in remaining if s.test_id not in resolved]
            if respawned:
                breaker.note_round(
                    (len(records), arbiter.total_observations) != marker
                )
            if not broke and not retry_ids:
                break
            respawned = True
        # Unordered delivery must not leak into analysis: issue clustering
        # and log files are stable in spec order.
        order = {spec.test_id: index for index, spec in enumerate(specs)}
        records.sort(key=lambda record: order[record.test_id])
        return records

    def _pool_round(
        self,
        specs: list[TestCallSpec],
        processes: int,
        shard_size: int,
        timeout_s: float | None,
        deliver: Callable[[TestRecord], bool | None],
        stats: dict | None = None,
    ) -> tuple[set[str], set[str], list[list[TestCallSpec]], bool]:
        """One sharded pool pass: (arrived ids, retry ids, suspects, broke).

        Submits one future per shard; the future only signals shard
        completion — records travel on the results relay in batched
        messages (see ``_RELAY_BATCH_SIZE`` in the executor) and are
        handed to ``deliver`` (checkpoint, progress, verdict
        arbitration) here as they arrive.  A deliver that returns False
        *withholds* the record: its id still counts as arrived (the
        spec produced a record, so it is no killer and the relay owes
        nothing), but it lands in the retry set so the caller re-runs
        the spec instead of treating it as resolved.  The suspect
        shards are the in-order unfinished remainders of the shards
        workers had announced when the pool broke: each contains at
        most one killer plus innocents that were merely in flight,
        queued behind it, or finished but unflushed when the worker
        died — the probe pool re-runs them in order, so the killer is
        still the first suspect that kills its probe.
        """
        import multiprocessing as mp
        import queue as thread_queue
        import threading
        from concurrent.futures import CancelledError, ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        from repro.fault.executor import _init_worker, run_shard_payload

        failpoints.fire("campaign.pool_round")
        context = (
            mp.get_context("fork")
            if "fork" in mp.get_all_start_methods()
            else mp.get_context()
        )
        relay = context.SimpleQueue()
        shards = [
            specs[start : start + shard_size]
            for start in range(0, len(specs), shard_size)
        ]
        index_of = {
            spec.test_id: index for index, spec in enumerate(self.iter_specs())
        }
        completed: set[str] = set()
        retry_ids: set[str] = set()
        announced: list[int] = []
        finished: list[int] = []
        errors: list[BaseException] = []
        broke = False
        #: Thread-safe staging between the relay pump and this (main)
        #: thread, which must be the one calling ``deliver`` so a hook
        #: that raises interrupts the campaign, not a helper thread.
        inbox: thread_queue.Queue = thread_queue.Queue()
        pool_done = threading.Event()

        def handle(message: tuple) -> None:
            if message[0] == "shard":
                announced.append(message[1])
            elif message[0] == "record":
                record = wire.decode_record(message[1])
                completed.add(record.test_id)
                if deliver(record) is False:
                    retry_ids.add(record.test_id)
            elif message[0] == "records":
                # Batched form of "record" (the workers' hot path —
                # one pickle + pipe syscall per _RELAY_BATCH_SIZE tests
                # instead of per test); decode and deliver in order.
                for encoded in message[1]:
                    record = wire.decode_record(encoded)
                    completed.add(record.test_id)
                    if deliver(record) is False:
                        retry_ids.add(record.test_id)
            elif message[0] == "stats":
                if stats is not None:
                    _merge_reset_modes(stats, message[1])
            elif message[0] == "phases":
                if stats is not None:
                    _merge_phase_times(stats, message[1])

        executor = ProcessPoolExecutor(
            max_workers=min(processes, len(shards)),
            mp_context=context,
            initializer=_init_worker,
            initargs=(
                self.kernel_version,
                self.frames,
                self.warm_boot,
                timeout_s,
                relay,
                self._wire_recipe(),
                self.delta_reset,
                self.journal_budget,
                self.verify_reset,
                self.compiled_plan,
                self.batch_hypercalls,
                self.verify_plan,
                self.profile,
            ),
        )
        pump: threading.Thread | None = None
        watcher: threading.Thread | None = None
        try:
            futures = {
                executor.submit(
                    run_shard_payload,
                    (number, [index_of[s.test_id] for s in shard]),
                ): number
                for number, shard in enumerate(shards)
            }

            def drain() -> None:
                # Move relay messages onto the thread-safe inbox as they
                # arrive.  The parent must never *write* to the relay: a
                # worker the broken pool SIGTERMs mid-put dies holding
                # the queue's writer lock, and a parent-side put would
                # then deadlock forever.  Continuous reading also keeps
                # the pipe from filling, so no worker can wedge in put()
                # while the pool shuts down.  The blocked read wakes
                # with EOF once the workers are gone and relay.close()
                # drops the parent's write end; a frame half-written by
                # a dying worker surfaces here as an unpickling error —
                # either way everything already staged is safe.
                try:
                    while True:
                        inbox.put(relay.get())
                except Exception:
                    pass

            def watch() -> None:
                # Futures only signal shard completion (records travel
                # on the relay); collect which shards finished cleanly
                # so the main thread knows exactly which records it is
                # still owed after the pool winds down.  Submission
                # order via result() rather than as_completed(): pool
                # shutdown with cancel_futures leaves cancelled futures
                # CANCELLED but never notified (cpython process.py skips
                # set_running_or_notify_cancel on them), so completion
                # waiters — and with them as_completed — hang forever,
                # while result() wakes on the condition cancel() does
                # signal.
                nonlocal broke
                for future, number in futures.items():
                    try:
                        future.result()
                    except BrokenProcessPool:
                        broke = True
                    except CancelledError:
                        pass
                    except BaseException as exc:  # worker bug: surface it
                        errors.append(exc)
                    else:
                        finished.append(number)
                pool_done.set()

            pump = threading.Thread(target=drain, name="relay-pump", daemon=True)
            watcher = threading.Thread(target=watch, name="relay-watch", daemon=True)
            pump.start()
            watcher.start()
            while not pool_done.is_set():
                try:
                    handle(inbox.get(timeout=0.05))
                except thread_queue.Empty:
                    pass
            # Every record of a cleanly finished shard was put on the
            # relay before its future resolved (FIFO, synchronous puts),
            # so drain until all of them are in — the pump may lag the
            # futures by a few messages.
            owed = {
                spec.test_id
                for number in finished
                for spec in shards[number]
            }
            while not owed <= completed:
                handle(inbox.get(timeout=10.0))  # Empty here = lost records
            if broke:
                # A sibling worker terminated mid-round may still have
                # completed messages in flight; give the pump a short
                # grace window to salvage them.  Anything it misses is
                # merely re-probed, so the window stays small — it is
                # pure added latency on every worker-kill recovery.
                while True:
                    try:
                        handle(inbox.get(timeout=0.05))
                    except thread_queue.Empty:
                        break
            if errors:
                raise errors[0]
        finally:
            # Safe to wait even on a broken pool: the pump keeps the
            # relay drained, so in-flight workers can always finish
            # their current put and exit.
            executor.shutdown(wait=True, cancel_futures=True)
            if watcher is not None:
                watcher.join()
            relay.close()
            if pump is not None:
                pump.join(timeout=5.0)
        suspect_shards = [
            [s for s in shards[number] if s.test_id not in completed]
            for number in sorted(announced)
        ]
        return (
            completed,
            retry_ids,
            [shard for shard in suspect_shards if shard],
            broke,
        )

    # -- analysis -----------------------------------------------------------

    def analyse(self, log: CampaignLog) -> CampaignResult:
        """Log-analysis phase: oracle, CRASH classification, clustering.

        Execution stats rehydrated from the log's trailer (a streamed
        log analysed offline) carry over onto the result, so the
        offline report matches the live one line for line.
        """
        oracle = ReferenceOracle(self.kernel_version, self.oracle_context)
        plan = self.plan() if self.compiled_plan else None
        spec_index = (
            {}
            if plan is not None  # plan.by_id covers the same specs
            else {spec.test_id: spec for spec in self.iter_specs()}
        )
        classified: list[tuple[TestRecord, Expectation, Classification]] = []
        for record in log:
            entry = plan.by_id.get(record.test_id) if plan is not None else None
            if entry is not None:
                expectation = oracle.expect_planned(entry)
            else:
                spec = spec_index.get(record.test_id)
                if spec is None:
                    spec = self._rebuild_spec(record)
                expectation = oracle.expect(spec)
            classified.append((record, expectation, classify(record, expectation)))
        issues = cluster_issues(classified)
        return self._result(log, classified, issues)

    def _rebuild_spec(self, record: TestRecord) -> TestCallSpec:
        """Reconstruct a spec from a loaded log record's labels."""
        from repro.fault.mutant import ArgSpec

        function = self.model.lookup(record.function)
        args: list[ArgSpec] = []
        for param, label in zip(function.params, record.arg_labels):
            dictionary = self.dictionaries.lookup(param.dictionary_key)
            for tv in dictionary.values:
                if tv.label == label:
                    args.append(ArgSpec.from_test_value(param.name, tv))
                    break
            else:
                raise KeyError(
                    f"{record.test_id}: label {label!r} not in dictionary "
                    f"{param.dictionary_key!r}"
                )
        return TestCallSpec(
            test_id=record.test_id,
            function=record.function,
            category=record.category,
            args=tuple(args),
        )

    def _result(
        self,
        log: CampaignLog,
        classified: list[tuple[TestRecord, Expectation, Classification]],
        issues: list[Issue],
    ) -> CampaignResult:
        return CampaignResult(
            log=log,
            classified=classified,
            issues=issues,
            kernel_version=self.kernel_version,
            model=self.model,
            strategy_name=getattr(self.strategy, "name", "custom"),
            execution_stats=log.execution_stats,
        )
