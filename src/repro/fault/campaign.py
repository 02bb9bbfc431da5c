"""Campaign orchestration: the whole methodology end to end (Fig. 1).

A :class:`Campaign` binds the preparation-phase artefacts (API model,
dictionaries, strategy, oracle) and runs the generation + execution +
analysis pipeline over the in-scope hypercalls.  One
:class:`~repro.fault.session.CampaignSession` owns the bookkeeping of a
run — resume, quarantine, stats, the streaming checkpoint, callbacks,
the spec-order merge — and one of two executors runs the specs:

- **serial** (the default): an in-process
  :class:`~repro.fault.executor.TestExecutor`;
- **fabric**: ``processes=N`` hands the campaign to
  :func:`repro.fabric.coordinate`, which leases shards of spec-table
  indices to N local worker processes over loopback sockets (the work
  is embarrassingly parallel — the paper ran its campaign from shell
  scripts for the same reason).  The same coordinator serves remote
  ``repro fabric work`` agents.

Execution is also *durable*: ``log_path`` checkpoints every record to a
JSONL stream the moment it arrives, the fabric supervises its workers (a
test that kills its worker is logged as a ``worker_killed`` record and
the worker is respawned — robustness tests kill their own harness, as
the paper's ``XM_set_timer(1,1,1)`` did to TSIM), and ``timeout_s`` arms
a per-test wall-clock watchdog.  An interrupted campaign resumes
losslessly from its own partial stream via ``resume_from``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.fault import wire
from repro.fault.apimodel import ApiFunction, ApiModel, api_model_from_table
from repro.fault.classify import Classification, Severity
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
from repro.fault.resilience import RetryPolicy
from repro.fault.session import (  # ResumeMismatch: re-exported
    CampaignSession,
    ProgressHook,
    ResumeMismatch,
    merge_phase_times,
    merge_reset_modes,
)
from repro.fault.testlog import CampaignLog, TestRecord
from repro.xm.vulns import VULNERABLE_VERSION

if TYPE_CHECKING:  # the executor loads the simulator: run paths import it
    from repro.fault.executor import TestExecutor

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
    #: (worker/probe respawns, arbitration retries, quarantine skips,
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


#: Process-level :class:`CompiledPlan` memo, one compiled entry list
#: per suite.  Entries are pure in (specs, layout): a campaign on
#: another kernel version or frame count retargets the memoized plan
#: (:meth:`CompiledPlan.retarget`) instead of compiling the same
#: entries again.  Keys carry the identity of the shared spec lists
#: (themselves memoized in :func:`repro.fault.wire.generate_suites`),
#: and each entry pins those lists alive so a recycled id() can never
#: alias a different suite.
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
    #: Testbed factory for the serial executor; None = EagleEye.
    #: Parallel runs (``run(processes=N)``) require the default testbed.
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
        helper fabric workers use to regenerate their spec tables, so
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
        partition layout), so — like :meth:`suites` — it runs once and
        is shared by the serial runner and :meth:`analyse`; a campaign
        over the same suites on another kernel version or frame count
        shares the compiled entries too.  Loopback fabric workers are
        handed this plan when they are forked; remote ``repro fabric
        work`` agents compile their own from the suite recipe (the spec
        tables they compile from are regenerated deterministically on
        both sides).
        """
        if self._plan is None:
            suites = self.suites()
            key = tuple(id(suite.specs) for suite in suites)
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
            compiled = hit[1]
            if (compiled.kernel_version, compiled.frames) != (
                self.kernel_version, self.frames,
            ):
                compiled = compiled.retarget(self.kernel_version, self.frames)
            self._plan = compiled
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

        ``processes=None`` runs serially in-process.  An integer runs the
        campaign on the fabric (:func:`repro.fabric.coordinate`) with
        that many local worker processes connected over loopback
        sockets: the coordinator leases *shards* — batches of indices
        into the campaign's own spec table — to the workers, which
        stream records back in batches, so per-test bookkeeping is
        amortised.  ``shard_size`` is the lease size (default: auto
        sized; ``shard_size=1`` leases one spec at a time and produces
        field-for-field identical records).  The workers are forked and
        receive the suite recipe when they are spawned, so a custom
        model, dictionary set or strategy runs in parallel too; only a
        custom ``system_factory`` is serial-only.

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
        partial log together with ``resume_from`` appends only the
        missing records.  A ``log_path`` that already holds records
        without ``resume_from`` raises ``ValueError``.  ``log_fsync``
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
        than re-fed to a fresh worker.

        A ``progress`` hook or checkpoint write that raises an
        ``Exception`` warns once and the campaign continues; a
        ``KeyboardInterrupt`` from the hook stops it (see
        :class:`~repro.fault.session.CampaignSession`).
        """
        if processes is not None:
            if processes < 1:
                raise ValueError(f"processes must be >= 1, got {processes}")
            if self.system_factory is not None:
                raise ValueError(
                    "process-parallel execution supports only the default testbed"
                )
            from repro.fabric.coordinator import coordinate

            return coordinate(
                self,
                workers=processes,
                progress=progress,
                resume_from=resume_from,
                log_path=log_path,
                timeout_s=timeout_s,
                shard_size=shard_size,
                retry_policy=retry_policy,
                quarantine_path=quarantine_path,
                log_fsync=log_fsync,
            )
        with CampaignSession(
            self, progress, resume_from, log_path, retry_policy,
            quarantine_path, log_fsync,
        ) as session:
            self._run_serial(session.remaining, session, timeout_s)
        return session.result()

    def _run_serial(
        self,
        specs: list[TestCallSpec],
        session: CampaignSession,
        timeout_s: float | None = None,
    ) -> None:
        """The serial executor: run ``specs`` in-process into ``session``."""
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
        if specs:
            # Boot before the first spec, as fabric workers do, so no
            # test's watchdog pays for the warm-boot snapshot.
            executor.prepare()
        finish = session.emit
        try:
            if self.compiled_plan:
                plan = self.plan()
                entries = [plan.by_id[spec.test_id] for spec in specs]

                def emit(entry, record: TestRecord) -> None:  # noqa: ANN001
                    finish(
                        self._arbitrated_serial_run(
                            executor, entry.spec, session, record
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
                    finish(self._arbitrated_serial_run(executor, spec, session))
        finally:
            merge_reset_modes(session.stats, executor.reset_stats)
            if self.profile:
                merge_phase_times(session.stats, executor.phase_times)

    def _arbitrated_serial_run(
        self,
        executor: TestExecutor,
        spec: TestCallSpec,
        session: CampaignSession,
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
        policy, arbiter = session.policy, session.arbiter
        if not policy.single_shot:
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

    # -- analysis -----------------------------------------------------------

    def analyse(self, log: CampaignLog) -> CampaignResult:
        """Log-analysis phase: oracle, CRASH classification, clustering.

        Every record gets :meth:`ReferenceOracle.verdict`: each
        invocation is judged against the expectation of the kernel state
        it ran in, and the classified triple keeps the expectation that
        decided the verdict.

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
                expectation, classification = oracle.verdict(
                    record, entry.spec, (entry.function, entry.arg_labels)
                )
            else:
                spec = spec_index.get(record.test_id)
                if spec is None:
                    spec = self._rebuild_spec(record)
                expectation, classification = oracle.verdict(record, spec)
            classified.append((record, expectation, classification))
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
