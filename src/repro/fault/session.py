"""One campaign session: the bookkeeping every executor shares.

A campaign run is the same transaction whichever executor runs its
specs — the serial in-process runner or the fabric's leased workers.
:class:`CampaignSession` owns everything around the execution: the
resume split (validated, :class:`ResumeMismatch`), quarantine
skip-with-record, the execution stats, the streaming checkpoint and its
stats trailer (written even on interrupt), the hardened progress and
checkpoint callbacks, the arbitration provenance of executed records,
and the merge into spec order before analysis.  Executors hand every
record they ran to :meth:`CampaignSession.deliver` and every terminal
record they built themselves to :meth:`CampaignSession.emit`, so the
result is identical whether the specs ran serially, in
parallel, or across an interrupt and resume.
"""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.fault.failpoints import ChaosError
from repro.fault.resilience import (
    Quarantine,
    RetryPolicy,
    VerdictArbiter,
    quarantined_record,
)
from repro.fault.testlog import CampaignLog, TestRecord

if TYPE_CHECKING:  # campaign imports this module
    from repro.fault.campaign import Campaign, CampaignResult
    from repro.fault.mutant import TestCallSpec

ProgressHook = Callable[[int, int, TestRecord], None]


class ResumeMismatch(ValueError):
    """A resumed log was recorded under another campaign configuration."""


def merge_reset_modes(stats: dict, counts: dict) -> None:
    """Accumulate executor reset-ladder counters into ``execution_stats``."""
    modes = stats.setdefault("reset_modes", {})
    for name, count in counts.items():
        if count:
            modes[name] = modes.get(name, 0) + count


def merge_phase_times(stats: dict, phases: dict) -> None:
    """Accumulate a ``--profile`` per-phase wall-time breakdown."""
    times = stats.setdefault("phase_times", {})
    for name, seconds in phases.items():
        if seconds:
            times[name] = times.get(name, 0.0) + seconds


def merge_execution_stats(stats: dict, prior: dict) -> None:
    """Fold a previous (interrupted) run's stats into this run's.

    Counters add, flags OR, the reset-mode histogram merges per mode
    (and the profile's phase timings per phase) — so an
    interrupted+resumed campaign reports the same totals an
    uninterrupted run of the same suite would have.
    """
    for key, value in prior.items():
        if key == "reset_modes":
            merge_reset_modes(stats, value or {})
        elif key == "phase_times":
            merge_phase_times(stats, value or {})
        elif isinstance(value, bool):
            stats[key] = bool(stats.get(key)) or value
        elif isinstance(value, (int, float)):
            stats[key] = stats.get(key, 0) + value
        else:
            stats.setdefault(key, value)


def split_resume(
    campaign: Campaign, resume_from: CampaignLog, specs: list[TestCallSpec]
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
        if record.kernel_version and record.kernel_version != campaign.kernel_version:
            raise ResumeMismatch(
                f"cannot resume: record {record.test_id} was executed on "
                f"kernel {record.kernel_version}, this campaign targets "
                f"{campaign.kernel_version}"
            )
        if record.frames and record.frames != campaign.frames:
            raise ResumeMismatch(
                f"cannot resume: record {record.test_id} ran over "
                f"{record.frames} major frames, this campaign runs "
                f"{campaign.frames}"
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


class CampaignSession:
    """One campaign execution, independent of the executor that runs it.

    Construction does the resume split, applies the quarantine and
    opens the checkpoint stream; ``remaining`` is then the spec list an
    executor must run.  Use the session as a context manager around the
    execution: leaving it — normally or by an exception — appends the
    stats trailer, closes the stream and persists quarantine additions.
    :meth:`result` merges and analyses afterwards.

    A ``log_path`` that already holds records is refused unless
    ``resume_from`` is given: the stream skips appends whose test id is
    on disk, so a fresh run into an old log would silently keep the old
    records.
    """

    def __init__(
        self,
        campaign: Campaign,
        progress: ProgressHook | None = None,
        resume_from: CampaignLog | None = None,
        log_path: str | Path | None = None,
        retry_policy: RetryPolicy | None = None,
        quarantine_path: str | Path | None = None,
        log_fsync: bool = False,
    ) -> None:
        self.campaign = campaign
        self.specs = list(campaign.iter_specs())
        done: list[TestRecord] = []
        remaining = self.specs
        if resume_from is not None:
            done, remaining = split_resume(campaign, resume_from, self.specs)
        self.policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.arbiter = VerdictArbiter(self.policy)
        self.stats: dict = {
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
            # The interrupted run's counters rode along on its log
            # trailer; fold them in so the resumed campaign reports run
            # totals, not just this process's share.
            merge_execution_stats(self.stats, resume_from.execution_stats)
        self.quarantine: Quarantine | None = None
        if quarantine_path is not None:
            self.quarantine = Quarantine.load(quarantine_path)
            skipped = [s for s in remaining if s.test_id in self.quarantine]
            if skipped:
                # Known killers are skipped-with-record: the verdict
                # stays visible in the analysis without feeding the
                # spec to (and losing) another worker.
                remaining = [
                    s for s in remaining if s.test_id not in self.quarantine
                ]
                done.extend(
                    quarantined_record(
                        spec,
                        campaign.kernel_version,
                        campaign.frames,
                        self.quarantine.entries.get(spec.test_id),
                    )
                    for spec in skipped
                )
                self.stats["quarantined_skips"] = len(skipped)
        #: Records reused (resumed or quarantined); never re-executed.
        self.done = done
        #: Specs the executor must run, in global spec order.
        self.remaining = remaining
        #: Records produced by this run, in emit order.
        self.records: list[TestRecord] = []
        #: Progress denominator: this run's share of the campaign.
        self.total = len(remaining)
        self.progress = progress
        self._warned: set[str] = set()
        self.stream = None
        if log_path is not None:
            stream = CampaignLog.stream(log_path, fsync=log_fsync)
            if resume_from is None and stream.existing:
                stream.close()
                raise ValueError(
                    f"{log_path} already holds {len(stream.existing)} "
                    "record(s) of an earlier run; pass resume_from to "
                    "continue it, or log to a new file"
                )
            self.stream = stream
            try:
                # Checkpoint reused records too (no-ops when resuming
                # into the same file), so the stream alone is always a
                # complete restart point.
                for record in done:
                    stream.append(record)
            except BaseException:
                self.close()
                raise

    # -- per-record path ----------------------------------------------------

    def emit(self, record: TestRecord) -> None:
        """Publish one final record: keep, checkpoint, report progress.

        The checkpoint sink and the progress hook are hardened alike:
        an ``Exception`` from either warns once per hook and the
        campaign continues.  ``BaseException`` (``KeyboardInterrupt``
        from a progress hook is the documented way to stop a campaign)
        and an injected ``ChaosError`` propagate.
        """
        records = self.records
        records.append(record)
        if self.stream is not None:
            try:
                self.stream.append(record)
            except ChaosError:
                raise
            except Exception as exc:
                self._suppress("sink", exc)
        if self.progress is not None:
            try:
                self.progress(len(records), self.total, record)
            except ChaosError:
                raise
            except Exception as exc:
                self._suppress("progress", exc)

    def deliver(self, record: TestRecord, host_context: dict | None = None) -> None:
        """Emit an executed record with its provenance.

        The record is annotated with its arbitration provenance (a spec
        that earlier runs observed lethal consumed those runs too) and
        tagged with ``host_context``, the worker and lease shape it ran
        under (None in-process).
        """
        self.arbiter.annotate(record)
        record.host_context = host_context
        self.emit(record)

    def _suppress(self, kind: str, exc: Exception) -> None:
        if kind not in self._warned:
            self._warned.add(kind)
            warnings.warn(
                f"campaign {kind} callback raised {exc!r}; "
                "suppressing further errors from this hook",
                stacklevel=3,
            )

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Trailer the stats onto the stream, close it, save the quarantine.

        Runs even on interrupt, so a log analysed offline reports what
        the live run did and a resumed campaign can fold this leg's
        counters into its own; quarantine additions survive an aborted
        campaign, since a confirmed killer must not be forgotten.
        """
        try:
            if self.stream is not None:
                try:
                    self.stream.append_stats(self.stats)
                finally:
                    self.stream.close()
        finally:
            if self.quarantine is not None and self.quarantine.dirty:
                self.quarantine.save()

    def __enter__(self) -> "CampaignSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def result(self) -> CampaignResult:
        """Reused and new records merged in spec order, then analysed.

        Resumed, parallel and interrupted campaigns must classify and
        cluster exactly like a serial uninterrupted run.
        """
        order = {spec.test_id: index for index, spec in enumerate(self.specs)}
        combined = [*self.done, *self.records]
        combined.sort(key=lambda record: order[record.test_id])
        log = CampaignLog(combined)
        log.execution_stats = self.stats
        result = self.campaign.analyse(log)
        result.execution_stats = self.stats
        return result
