"""CRASH-scale classification of test outcomes (§III-C).

Ballista's severity scale, applied per the paper:

- **Catastrophic** — the test corrupted the system: the kernel halted,
  the simulator itself died, or temporal/spatial isolation broke.
- **Restart** — the system needed a restart it should not have needed:
  an unexpected system reset, or a hung test run.
- **Abort** — the testing task terminated irregularly (the test
  partition was halted by the Health Monitor after an unhandled trap).
- **Silent** — an exceptional situation was not reported (success
  returned where an error code was expected).
- **Hindering** — an incorrect error code was reported.

Silent and Hindering need the reference oracle; the first three are
observable from the Health Monitor and the simulator, as the paper
notes.  The oracle is state-aware, so one record's invocations can be
held to different expectations:
:meth:`~repro.fault.oracle.ReferenceOracle.verdict` calls
:func:`classify` once per distinct expectation, each judging its own
invocations, and keeps the worst result.  Every verdict of a campaign,
stress comparison or regression replay takes that one path.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.fault.testlog import TestRecord
from repro.xm import rc
from repro.xm.hm import HmEvent

if TYPE_CHECKING:
    from repro.fault.oracle import Expectation


class Severity(enum.Enum):
    """CRASH severities, most severe first, plus PASS."""

    CATASTROPHIC = "Catastrophic"
    RESTART = "Restart"
    ABORT = "Abort"
    SILENT = "Silent"
    HINDERING = "Hindering"
    PASS = "Pass"

    @property
    def is_failure(self) -> bool:
        """Whether the outcome counts as a robustness failure."""
        return self is not Severity.PASS


#: Severity order, most severe first (lower is worse).
SEVERITY_RANK = {severity: rank for rank, severity in enumerate(Severity)}


class FailureKind(enum.Enum):
    """Mechanism behind a failure (drives issue clustering)."""

    WORKER_KILLED = "worker process killed"
    SIM_CRASH = "simulator crash"
    SIM_HANG = "simulator hang"
    KERNEL_HALT = "kernel halt"
    UNEXPECTED_RESET = "unexpected system reset"
    TEMPORAL_VIOLATION = "temporal isolation violation"
    UNHANDLED_TRAP = "unhandled trap"
    SPATIAL_VIOLATION = "spatial isolation violation"
    NO_RETURN = "call did not return"
    WRONG_SUCCESS = "success where error expected"
    WRONG_ERROR = "incorrect error code"
    NONE = "none"


@dataclass(frozen=True)
class Classification:
    """Outcome of classifying one test record."""

    severity: Severity
    kind: FailureKind
    detail: str = ""

    @property
    def is_failure(self) -> bool:
        """Whether the test failed."""
        return self.severity.is_failure


def _expected_resets(record: TestRecord, expectation: Expectation) -> bool:
    """System resets are expected only for documented reset calls."""
    return expectation.allow_no_return and record.function == "XM_reset_system"


def classify(
    record: TestRecord,
    expectation: Expectation,
    judged: Sequence[int] | None = None,
) -> Classification:
    """Classify one executed test against its expectation.

    ``judged`` lists, in order, the indices of the invocations whose
    return codes ``expectation`` decides; by default, all of them.
    """
    # 0. The whole worker process died: the process-level analogue of
    #    the paper's simulator-killing tests, recorded by the campaign
    #    supervisor rather than the (dead) executor.
    if record.worker_killed:
        return Classification(
            Severity.CATASTROPHIC, FailureKind.WORKER_KILLED,
            "the test killed the worker process running it",
        )
    # 1. The simulator itself died: nothing is more severe.
    if record.sim_crashed:
        return Classification(
            Severity.CATASTROPHIC, FailureKind.SIM_CRASH,
            "the target simulator crashed during the test run",
        )
    if record.sim_hung:
        detail = (
            "the test run exceeded the campaign watchdog and was aborted"
            if record.watchdog_expired
            else "the test run hung and had to be killed"
        )
        return Classification(Severity.RESTART, FailureKind.SIM_HANG, detail)
    # 2. Kernel-state corruption.
    if record.kernel_halted and record.function != "XM_halt_system":
        return Classification(
            Severity.CATASTROPHIC, FailureKind.KERNEL_HALT,
            record.halt_reason or "kernel halted",
        )
    if record.resets and not _expected_resets(record, expectation):
        kinds = {kind for (kind, _src) in record.resets}
        return Classification(
            Severity.RESTART, FailureKind.UNEXPECTED_RESET,
            f"unexpected {'/'.join(sorted(kinds))} system reset",
        )
    # 3. Isolation breaks observed by the Health Monitor.
    names = record.hm_event_names()
    if HmEvent.TEMPORAL_VIOLATION.name in names:
        return Classification(
            Severity.CATASTROPHIC, FailureKind.TEMPORAL_VIOLATION,
            "the test call executed past its partition slot",
        )
    if HmEvent.UNHANDLED_TRAP.name in names:
        return Classification(
            Severity.ABORT, FailureKind.UNHANDLED_TRAP,
            "unhandled trap; HM halted the test partition",
        )
    if HmEvent.MEM_PROTECTION.name in names:
        return Classification(
            Severity.ABORT, FailureKind.SPATIAL_VIOLATION,
            "memory protection fault; HM halted the test partition",
        )
    # 4. Return-path verdicts.
    invocations = record.invocations
    if judged is not None:
        invocations = [invocations[index] for index in judged]
    if record.never_returned and (judged is None or judged[0] == 0):
        if expectation.allow_no_return:
            return Classification(Severity.PASS, FailureKind.NONE, expectation.note)
        return Classification(
            Severity.RESTART, FailureKind.NO_RETURN,
            "the test call never returned",
        )
    for invocation in invocations:
        if not invocation.returned:
            continue
        code = invocation.rc
        assert code is not None
        if expectation.rc_acceptable(code):
            continue
        if code >= 0:
            return Classification(
                Severity.SILENT, FailureKind.WRONG_SUCCESS,
                f"returned {rc.name_of(code)} where "
                f"{_expected_str(expectation)} was expected",
            )
        return Classification(
            Severity.HINDERING, FailureKind.WRONG_ERROR,
            f"returned {rc.name_of(code)} where "
            f"{_expected_str(expectation)} was expected",
        )
    return Classification(Severity.PASS, FailureKind.NONE)


def _expected_str(expectation: Expectation) -> str:
    parts = sorted(rc.name_of(code) for code in expectation.allowed)
    if expectation.allow_nonneg:
        parts.append("a non-negative result")
    if expectation.allow_no_return:
        parts.append("no return")
    return "/".join(parts) if parts else "(nothing)"
