"""The nine findings as a permanent regression suite.

After a fault-removal campaign, each finding becomes a pinned
regression test: the exact triggering dataset, executed directly,
checked against the defect's documented fix.  This module derives that
suite from the ground-truth registry — the paper's findings as living
tests rather than prose.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fault.classify import FailureKind, Severity
from repro.fault.executor import TestExecutor
from repro.fault.mutant import ArgSpec, TestCallSpec
from repro.fault.oracle import ReferenceOracle
from repro.xm.vulns import KNOWN_VULNERABILITIES, VULNERABLE_VERSION, Vulnerability

#: The canonical triggering dataset per finding: (param, label, value-or-symbol).
_TRIGGERS: dict[str, tuple[tuple[str, str, int | None, str | None], ...]] = {
    "XM-RS-1": (("mode", "2", 2, None),),
    "XM-RS-2": (("mode", "16", 16, None),),
    "XM-RS-3": (("mode", "MAX_U32", 4294967295, None),),
    "XM-ST-1": (
        ("clockId", "HW_CLOCK", 0, None),
        ("absTime", "1", 1, None),
        ("interval", "1", 1, None),
    ),
    "XM-ST-2": (
        ("clockId", "EXEC_CLOCK", 1, None),
        ("absTime", "1", 1, None),
        ("interval", "1", 1, None),
    ),
    "XM-ST-3": (
        ("clockId", "HW_CLOCK", 0, None),
        ("absTime", "1", 1, None),
        ("interval", "LLONG_MIN", -(2**63), None),
    ),
    "XM-MC-1": (
        ("startAddr", "UNMAPPED", 0x50000000, None),
        ("endAddr", "VALID", None, "valid_batch_end"),
    ),
    "XM-MC-2": (
        ("startAddr", "VALID", None, "valid_batch_start"),
        ("endAddr", "UNMAPPED", 0x50000000, None),
    ),
    "XM-MC-3": (
        ("startAddr", "VALID", None, "valid_batch_start"),
        ("endAddr", "VALID", None, "valid_batch_end"),
    ),
}

#: The failure mechanism each finding must exhibit on the vulnerable kernel.
_EXPECTED_KIND: dict[str, FailureKind] = {
    "XM-RS-1": FailureKind.UNEXPECTED_RESET,
    "XM-RS-2": FailureKind.UNEXPECTED_RESET,
    "XM-RS-3": FailureKind.UNEXPECTED_RESET,
    "XM-ST-1": FailureKind.KERNEL_HALT,
    "XM-ST-2": FailureKind.SIM_CRASH,
    "XM-ST-3": FailureKind.WRONG_SUCCESS,
    "XM-MC-1": FailureKind.UNHANDLED_TRAP,
    "XM-MC-2": FailureKind.UNHANDLED_TRAP,
    "XM-MC-3": FailureKind.TEMPORAL_VIOLATION,
}


def vulnerability_spec(vulnerability: Vulnerability) -> TestCallSpec:
    """The pinned triggering test case for one finding."""
    trigger = _TRIGGERS[vulnerability.ident]
    args = tuple(
        ArgSpec(param, label, value=value, symbol=symbol)
        for (param, label, value, symbol) in trigger
    )
    return TestCallSpec(
        test_id=f"regression:{vulnerability.ident}",
        function=vulnerability.hypercall,
        category=vulnerability.category,
        args=args,
    )


def vulnerability_specs() -> list[TestCallSpec]:
    """All nine pinned cases, in paper order."""
    return [vulnerability_spec(v) for v in KNOWN_VULNERABILITIES]


@dataclass(frozen=True)
class RegressionOutcome:
    """Result of replaying one finding on one kernel version."""

    ident: str
    kernel_version: str
    severity: Severity
    kind: FailureKind
    reproduced: bool


def replay(kernel_version: str = VULNERABLE_VERSION) -> list[RegressionOutcome]:
    """Replay every finding's trigger; report per-finding outcome.

    On the vulnerable kernel every outcome should be ``reproduced``; on
    the revised kernel none should be.
    """
    executor = TestExecutor(kernel_version=kernel_version)
    oracle = ReferenceOracle(kernel_version)
    outcomes: list[RegressionOutcome] = []
    for vulnerability in KNOWN_VULNERABILITIES:
        spec = vulnerability_spec(vulnerability)
        record = executor.run(spec)
        _expectation, classification = oracle.verdict(record, spec)
        outcomes.append(
            RegressionOutcome(
                ident=vulnerability.ident,
                kernel_version=kernel_version,
                severity=classification.severity,
                kind=classification.kind,
                reproduced=(
                    classification.kind is _EXPECTED_KIND[vulnerability.ident]
                ),
            )
        )
    return outcomes


def expected_kind(ident: str) -> FailureKind:
    """The mechanism a finding must show when it reproduces."""
    return _EXPECTED_KIND[ident]
