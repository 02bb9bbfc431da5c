"""Committed reference verdicts and the paper's claims, checked per campaign.

A reference file holds, for every spec of one kernel version's Table III
campaign, a digest of the record a cold, serial run wrote (every field
but ``wall_time_s`` and ``host_context``, which legitimately differ
between runs) and the record's warehouse verdict.  The checker reads
campaign logs itself, without the program's decoder, so a decoder bug
cannot hide a wrong record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Record fields that vary between identical runs.
VOLATILE_FIELDS = ("wall_time_s", "host_context")

#: The paper's Table III campaign size.
PAPER_TESTS = 2864
#: The nine issues the paper reports on XtratuM 3.4.0; 3.4.1 fixes all.
PAPER_IDENTS = {
    "3.4.0": sorted(
        f"XM-{group}-{n}" for group in ("RS", "ST", "MC") for n in (1, 2, 3)
    ),
    "3.4.1": [],
}


def record_digest(data: dict) -> str:
    """Digest of one decoded log record, volatile fields excluded."""
    stable = {k: v for k, v in data.items() if k not in VOLATILE_FIELDS}
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def read_records(path: str | Path) -> list[dict]:
    """The records of a JSONL campaign log.

    Skips the stats trailer and tolerates a torn final line, which is
    what a log streamed by a campaign killed at its deadline ends with.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return []
    records = []
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break
            raise
        if "test_id" in data:
            records.append(data)
    return records


@dataclass
class Check:
    """Outcome of checking one campaign's output against the reference."""

    attempted: int
    matched: int = 0
    #: Specs whose record exists but differs from the reference.
    mismatched: list[str] = field(default_factory=list)
    #: Specs without a record (a campaign killed at its deadline).
    missing: list[str] = field(default_factory=list)
    #: Paper-claim violations, as messages.
    claims: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.attempted - self.matched

    @property
    def wrong(self) -> bool:
        """True when the program produced a wrong answer (not just none)."""
        return bool(self.mismatched or self.claims)

    def merge(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.matched += other.matched
        self.mismatched += other.mismatched
        self.missing += other.missing
        self.claims += other.claims


class Reference:
    """One kernel version's reference: spec -> (record digest, verdict)."""

    def __init__(self, version: str, specs: dict[str, tuple[str, str]]) -> None:
        self.version = version
        self.specs = specs

    @classmethod
    def load(cls, version: str, directory: Path = REFERENCE_DIR) -> "Reference":
        data = json.loads((directory / f"{version}.json").read_text())
        if data["kernel_version"] != version:
            raise ValueError(f"reference file for {version} names {data['kernel_version']}")
        return cls(version, {tid: (d, v) for tid, d, v in data["specs"]})

    def check_records(self, records: list[dict]) -> Check:
        """Match each spec's record digest; absent specs count as missing."""
        check = Check(attempted=len(self.specs))
        seen = set()
        for data in records:
            test_id = data["test_id"]
            expected = self.specs.get(test_id)
            if expected is None or test_id in seen:
                check.mismatched.append(test_id)
                continue
            seen.add(test_id)
            if record_digest(data) == expected[0]:
                check.matched += 1
            else:
                check.mismatched.append(test_id)
        check.missing = [tid for tid in self.specs if tid not in seen]
        return check

    def check_verdicts(self, verdicts: dict[str, str]) -> Check:
        """Match each spec's verdict as the program's warehouse stored it."""
        check = Check(attempted=len(self.specs))
        for test_id, (_digest, verdict) in self.specs.items():
            got = verdicts.get(test_id)
            if got is None:
                check.missing.append(test_id)
            elif got == verdict:
                check.matched += 1
            else:
                check.mismatched.append(test_id)
        check.mismatched += sorted(set(verdicts) - set(self.specs))
        return check


def check_claims(version: str, tests: int, idents: list) -> list[str]:
    """The paper's claims for one finished campaign, as violation messages.

    ``idents`` names the known vulnerability each raised issue matched
    (None for an issue matching none).
    """
    problems = []
    if tests != PAPER_TESTS:
        problems.append(f"{version}: {tests} tests, the paper ran {PAPER_TESTS}")
    expected = PAPER_IDENTS[version]
    if sorted(idents, key=str) != expected:
        problems.append(f"{version}: issues {sorted(idents, key=str)}, expected {expected}")
    return problems
