"""The dry-run truth base (§VI future work).

The paper closes by proposing "a dry run by manually cross-checking
return codes against reference documentation … establishing a truth
base to which robustness testing results may be compared".  This module
produces that artefact mechanically:

- :func:`build_truthbase` walks every generated test case and records
  the oracle's documented expectation — a reviewable table a domain
  expert can audit *before* any test executes (the dry run);
- :func:`compare_to_truthbase` replays a finished campaign against the
  (possibly expert-amended) truth base, reporting every divergence
  between documented and observed behaviour.

The truth base serialises to JSONL so it can be versioned, diffed and
annotated independently of the toolset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.fault.campaign import Campaign, CampaignResult
from repro.fault.oracle import Expectation
from repro.xm import rc


@dataclass(frozen=True)
class TruthEntry:
    """Documented expectation for one test case."""

    test_id: str
    function: str
    call: str
    allowed_rcs: tuple[int, ...]
    allow_nonneg: bool
    allow_no_return: bool
    invalid_params: tuple[str, ...]
    note: str = ""

    @classmethod
    def from_expectation(
        cls, test_id: str, function: str, call: str, expectation: Expectation
    ) -> "TruthEntry":
        """Freeze one oracle verdict."""
        return cls(
            test_id=test_id,
            function=function,
            call=call,
            allowed_rcs=tuple(sorted(expectation.allowed)),
            allow_nonneg=expectation.allow_nonneg,
            allow_no_return=expectation.allow_no_return,
            invalid_params=expectation.invalid_params,
            note=expectation.note,
        )

    def describe_expected(self) -> str:
        """Human-readable expected behaviour."""
        parts = [rc.name_of(code) for code in self.allowed_rcs]
        if self.allow_nonneg:
            parts.append("non-negative result")
        if self.allow_no_return:
            parts.append("no return")
        return " | ".join(parts) if parts else "(nothing)"

    def to_dict(self) -> dict:
        """JSON form."""
        return {
            "test_id": self.test_id,
            "function": self.function,
            "call": self.call,
            "allowed_rcs": list(self.allowed_rcs),
            "allow_nonneg": self.allow_nonneg,
            "allow_no_return": self.allow_no_return,
            "invalid_params": list(self.invalid_params),
            "note": self.note,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TruthEntry":
        """Inverse of :meth:`to_dict`."""
        return cls(
            test_id=data["test_id"],
            function=data["function"],
            call=data["call"],
            allowed_rcs=tuple(data["allowed_rcs"]),
            allow_nonneg=data["allow_nonneg"],
            allow_no_return=data["allow_no_return"],
            invalid_params=tuple(data["invalid_params"]),
            note=data.get("note", ""),
        )


@dataclass
class TruthBase:
    """The reviewable dry-run table."""

    kernel_version: str
    entries: dict[str, TruthEntry] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, test_id: str) -> TruthEntry | None:
        """Entry by test id."""
        return self.entries.get(test_id)

    def save(self, path: str | Path) -> None:
        """Write JSONL (first line is a header record)."""
        with Path(path).open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kernel_version": self.kernel_version}) + "\n")
            for entry in self.entries.values():
                fh.write(json.dumps(entry.to_dict()) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "TruthBase":
        """Read JSONL."""
        with Path(path).open("r", encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            base = cls(kernel_version=header["kernel_version"])
            for line in fh:
                line = line.strip()
                if line:
                    entry = TruthEntry.from_dict(json.loads(line))
                    base.entries[entry.test_id] = entry
        return base

    def expected_error_share(self) -> float:
        """Fraction of tests whose documented outcome is an error code."""
        if not self.entries:
            return 0.0
        errors = sum(
            1
            for entry in self.entries.values()
            if entry.allowed_rcs
            and all(code < 0 for code in entry.allowed_rcs)
            and not entry.allow_nonneg
            and not entry.allow_no_return
        )
        return errors / len(self.entries)


def build_truthbase(campaign: Campaign) -> TruthBase:
    """The dry run: record every documented expectation, execute nothing.

    Nothing runs, so no state is captured: every entry is the oracle's
    ``state=None`` (quiet testbed) expectation.
    """
    from repro.fault.oracle import ReferenceOracle

    oracle = ReferenceOracle(campaign.kernel_version, campaign.oracle_context)
    base = TruthBase(kernel_version=campaign.kernel_version)
    for spec in campaign.iter_specs():
        expectation = oracle.expect(spec)
        base.entries[spec.test_id] = TruthEntry.from_expectation(
            spec.test_id, spec.function, spec.describe(), expectation
        )
    return base


@dataclass(frozen=True)
class TruthDivergence:
    """One observed outcome that contradicts the truth base."""

    test_id: str
    call: str
    expected: str
    observed: str


def compare_to_truthbase(
    result: CampaignResult, base: TruthBase
) -> list[TruthDivergence]:
    """Replay a campaign's observations against the truth base."""
    divergences: list[TruthDivergence] = []
    for record in result.log:
        entry = base.lookup(record.test_id)
        if entry is None:
            continue
        observed = _observed_outcome(record)
        if _consistent(entry, record):
            continue
        divergences.append(
            TruthDivergence(
                test_id=record.test_id,
                call=entry.call,
                expected=entry.describe_expected(),
                observed=observed,
            )
        )
    return divergences


def _observed_outcome(record) -> str:  # noqa: ANN001
    if record.sim_crashed:
        return "simulator crash"
    if record.sim_hung:
        return "hang"
    if record.kernel_halted:
        return f"kernel halt ({record.halt_reason})"
    if record.never_returned:
        return "no return"
    code = record.first_rc
    if code is None:
        return "not invoked"
    return rc.name_of(code)


def _consistent(entry: TruthEntry, record) -> bool:  # noqa: ANN001
    if record.sim_crashed or record.sim_hung or record.kernel_halted:
        return False
    if record.never_returned:
        return entry.allow_no_return
    code = record.first_rc
    if code is None:
        return True  # never invoked: nothing to compare
    if code in entry.allowed_rcs:
        return True
    return entry.allow_nonneg and code >= 0
