"""Resilient verdicts: retry-with-quorum, killer quarantine, respawn breaker.

Campaign *execution* is durable (streaming log, supervised workers,
worker deadline); this module makes the *verdicts* durable.  Terminal
process-level outcomes — ``worker_killed`` and ``watchdog_expired`` —
were previously issued from a single observation, so one host-load
artefact (an OOM kill, a scheduler stall past the watchdog) was
indistinguishable from a genuinely harness-killing test.  Three pieces
fix that:

- :class:`RetryPolicy` + :class:`VerdictArbiter` — a suspect spec is
  re-run and a *quorum* of lethal observations decides the verdict; a
  re-run that completes normally wins immediately.  The consumed
  ``attempts`` and the ``arbitrated`` provenance land on the record.
- :class:`Quarantine` — specs with a confirmed killer verdict persist
  in a JSON quarantine file; later campaigns skip them with a
  ``quarantined`` record instead of feeding them to a fresh worker, and
  the CLI ``quarantine`` subcommand reviews/edits the list.
- :class:`RespawnBreaker` — a circuit breaker over worker respawns:
  when respawned workers keep dying *without* making progress,
  execution degrades to the serial in-process runner instead of
  thrashing.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.fault.testlog import TestRecord, atomic_write_text

#: The record flags of each terminal process-level verdict.  The worker
#: is gone, so the verdict is the whole observation; a deadline overrun
#: is a hung run.
VERDICT_FLAGS: dict[str, dict[str, bool]] = {
    "worker_killed": {"worker_killed": True},
    "watchdog_expired": {"sim_hung": True, "watchdog_expired": True},
}


@dataclass(frozen=True)
class RetryPolicy:
    """How terminal process-level verdicts are arbitrated.

    A suspect spec may consume up to ``max_attempts`` runs; a verdict
    of ``worker_killed`` / ``watchdog_expired`` is only issued once
    ``quorum`` lethal observations agree (a run that completes normally
    ends arbitration at once — the host could run it, so the earlier
    observation was an artefact).

    The defaults re-run a suspect once: two agreeing observations make
    the verdict.  ``max_attempts=1`` (or ``quorum=1``) restores the
    PR-2 behaviour where the first observation is terminal.
    """

    max_attempts: int = 3
    quorum: int = 2

    def __post_init__(self) -> None:
        """Validate the attempt/quorum shape."""
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 1 <= self.quorum <= self.max_attempts:
            raise ValueError(
                f"quorum must be in 1..max_attempts, got {self.quorum} "
                f"with max_attempts={self.max_attempts}"
            )

    @property
    def single_shot(self) -> bool:
        """Whether the first lethal observation is already terminal."""
        return self.max_attempts == 1 or self.quorum == 1


class VerdictArbiter:
    """Per-spec lethal observations and the verdicts they add up to."""

    def __init__(self, policy: RetryPolicy) -> None:
        self.policy = policy
        self._lethal: dict[str, list[str]] = {}

    @property
    def total_observations(self) -> int:
        """All lethal observations recorded so far (progress metric)."""
        return sum(len(obs) for obs in self._lethal.values())

    def observe(self, test_id: str, kind: str) -> bool:
        """Record one lethal observation; True when the verdict is terminal.

        Terminal means the quorum agreed — or the attempt budget is
        spent, in which case the verdict is issued on what was seen.
        """
        observations = self._lethal.setdefault(test_id, [])
        observations.append(kind)
        count = len(observations)
        return count >= self.policy.quorum or count >= self.policy.max_attempts

    def observations(self, test_id: str) -> list[str]:
        """The lethal observations recorded for one spec."""
        return list(self._lethal.get(test_id, ()))

    def annotate(self, record: TestRecord) -> None:
        """Stamp attempts/arbitrated provenance onto a delivered record.

        A lethal record consumed exactly its observations; a genuine
        record that survived arbitration consumed one run more.  A
        record with no lethal history is left untouched.
        """
        observations = self._lethal.get(record.test_id)
        if not observations:
            return
        lethal = record.worker_killed or record.watchdog_expired
        record.attempts = len(observations) + (0 if lethal else 1)
        record.arbitrated = record.attempts > 1


class Quarantine:
    """A persistent list of specs with confirmed killer verdicts.

    Stored as JSON (``{"version": 1, "entries": {test_id: {...}}}``).
    A missing file is an empty quarantine; :meth:`save` writes
    atomically (temp + replace), like the campaign log.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        entries: dict[str, dict] | None = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.entries: dict[str, dict] = dict(entries or {})
        self.dirty = False

    @classmethod
    def load(cls, path: str | Path) -> "Quarantine":
        """Read a quarantine file; a missing file is an empty list."""
        path = Path(path)
        if not path.exists():
            return cls(path)
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls(path, data.get("entries", {}))

    def add(self, test_id: str, function: str, observations: list[str]) -> None:
        """Quarantine one spec (idempotent by test id)."""
        if test_id in self.entries:
            return
        self.entries[test_id] = {
            "function": function,
            "observations": list(observations),
            "added_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        self.dirty = True

    def remove(self, test_id: str) -> bool:
        """Drop one spec from quarantine; True if it was present."""
        if test_id not in self.entries:
            return False
        del self.entries[test_id]
        self.dirty = True
        return True

    def clear(self) -> None:
        """Empty the quarantine."""
        if self.entries:
            self.dirty = True
        self.entries.clear()

    def __contains__(self, test_id: str) -> bool:
        return test_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def save(self) -> None:
        """Atomically write the quarantine file (temp + replace).

        Goes through :func:`~repro.fault.testlog.atomic_write_text`, so
        the published file honors the process umask — ``mkstemp``'s
        0600 temp mode must not survive the rename, or CI stages and
        users sharing the quarantine path cannot read it.
        """
        if self.path is None:
            raise ValueError("this quarantine has no backing path")
        payload = json.dumps(
            {"version": 1, "entries": self.entries}, indent=2, sort_keys=True
        )
        atomic_write_text(self.path, payload + "\n")
        self.dirty = False


@dataclass
class RespawnBreaker:
    """Circuit breaker over worker respawns.

    Every worker process started to replace a dead one counts as a
    respawn; when a respawned worker dies the caller reports whether
    its lifetime was *productive* (the campaign resolved a spec, or
    advanced an arbitration with a new lethal observation).  ``limit``
    consecutive unproductive respawns trip the breaker — the campaign
    stops feeding dying workers and degrades to the serial in-process
    runner for whatever remains.
    """

    limit: int = 3
    respawns: int = 0
    streak: int = 0

    def note_spawn(self) -> None:
        """Count one worker respawn."""
        self.respawns += 1

    def note_round(self, productive: bool) -> None:
        """Report whether the latest respawned worker's lifetime progressed."""
        self.streak = 0 if productive else self.streak + 1

    @property
    def tripped(self) -> bool:
        """Whether respawning should stop (degrade to serial)."""
        return self.streak >= self.limit


def quarantined_record(
    spec,  # noqa: ANN001 - TestCallSpec (import cycle with mutant avoided)
    kernel_version: str,
    frames: int,
    entry: dict | None = None,
) -> TestRecord:
    """A skipped-without-execution record for a quarantined spec.

    The spec is a *known* killer, so the record keeps the verdict it was
    quarantined with — the last observation, ``worker_killed`` for an
    entry that lists none — so the issue does not vanish from the
    analysis just because the spec was not re-fed to a worker; it marks
    ``quarantined`` so triage can tell a fresh verdict from a skip.
    """
    observations = list((entry or {}).get("observations", ()))
    verdict = observations[-1] if observations else "worker_killed"
    record = TestRecord(
        test_id=spec.test_id,
        function=spec.function,
        category=spec.category,
        arg_labels=spec.arg_labels(),
        **VERDICT_FLAGS.get(verdict, VERDICT_FLAGS["worker_killed"]),
        quarantined=True,
        kernel_version=kernel_version,
        frames=frames,
    )
    record.host_context = {"quarantined": True, "observations": observations}
    return record
