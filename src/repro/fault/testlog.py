"""Per-test logging (the paper's Log Analysis inputs, §III-C).

During each test execution the campaign logs exactly what the paper
lists: return codes, exception handlers (here: HM events and simulator
exceptions), partition and kernel statuses, and the fault monitor's
actions.  A :class:`TestRecord` is the machine-readable unit; a
:class:`CampaignLog` persists them as JSONL for later analysis.  The
dict codec itself lives in :mod:`repro.fault.wire`, shared with the
fabric's record relay so the two serialisation paths cannot drift.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.fault import failpoints

#: JSONL trailer key for campaign-level execution stats: a line of the
#: form ``{"__campaign_stats__": {...}}`` appended after the records.
#: Record parsing skips it (it has no ``test_id``), so logs with and
#: without a trailer load interchangeably; the last trailer wins when a
#: resumed stream appended more than one.
STATS_KEY = "__campaign_stats__"


def atomic_write_text(
    path: Path, text: str | Iterable[str], failpoint: str | None = None
) -> None:
    """Write ``text`` to ``path`` atomically (temp file + rename).

    ``text`` is a string or an iterable of string chunks; chunks are
    written as they are produced, so a large artefact (a campaign log)
    is never held in memory as one joined string.

    ``mkstemp`` creates the temp file 0600; the file is re-permissioned
    to honor the process umask before the rename, so the published
    artefact is readable by other users/CI stages sharing the path —
    the rename must not narrow permissions the direct-write path would
    have granted.
    """
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if isinstance(text, str):
                fh.write(text)
            else:
                fh.writelines(text)
        if failpoint is not None:
            failpoints.fire(failpoint)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


#: Field order of a state vector (see
#: :func:`repro.fault.stateful_oracle.capture_state`).
STATE_FIELDS = (
    "hm_len", "hm_cursor", "hm_unread", "trace_lens", "trace_cursors", "tm_message"
)

#: Interned state vectors: one shared dict per distinct kernel state.
#: A campaign captures a state at every invocation, yet the Table III
#: logs hold ~20k invocations over a few hundred distinct states, so
#: capture and decode both hand out the shared dict for an equal state.
#: The key is ``(hm_len, hm_cursor, hm_unread, trace_lens items,
#: trace_cursors items, tm_message)``.  The memo lives here, outside any
#: simulator graph, so no delta journal, reset or warm-boot snapshot
#: ever sees it; it is bounded by :data:`STATE_MEMO_MAX` (oldest entry
#: evicted first — an evicted state stays valid in every record holding
#: it, the next equal state just gets a new shared dict).
_STATES: dict[tuple, dict] = {}
STATE_MEMO_MAX = 4096
_INT_ONLY = {int}


def shared_state(key: tuple) -> dict:
    """The one shared state dict for ``key`` (built on first sight).

    Shared dicts are read-only by contract: records of many tests hold
    the same object, so a mutation would rewrite all of their logs.
    """
    state = _STATES.get(key)
    if state is None:
        while len(_STATES) >= STATE_MEMO_MAX:
            _STATES.pop(next(iter(_STATES)), None)
        hm_len, hm_cursor, hm_unread, lens, cursors, tm_message = key
        state = _STATES[key] = {
            "hm_len": hm_len,
            "hm_cursor": hm_cursor,
            "hm_unread": hm_unread,
            "trace_lens": dict(lens),
            "trace_cursors": dict(cursors),
            "tm_message": tm_message,
        }
    return state


def intern_state(state: object) -> object:
    """The shared copy of a decoded state vector, else ``state`` itself.

    Only a dict with exactly :data:`STATE_FIELDS`, in that order, and
    plain ``int`` values is interned, so the shared copy encodes to the
    same bytes (``True == 1`` and ``1.0 == 1`` would otherwise alias).
    """
    if type(state) is not dict or tuple(state) != STATE_FIELDS:
        return state
    hm_len, hm_cursor, hm_unread, lens, cursors, tm_message = state.values()
    if type(lens) is not dict or type(cursors) is not dict:
        return state
    if {
        type(hm_len), type(hm_cursor), type(hm_unread), type(tm_message),
        *map(type, lens.values()), *map(type, cursors.values()),
    } != _INT_ONLY:
        return state
    return shared_state(
        (hm_len, hm_cursor, hm_unread, tuple(lens.items()),
         tuple(cursors.items()), tm_message)
    )


@dataclass(frozen=True)
class Invocation:
    """Outcome of one invocation of the test call (once per major frame).

    ``state`` is the optional pre-call system snapshot used by the
    state-aware oracle (see :mod:`repro.fault.stateful_oracle`); equal
    snapshots share one read-only dict (see :func:`shared_state`).
    """

    returned: bool
    rc: int | None = None
    note: str = ""
    state: dict | None = None


@dataclass
class TestRecord:
    """Everything logged for one executed test case."""

    __test__ = False  # keep pytest from collecting this library class

    test_id: str
    function: str
    category: str
    arg_labels: tuple[str, ...] = ()
    resolved_args: tuple[int, ...] = ()
    invocations: list[Invocation] = field(default_factory=list)
    sim_crashed: bool = False
    sim_hung: bool = False
    kernel_halted: bool = False
    halt_reason: str = ""
    resets: list[tuple[str, str]] = field(default_factory=list)
    hm_events: list[tuple[str, int, str]] = field(default_factory=list)
    overruns: int = 0
    test_partition_state: str = ""
    console_tail: list[str] = field(default_factory=list)
    kernel_version: str = ""
    frames: int = 0
    wall_time_s: float = 0.0
    #: The test took its worker process down with it (the process-level
    #: analogue of the paper's simulator-crash failure mode); built by
    #: the campaign supervisor, not by an executor.
    worker_killed: bool = False
    #: The run exceeded the per-test wall-clock watchdog and was aborted.
    watchdog_expired: bool = False
    #: Runs this verdict consumed (see resilience.VerdictArbiter); 1
    #: means the first observation was accepted without arbitration.
    attempts: int = 1
    #: The verdict went through retry-with-quorum arbitration (the
    #: record consumed more than one run before being issued).
    arbitrated: bool = False
    #: The spec was skipped as a known killer (resilience.Quarantine);
    #: the worker_killed verdict is inherited, not freshly observed.
    quarantined: bool = False
    #: Host-side execution context for post-hoc triage (process count,
    #: shard size, worker, attempt number) — separates kernel-caused
    #: deaths from host-load artefacts.  None on serial records whose
    #: verdict never involved a watchdog or a worker.
    host_context: dict | None = None

    @property
    def invoked(self) -> bool:
        """Whether the fault placeholder ran at least once."""
        return bool(self.invocations)

    @property
    def first_rc(self) -> int | None:
        """Return code of the first invocation, if it returned."""
        for inv in self.invocations:
            if inv.returned:
                return inv.rc
            return None
        return None

    @property
    def never_returned(self) -> bool:
        """Whether the first invocation failed to return."""
        return bool(self.invocations) and not self.invocations[0].returned

    def hm_event_names(self) -> set[str]:
        """Distinct HM event codes observed."""
        return {name for (name, _pid, _detail) in self.hm_events}

    def to_dict(self) -> dict:
        """JSON-serialisable form (see :func:`repro.fault.wire.record_to_dict`)."""
        from repro.fault import wire

        return wire.record_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TestRecord":
        """Inverse of :meth:`to_dict`.

        Keys this version does not know (a log written by newer code)
        are dropped with a warning rather than crashing the load, so
        old analysers keep working on forward-compatible logs (see
        :func:`repro.fault.wire.record_from_dict`).
        """
        from repro.fault import wire

        return wire.record_from_dict(data)


def _iter_jsonl(path: Path) -> Iterator[dict]:
    """Parse a JSONL file line by line, tolerating a truncated final line.

    A crash mid-append can leave a half-written last record; readers
    drop it (with a warning) instead of refusing to load — resume must
    work in exactly the crash scenario the streaming log exists for,
    and the stream's dedup-by-id append rewrites the lost record.
    Corruption anywhere *before* the last line is still an error.
    Each line is yielded as soon as it parses, so a caller that decodes
    as it goes never holds every line's dict at once.
    """
    torn: json.JSONDecodeError | None = None
    with path.open("r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if torn is not None:
                raise torn  # a torn line with more lines after it
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                torn = exc
                continue
            yield data
    if torn is not None:
        warnings.warn(
            f"{path}: dropping truncated final record "
            "(interrupted mid-append?)",
            stacklevel=3,
        )


class CampaignLog:
    """An append-only collection of test records with JSONL persistence.

    ``execution_stats`` carries the run-level supervision counters
    (reset modes, worker respawns, arbitration retries) alongside the
    records: :meth:`save` persists them as a tagged trailer line and
    :meth:`load` rehydrates them, so a log analysed offline reports
    exactly what the live run reported.
    """

    def __init__(self, records: Iterable[TestRecord] = ()) -> None:
        self.records: list[TestRecord] = list(records)
        #: Supervision counters of the run that wrote this log; None
        #: when the log predates the trailer or never had a live run.
        self.execution_stats: dict | None = None

    def append(self, record: TestRecord) -> None:
        """Add one record."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TestRecord]:
        return iter(self.records)

    def by_function(self, function: str) -> list[TestRecord]:
        """Records of one hypercall."""
        return [r for r in self.records if r.function == function]

    def by_category(self, category: str) -> list[TestRecord]:
        """Records of one Table III category."""
        return [r for r in self.records if r.category == category]

    def save(self, path: str | Path) -> None:
        """Write JSONL atomically.

        The records go to a temporary file in the same directory which
        is then renamed over the target, so a crash mid-write can never
        truncate or corrupt an existing log.  ``execution_stats``, when
        present, is appended as a tagged trailer line after the records.
        """
        atomic_write_text(Path(path), self._lines(), failpoint="testlog.replace")

    def _lines(self) -> Iterator[str]:
        """The JSONL lines of :meth:`save`, encoded one at a time."""
        for record in self.records:
            yield json.dumps(record.to_dict()) + "\n"
        if self.execution_stats is not None:
            yield json.dumps({STATS_KEY: self.execution_stats}) + "\n"

    @classmethod
    def load(cls, path: str | Path) -> "CampaignLog":
        """Read JSONL (a truncated final line is dropped, see _iter_jsonl).

        Each line is decoded into its record as it is read (through
        :func:`repro.fault.wire.record_from_dict`, the one record
        decoder).  A stats trailer rehydrates ``execution_stats``; the
        last one wins.  Unknown record fields from a newer writer warn
        once per distinct field set, not once per record (see
        :func:`repro.fault.wire.dedup_unknown_fields`).
        """
        from repro.fault import wire

        log = cls()
        with wire.dedup_unknown_fields():
            for data in _iter_jsonl(Path(path)):
                if STATS_KEY in data:
                    log.execution_stats = data[STATS_KEY]
                    continue
                log.append(wire.record_from_dict(data))
        return log

    @classmethod
    def stream(cls, path: str | Path, fsync: bool = False) -> "LogStream":
        """Open a crash-durable append stream (see :class:`LogStream`)."""
        return LogStream(path, fsync=fsync)


class LogStream:
    """Streaming checkpoint writer: every record hits disk as it arrives.

    Opened in append mode, so pointing it at a partial log continues
    that log; records whose test id is already on disk are skipped,
    which makes resuming into the same file idempotent.  Each append is
    written and flushed immediately — an interrupted campaign loses at
    most the record being written, never a completed one.

    ``flush()`` hands the bytes to the OS but not to the platter: a
    *host* power loss (as opposed to a process crash) can still lose
    flushed records sitting in kernel buffers.  ``fsync=True`` follows
    every flush with ``os.fsync``, extending the durability claim to
    power loss at the cost of a disk round-trip per checkpoint (the
    price is measured in ``benchmarks/bench_durability.py``).
    """

    def __init__(self, path: str | Path, fsync: bool = False) -> None:
        self.path = Path(path)
        #: Follow each flush with os.fsync (durable against power loss).
        self.fsync = bool(fsync)
        #: Test ids already present on disk when the stream was opened
        #: (plus everything appended since); appends of these are no-ops.
        self.existing: set[str] = set()
        repair_newline = False
        if self.path.exists():
            # Scan byte-wise so a half-written tail (a crash mid-append)
            # can be truncated away — left in place, the next append
            # would concatenate onto it and corrupt a mid-file line.
            # Lines are read one at a time, so opening a stream on a
            # large log never holds the whole file.
            offset = 0
            torn: json.JSONDecodeError | None = None
            last_line = b""
            with self.path.open("rb") as fh:
                for raw_line in fh:
                    if torn is not None:
                        raise torn  # a torn line with more lines after it
                    last_line = raw_line
                    stripped = raw_line.strip()
                    if stripped:
                        try:
                            data = json.loads(stripped)
                        except json.JSONDecodeError as exc:
                            torn = exc
                            continue
                        # Stats trailers (and any other non-record line)
                        # carry no test id and never dedup an append.
                        if data.get("test_id") is not None:
                            self.existing.add(data["test_id"])
                    offset += len(raw_line)
            if torn is not None:
                warnings.warn(
                    f"{self.path}: dropping truncated final "
                    "record (interrupted mid-append?)",
                    stacklevel=3,
                )
                os.truncate(self.path, offset)
            elif last_line and not last_line.endswith(b"\n"):
                repair_newline = True
        self._fh = self.path.open("a", encoding="utf-8")
        if repair_newline:
            self._fh.write("\n")
            self._fh.flush()
        self.written = 0

    def append(self, record: TestRecord) -> None:
        """Checkpoint one record (write + flush, deduplicated by id)."""
        if record.test_id in self.existing:
            return
        line = json.dumps(record.to_dict()) + "\n"
        if failpoints.fire("testlog.append") == "short-write":
            # Cooperative power-loss model: persist only a prefix of
            # the line, then fail as if the host died mid-append — the
            # truncated tail exercises the repair path in __init__.
            self._fh.write(line[: max(1, len(line) // 2)])
            self._fh.flush()
            raise failpoints.ChaosError(
                "failpoint 'testlog.append' fired (injected short write)"
            )
        self._fh.write(line)
        self._flush()
        self.existing.add(record.test_id)
        self.written += 1

    def append_stats(self, stats: dict) -> None:
        """Checkpoint the run's execution stats as a tagged trailer line.

        Not deduplicated: a resumed stream appends its own (merged)
        trailer after the one already in the file, and loaders keep the
        last.  The canonical end-of-run :meth:`CampaignLog.save`
        rewrite collapses the log back to records + one trailer.
        """
        self._fh.write(json.dumps({STATS_KEY: stats}) + "\n")
        self._flush()

    def _flush(self) -> None:
        """Flush — and, with ``fsync=True``, sync — the stream to disk."""
        failpoints.fire("testlog.flush")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if not self._fh.closed:
            self._flush()
            self._fh.close()

    def __enter__(self) -> "LogStream":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
