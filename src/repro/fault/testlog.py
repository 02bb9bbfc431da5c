"""Per-test logging (the paper's Log Analysis inputs, §III-C).

During each test execution the campaign logs exactly what the paper
lists: return codes, exception handlers (here: HM events and simulator
exceptions), partition and kernel statuses, and the fault monitor's
actions.  A :class:`TestRecord` is the machine-readable unit; a
:class:`CampaignLog` persists them as JSONL for later analysis.  The
dict codec and the log-line decoder live in :mod:`repro.fault.wire`,
shared with the fabric's record relay so the two serialisation paths
cannot drift; the bounded memos that let decode share what repeats
(state vectors, invocations, whole invocation arrays by their text)
live here, and so does the one JSONL line reader of load and resume.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator

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


#: Field order of a state vector (see :func:`capture_state`).
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


#: str(stream_id) memo — capture_state runs once per invocation and the
#: handful of stream ids repeat for the life of the process.
_STREAM_KEYS: dict[int, str] = {}


def capture_state(kernel) -> dict:  # noqa: ANN001 - repro.xm.kernel.Kernel
    """Snapshot the state the contracts of stateful services depend on.

    The executor captures it before every invocation, and the oracle
    refines its expectations from it.  Equal snapshots return the same
    shared, read-only dict (see :func:`shared_state`): the lookup key is
    built from the scalars read here, so a repeated state allocates
    nothing.
    """
    tm_chan = kernel.ipc.channels.get("CH_TM_AOCS")
    hm = kernel.hm
    hm_len = len(hm.records)
    hm_cursor = hm.read_cursor
    trace_lens = []
    trace_cursors = []
    keys = _STREAM_KEYS
    for stream_id, stream in kernel.tracemgr.streams.items():
        key = keys.get(stream_id)
        if key is None:
            key = keys[stream_id] = str(stream_id)
        trace_lens.append((key, len(stream.events)))
        trace_cursors.append((key, stream.cursor))
    return shared_state((
        hm_len,
        hm_cursor,
        hm_len - hm_cursor,
        tuple(trace_lens),
        tuple(trace_cursors),
        int(tm_chan is not None and tm_chan.message is not None),
    ))


def _state_key(state: object) -> tuple | None:
    """The :func:`shared_state` key of an internable state, else None.

    Only a dict with exactly :data:`STATE_FIELDS`, in that order, and
    plain ``int`` values has a key, so the shared copy encodes to the
    same bytes (``True == 1`` and ``1.0 == 1`` would otherwise alias).
    """
    if type(state) is not dict or tuple(state) != STATE_FIELDS:
        return None
    hm_len, hm_cursor, hm_unread, lens, cursors, tm_message = state.values()
    if type(lens) is not dict or type(cursors) is not dict:
        return None
    if {
        type(hm_len), type(hm_cursor), type(hm_unread), type(tm_message),
        *map(type, lens.values()), *map(type, cursors.values()),
    } != _INT_ONLY:
        return None
    return (hm_len, hm_cursor, hm_unread, tuple(lens.items()),
            tuple(cursors.items()), tm_message)


def intern_state(state: object) -> object:
    """The shared copy of a decoded state vector, else ``state`` itself.

    Only a state with a :func:`_state_key` is interned.
    """
    key = _state_key(state)
    return state if key is None else shared_state(key)


@dataclass(frozen=True)
class Invocation:
    """Outcome of one invocation of the test call (once per major frame).

    ``state`` is the optional pre-call system snapshot the oracle
    refines its expectation from (see :func:`capture_state`); equal
    snapshots share one read-only dict (see :func:`shared_state`).
    """

    returned: bool
    rc: int | None = None
    note: str = ""
    state: dict | None = None


#: Shared invocations: one frozen :class:`Invocation` per distinct
#: outcome.  The two Table III logs hold 20,594 invocations over 417
#: distinct ``(returned, rc, note, state)`` values, so decode hands out
#: the shared object for an equal outcome instead of building its own.
#: Keys carry the state's content key (see :func:`_state_key`), never
#: its id(), so an evicted state can never alias a new one.  Bounded
#: like the state memo: :data:`INVOCATION_MEMO_MAX`, oldest evicted
#: first (an evicted invocation stays valid in every record holding it).
_INVOCATIONS: dict[tuple, Invocation] = {}
INVOCATION_MEMO_MAX = STATE_MEMO_MAX


def _shared_outcome(
    returned: object, rc: object, note: object, state: object
) -> Invocation | None:
    """The shared invocation of a shareable outcome, else None.

    Shareable means ``returned`` is a ``bool``, ``rc`` is ``None`` or an
    ``int``, ``note`` is a ``str`` and ``state`` is ``None`` or
    internable, so ``1``, ``1.0`` and ``true`` never alias and a shared
    invocation re-encodes to the same bytes.
    """
    state_key = None if state is None else _state_key(state)
    if (
        type(returned) is not bool
        or type(note) is not str
        or (rc is not None and type(rc) is not int)
        or (state_key is None and state is not None)
    ):
        return None
    global _invocation_text_chars
    key = (returned, rc, note, state_key)
    invocation = _INVOCATIONS.get(key)
    if invocation is None:
        if len(_INVOCATIONS) >= INVOCATION_MEMO_MAX:
            # The text memo may hold what is evicted here; emptying it
            # keeps its hits the objects shared_invocation hands out.
            _INVOCATION_TEXTS.clear()
            _invocation_text_chars = 0
            while len(_INVOCATIONS) >= INVOCATION_MEMO_MAX:
                _INVOCATIONS.pop(next(iter(_INVOCATIONS)), None)
        invocation = _INVOCATIONS[key] = Invocation(
            returned, rc, note, None if state_key is None else shared_state(state_key)
        )
    return invocation


def shared_invocation(
    returned: bool, rc: int | None, note: str, state: dict | None
) -> Invocation:
    """The one shared :class:`Invocation` for an outcome (built on first sight).

    Only a shareable outcome (see :func:`_shared_outcome`) is shared;
    anything else gets an invocation of its own, holding the shared
    copy of its state when that is internable (see :func:`intern_state`).
    """
    invocation = _shared_outcome(returned, rc, note, state)
    if invocation is None:
        invocation = Invocation(returned, rc, note, intern_state(state))
    return invocation


#: Shared invocation lists, keyed by the exact JSON text of a log
#: line's ``"invocations"`` array.  The two Table III logs hold 5,728
#: records but only 30 distinct array texts (289 KB in all; one of them
#: appears in 4,555 records), so log decode looks the text up here and
#: neither parses nor keys an array it has seen (see
#: :func:`repro.fault.wire.record_from_line`).  Only an array of
#: shareable invocations with exactly the four invocation keys is
#: remembered.  Bounded by count (:data:`INVOCATION_TEXT_MEMO_MAX`) and
#: total text length (:data:`INVOCATION_TEXT_MEMO_CHARS`), oldest
#: evicted first; a text longer than the length bound is decoded but
#: never remembered.
_INVOCATION_TEXTS: dict[str, tuple[Invocation, ...]] = {}
INVOCATION_TEXT_MEMO_MAX = 1024
INVOCATION_TEXT_MEMO_CHARS = 1 << 22
#: Total length of the texts in :data:`_INVOCATION_TEXTS`.
_invocation_text_chars = 0
#: Field names of :class:`Invocation`, the keys of its dict form.
INVOCATION_FIELDS = frozenset(f.name for f in fields(Invocation))


def shared_invocations(text: str) -> tuple[Invocation, ...] | None:
    """The shared invocations of a JSON invocations array, by its text.

    None when ``text`` is not a JSON array whose every element has
    exactly the four invocation keys and a shareable outcome; such an
    array is decoded the ordinary way, record by record.
    """
    global _invocation_text_chars
    invocations = _INVOCATION_TEXTS.get(text)
    if invocations is not None:
        return invocations
    try:
        items = json.loads(text)
    except ValueError:
        return None
    if type(items) is not list:
        return None
    shared = []
    for item in items:
        if type(item) is not dict or item.keys() != INVOCATION_FIELDS:
            return None
        invocation = _shared_outcome(
            item["returned"], item["rc"], item["note"], item["state"]
        )
        if invocation is None:
            return None
        shared.append(invocation)
    invocations = tuple(shared)
    if len(text) <= INVOCATION_TEXT_MEMO_CHARS:
        while _INVOCATION_TEXTS and (
            len(_INVOCATION_TEXTS) >= INVOCATION_TEXT_MEMO_MAX
            or _invocation_text_chars + len(text) > INVOCATION_TEXT_MEMO_CHARS
        ):
            oldest = next(iter(_INVOCATION_TEXTS))
            del _INVOCATION_TEXTS[oldest]
            _invocation_text_chars -= len(oldest)
        _INVOCATION_TEXTS[text] = invocations
        _invocation_text_chars += len(text)
    return invocations


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
    #: The run overran the per-test wall-clock deadline, which ended its
    #: worker process; built by the campaign supervisor, like
    #: ``worker_killed``.
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


def _read_jsonl(
    path: Path, decode: Callable[[str], object], truncate: bool = False
) -> Iterator[object]:
    """Decode a JSONL file line by line, tolerating a truncated final line.

    A crash mid-append can leave a half-written last record; readers
    drop it (with a warning) instead of refusing to load — resume must
    work in exactly the crash scenario the streaming log exists for,
    and the stream's dedup-by-id append rewrites the lost record.  With
    ``truncate`` the dropped bytes are cut from the file too, so the
    next append cannot concatenate onto them.  A line ``decode`` cannot
    parse anywhere *before* the last line is still an error, and a line
    it refuses (``ValueError``, e.g. not a JSON object) raises a
    ``ValueError`` naming the file and line.  Each value is yielded as
    soon as its line decodes, so no caller holds every line at once.
    """
    torn: json.JSONDecodeError | None = None
    offset = cut = 0
    with path.open("rb") as fh:
        for number, raw in enumerate(fh, 1):
            start, offset = offset, offset + len(raw)
            if raw.isspace():
                continue
            if torn is not None:
                raise torn  # a torn line with more lines after it
            try:
                value = decode(raw.decode("utf-8"))
            except json.JSONDecodeError as exc:
                torn, cut = exc, start
                continue
            except ValueError as exc:
                raise ValueError(f"{path}, line {number}: {exc}") from exc
            yield value
    if torn is not None:
        warnings.warn(
            f"{path}: dropping truncated final record "
            "(interrupted mid-append?)",
            stacklevel=3,
        )
        if truncate:
            os.truncate(path, cut)


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
        """Read JSONL (a truncated final line is dropped, see _read_jsonl).

        Each line is decoded into its record as it is read (through
        :func:`repro.fault.wire.record_from_line`, which decodes an
        invocations array it has seen before only once).  A stats
        trailer rehydrates ``execution_stats``; the last one wins.
        Unknown record fields from a newer writer warn once per distinct
        field set, not once per record (see
        :func:`repro.fault.wire.dedup_unknown_fields`).
        """
        from repro.fault import wire

        log = cls()
        with wire.dedup_unknown_fields():
            for item in _read_jsonl(Path(path), wire.record_from_line):
                if type(item) is dict:
                    log.execution_stats = item[STATS_KEY]
                else:
                    log.append(item)
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
            from repro.fault import wire

            # A half-written tail (a crash mid-append) is truncated
            # away — left in place, the next append would concatenate
            # onto it and corrupt a mid-file line.  Only the head of a
            # line is decoded for its test id (see wire.split_line);
            # stats trailers carry none and never dedup an append.
            for test_id in _read_jsonl(
                self.path,
                lambda line: wire.split_line(line)[0].get("test_id"),
                truncate=True,
            ):
                if test_id is not None:
                    self.existing.add(test_id)
            with self.path.open("rb") as fh:
                if fh.seek(0, os.SEEK_END):
                    fh.seek(-1, os.SEEK_END)
                    repair_newline = fh.read() != b"\n"
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
