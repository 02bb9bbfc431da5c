"""Wire formats for the campaign's worker and log paths.

Everything that crosses a process or file boundary goes through this
module, so the fabric's record relay and the JSONL log path cannot
drift apart:

- **Spec codec** — :func:`spec_to_dict` / :func:`spec_from_dict`, the
  plain-dict form of a :class:`~repro.fault.mutant.TestCallSpec` (grew
  ad-hoc in the executor during PR 1; consolidated here).
- **Record codec** — :func:`record_to_dict` / :func:`record_from_dict`,
  the JSON-serialisable form of a
  :class:`~repro.fault.testlog.TestRecord`.  ``record_from_dict`` is
  the one decoder (log load and fabric ingest) and is
  forward-compatible: unknown keys (a log written by newer code) are
  dropped with a warning, missing keys take the dataclass defaults.
- **Log lines** — :func:`record_from_line` decodes one JSONL log line
  to what ``record_from_dict(json.loads(line))`` gives, but parses an
  invocations array it has seen before only once (see
  :func:`split_line`).
- **Relay codec** — :func:`encode_record` / :func:`decode_record`, the
  compact form streamed back from fabric workers: fields still at their
  defaults are omitted, which roughly halves the encoded size of a
  nominal record without changing what a decode reconstructs.  Logs on
  disk always use the full record codec.
- **Spec table** — :class:`SuiteRecipe` and :func:`build_spec_table`.
  Suite generation is pure in the campaign configuration, so instead of
  sending every spec to the workers, each worker gets the *recipe* once
  (handed over at spawn, or rebuilt from the fabric's JSON config) and
  each side derives the identical, identically-ordered spec table; a
  lease on the wire is then just a list of integer indices into that
  table (see :mod:`repro.fabric.worker`).
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Iterator

from repro.fault.apimodel import ApiFunction, ApiModel
from repro.fault.combinator import GenerationStrategy
from repro.fault.dictionaries import DictionarySet
from repro.fault.matrix import build_matrix
from repro.fault.mutant import ArgSpec, TestCallSpec, dataset_to_spec
from repro.fault.testlog import (
    INVOCATION_FIELDS,
    STATS_KEY,
    Invocation,
    TestRecord,
    intern_state,
    shared_invocation,
    shared_invocations,
)

# -- spec codec --------------------------------------------------------------


def spec_to_dict(spec: TestCallSpec) -> dict:
    """Picklable plain-dict form of a spec."""
    return {
        "test_id": spec.test_id,
        "function": spec.function,
        "category": spec.category,
        "args": [
            {
                "param": a.param,
                "label": a.label,
                "value": a.value,
                "symbol": a.symbol,
            }
            for a in spec.args
        ],
    }


def spec_from_dict(spec_dict: dict) -> TestCallSpec:
    """Rebuild a spec from its :func:`spec_to_dict` form."""
    return TestCallSpec(
        test_id=spec_dict["test_id"],
        function=spec_dict["function"],
        category=spec_dict["category"],
        args=tuple(ArgSpec(**arg) for arg in spec_dict["args"]),
    )


# -- record codec ------------------------------------------------------------


def record_to_dict(record: TestRecord) -> dict:
    """JSON-serialisable form of a record (the log path's format).

    Built by hand rather than ``dataclasses.asdict``: asdict deep-copies
    recursively and costs ~150us per record, which at campaign rates is
    a measurable slice of the whole execution; this is the hot half of
    both the streamed log and the relay encoder.
    """
    return {
        "test_id": record.test_id,
        "function": record.function,
        "category": record.category,
        "arg_labels": list(record.arg_labels),
        "resolved_args": list(record.resolved_args),
        "invocations": [
            {
                "returned": inv.returned,
                "rc": inv.rc,
                "note": inv.note,
                "state": inv.state,
            }
            for inv in record.invocations
        ],
        "sim_crashed": record.sim_crashed,
        "sim_hung": record.sim_hung,
        "kernel_halted": record.kernel_halted,
        "halt_reason": record.halt_reason,
        "resets": list(record.resets),
        "hm_events": list(record.hm_events),
        "overruns": record.overruns,
        "test_partition_state": record.test_partition_state,
        "console_tail": list(record.console_tail),
        "kernel_version": record.kernel_version,
        "frames": record.frames,
        "wall_time_s": record.wall_time_s,
        "worker_killed": record.worker_killed,
        "watchdog_expired": record.watchdog_expired,
        "attempts": record.attempts,
        "arbitrated": record.arbitrated,
        "quarantined": record.quarantined,
        "host_context": record.host_context,
    }


#: Field names of the current record dataclass, computed once:
#: ``record_from_dict`` sits on the relay and fabric hot paths (one call
#: per streamed record), where rebuilding this set (and the invocation
#: one, ``testlog.INVOCATION_FIELDS``) per call was a measurable slice
#: of the parent/coordinator's per-record cost.
_RECORD_FIELDS = frozenset(f.name for f in fields(TestRecord))

#: Active unknown-field collectors (see :func:`dedup_unknown_fields`):
#: a stack so nested loads each aggregate their own warning tally.
_UNKNOWN_COLLECTORS: list[dict[tuple[str, ...], int]] = []


@contextmanager
def dedup_unknown_fields() -> Iterator[None]:
    """Aggregate unknown-field warnings across one bulk load.

    Inside this context :func:`record_from_dict` counts records per
    distinct unknown-field set instead of warning on each one — a
    100k-record log written by newer code would otherwise emit 100k
    identical warnings under ``-W always``.  On exit, one warning per
    distinct field set reports the affected record count.
    """
    tally: dict[tuple[str, ...], int] = {}
    _UNKNOWN_COLLECTORS.append(tally)
    try:
        yield
    finally:
        _UNKNOWN_COLLECTORS.pop()
        for unknown, count in tally.items():
            warnings.warn(
                f"TestRecord.from_dict: dropped unrecognised fields "
                f"{list(unknown)} from {count} record(s) "
                "(log written by newer code?)",
                stacklevel=3,
            )


def record_from_dict(data: dict) -> TestRecord:
    """Inverse of :func:`record_to_dict` — the one record decoder.

    Log load and fabric ingest both decode through here.
    Keys this version does not know (a log written by newer code) are
    dropped with a warning rather than crashing the load, so old
    analysers keep working on forward-compatible logs; missing keys
    (the compact relay form) take the dataclass defaults.  Under an
    active :func:`dedup_unknown_fields` context the per-record warning
    is replaced by one aggregate warning per distinct field set.  An
    invocation with exactly the four invocation keys is the shared
    object for its outcome (see
    :func:`~repro.fault.testlog.shared_invocation`); one of another
    shape is built field by field, with the shared copy of its state
    vector (see :func:`~repro.fault.testlog.intern_state`).
    """
    known = _RECORD_FIELDS
    if not known.issuperset(data):
        unknown = sorted(set(data) - known)
        if _UNKNOWN_COLLECTORS:
            tally = _UNKNOWN_COLLECTORS[-1]
            key = tuple(unknown)
            tally[key] = tally.get(key, 0) + 1
        else:
            warnings.warn(
                f"TestRecord.from_dict: dropping unrecognised fields {unknown}"
                " (log written by newer code?)",
                stacklevel=2,
            )
        data = {key: value for key, value in data.items() if key in known}
    else:
        data = dict(data)
    data["arg_labels"] = tuple(data.get("arg_labels", ()))
    data["resolved_args"] = tuple(data.get("resolved_args", ()))
    inv_known = INVOCATION_FIELDS
    invocations = []
    for inv in data.get("invocations", []):
        if inv.keys() == inv_known:
            invocations.append(
                shared_invocation(
                    inv["returned"], inv["rc"], inv["note"], inv["state"]
                )
            )
            continue
        # Another shape (extra or missing keys): field by field.
        kwargs = {k: v for k, v in inv.items() if k in inv_known}
        if "state" in kwargs:
            kwargs["state"] = intern_state(kwargs["state"])
        invocations.append(Invocation(**kwargs))
    data["invocations"] = invocations
    data["resets"] = [tuple(r) for r in data.get("resets", [])]
    data["hm_events"] = [tuple(e) for e in data.get("hm_events", [])]
    return TestRecord(**data)


#: Where a canonical log line's invocations array starts and ends:
#: ``record_to_dict`` puts ``"invocations"`` right before
#: ``"sim_crashed"`` and ``json.dumps`` separates with ``", "`` and
#: ``": "``.  Neither text can occur inside a JSON string (its quotes
#: would be escaped), only as keys.
_INVOCATIONS_OPEN = '"invocations": ['
_INVOCATIONS_CLOSE = '], "sim_crashed": '


def split_line(line: str) -> tuple[dict, tuple[Invocation, ...] | None]:
    """A log line's JSON object, parsed without a known invocations array.

    On a canonical record line whose invocations array is memoised (see
    :func:`~repro.fault.testlog.shared_invocations`), the object is
    parsed with ``"invocations": []`` in the array's place and comes
    back with the array's shared invocations; the array itself is
    neither parsed nor keyed again.  That path is taken only where it
    gives what ``json.loads(line)`` gives: the array key is top-level
    (no ``{`` before it but the line's first), its text parses as a
    list of shareable invocations, no second ``"invocations"`` key
    follows and the line is not a stats trailer.  Any other line is
    parsed whole and comes back with ``None``.  Raises
    ``json.JSONDecodeError`` for a line that does not parse and
    ``ValueError`` for one that is not a JSON object.
    """
    start = line.find(_INVOCATIONS_OPEN)
    if start > 0 and line.find("{", 1, start) < 0:
        cut = start + len(_INVOCATIONS_OPEN) - 1
        end = line.find(_INVOCATIONS_CLOSE, cut)
        if end > 0 and line.find('"invocations"', end) < 0:
            invocations = shared_invocations(line[cut:end + 1])
            if invocations is not None:
                try:
                    data = json.loads(line[:cut] + "[]" + line[end + 1:])
                except json.JSONDecodeError:
                    data = None
                if data is not None and STATS_KEY not in data:
                    return data, invocations
    data = json.loads(line)
    if type(data) is not dict:
        raise ValueError(
            f"a log line must be a JSON object, not {type(data).__name__}"
        )
    return data, None


def record_from_line(line: str) -> TestRecord | dict:
    """Decode one JSONL log line: its record, or a stats trailer's object.

    The record equals ``record_from_dict(json.loads(line))``, unknown
    fields, defaults and warnings included; on the memoised path (see
    :func:`split_line`) it gets its own list of the shared invocations.
    A line holding :data:`~repro.fault.testlog.STATS_KEY` is no record
    and comes back as its parsed object.
    """
    data, invocations = split_line(line)
    if STATS_KEY in data:
        return data
    record = record_from_dict(data)
    if invocations is not None:
        record.invocations = list(invocations)
    return record


#: Default field values of a record's dict form, used to sparsify the
#: relay encoding (computed once, lazily — TestRecord requires the three
#: identity fields, which never match a real record's values).
_RECORD_DEFAULTS: dict | None = None


def _record_defaults() -> dict:
    """Dict form of an all-defaults record."""
    global _RECORD_DEFAULTS
    if _RECORD_DEFAULTS is None:
        _RECORD_DEFAULTS = record_to_dict(
            TestRecord(test_id="", function="", category="")
        )
    return _RECORD_DEFAULTS


def encode_record(record: TestRecord) -> dict:
    """Compact relay form: fields still at their defaults are omitted.

    A nominal record is mostly defaults (no crash, no resets, no HM
    events), so dropping them roughly halves what a fabric worker sends
    back per test.  :func:`decode_record` restores the defaults, making
    the round trip lossless; the on-disk log format is unaffected.
    """
    from repro.fault import failpoints

    failpoints.fire("wire.encode")
    defaults = _record_defaults()
    data = record_to_dict(record)
    return {
        key: value
        for key, value in data.items()
        if key in ("test_id", "function", "category") or value != defaults[key]
    }


def decode_record(data: dict) -> TestRecord:
    """Rebuild a record from its :func:`encode_record` relay form."""
    from repro.fault import failpoints

    failpoints.fire("wire.decode")
    return record_from_dict(data)


# -- deterministic spec table ------------------------------------------------


def scoped_functions(
    model: ApiModel, functions: tuple[str, ...] | None
) -> list[ApiFunction]:
    """The in-scope (tested) hypercalls, optionally filtered by name."""
    tested = model.tested_functions()
    if functions is None:
        return tested
    wanted = set(functions)
    return [fn for fn in tested if fn.name in wanted]


#: ``generate_suites`` memo.  Expansion is pure in its inputs, so the
#: result is shared process-wide: repeated campaigns over the same model
#: (every suite of a compiled run, every bench trial) skip the matrix
#: expansion entirely.  Keys compare the model/dictionaries/strategy by
#: *identity* — the entry pins them alive, so a dead object's id can
#: never alias a new one — and specs are frozen, so sharing is safe.
_SUITE_MEMO: list[tuple] = []
_SUITE_MEMO_MAX = 8


def generate_suites(
    model: ApiModel,
    dictionaries: DictionarySet,
    strategy: GenerationStrategy,
    functions: tuple[str, ...] | None,
) -> list[tuple[ApiFunction, list[TestCallSpec]]]:
    """Expand every in-scope hypercall into its specs (Fig. 4 steps 1-3).

    This is the single source of truth for suite *ordering*: the
    campaign and every fabric worker derive their spec tables from it, so
    an index on the wire means the same spec on both sides.  The result
    is memoized and shared — treat it as immutable.
    """
    for memo_model, memo_dicts, memo_strategy, memo_functions, out in _SUITE_MEMO:
        if (
            memo_model is model
            and memo_dicts is dictionaries
            and memo_strategy is strategy
            and memo_functions == functions
        ):
            return out
    out: list[tuple[ApiFunction, list[TestCallSpec]]] = []
    for function in scoped_functions(model, functions):
        matrix = build_matrix(function, dictionaries)
        specs = [
            dataset_to_spec(function, dataset, index)
            for index, dataset in enumerate(strategy.generate(matrix))
        ]
        out.append((function, specs))
    _SUITE_MEMO.append((model, dictionaries, strategy, functions, out))
    if len(_SUITE_MEMO) > _SUITE_MEMO_MAX:
        del _SUITE_MEMO[0]
    return out


@dataclass(frozen=True)
class SuiteRecipe:
    """Everything a worker needs to rebuild the campaign's specs.

    Handed to each loopback worker when it is spawned (remote agents
    rebuild it from the fabric config); ``total`` lets the worker verify
    its locally generated table against the parent's before any index
    is trusted.
    """

    model: ApiModel
    dictionaries: DictionarySet
    strategy: GenerationStrategy
    functions: tuple[str, ...] | None
    total: int


def build_spec_table(recipe: SuiteRecipe) -> list[TestCallSpec]:
    """Regenerate the flat, suite-ordered spec table from a recipe.

    Raises ``RuntimeError`` when the regenerated table's size disagrees
    with the parent's — a drifted recipe must fail loudly rather than
    let wire indices silently address the wrong specs.
    """
    table = [
        spec
        for _function, specs in generate_suites(
            recipe.model, recipe.dictionaries, recipe.strategy, recipe.functions
        )
        for spec in specs
    ]
    if len(table) != recipe.total:
        raise RuntimeError(
            f"spec table mismatch: worker regenerated {len(table)} specs, "
            f"parent campaign has {recipe.total}"
        )
    return table
