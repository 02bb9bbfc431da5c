"""The record codec: byte-identical encoding, one decoder, shared state vectors."""

import dataclasses
import json
import math
import operator
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fault import testlog, wire
from repro.fault.campaign import Campaign
from repro.fault.testlog import (
    STATE_FIELDS,
    STATS_KEY,
    CampaignLog,
    Invocation,
    TestRecord,
    capture_state,
    intern_state,
    shared_invocation,
    shared_state,
)
from repro.xm.hm import HmEvent

from conftest import BootedSystem

#: Stateful services, so the scope's states vary from test to test.
SCOPE = ("XM_hm_seek", "XM_reset_system")

# -- strategies --------------------------------------------------------------

text = st.text(max_size=12)
ints = st.integers(min_value=-(2**40), max_value=2**40)
finite = st.floats(allow_nan=False, allow_infinity=False)
json_scalar = st.one_of(st.none(), st.booleans(), ints, finite, text)
json_value = st.recursive(
    json_scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(text, inner, max_size=3)
    ),
    max_leaves=6,
)
stream_items = st.lists(
    st.tuples(st.sampled_from(["-1", "0", "1", "2"]), st.integers(0, 9)),
    max_size=4,
    unique_by=lambda item: item[0],
).map(tuple)
state_keys = st.tuples(
    st.integers(0, 30), st.integers(0, 30), st.integers(-30, 30),
    stream_items, stream_items, st.integers(0, 1),
)


def _state_shaped(values: tuple) -> dict:
    return dict(zip(STATE_FIELDS, values))


states = st.one_of(
    st.none(),
    # interned: the shared dict capture and decode hand out
    st.builds(shared_state, state_keys),
    # plain dicts a foreign writer might log
    st.dictionaries(text, json_value, max_size=4),
    # state-shaped, but with a bool or float where an int belongs
    st.tuples(
        st.integers(0, 5), st.integers(0, 5), st.integers(0, 5),
        st.just({"0": 0}), st.just({"0": 0}),
        st.sampled_from([True, False, 1.0, 0.0]),
    ).map(_state_shaped),
)
invocations = st.builds(
    Invocation,
    # a foreign writer may log 0/1 or a float or bool where bool/int belong
    returned=st.one_of(st.booleans(), st.integers(0, 1)),
    rc=st.one_of(st.none(), ints, finite, st.booleans()),
    note=text,
    state=states,
)
records = st.builds(
    TestRecord,
    test_id=text,
    function=text,
    category=text,
    arg_labels=st.lists(text, max_size=3).map(tuple),
    resolved_args=st.lists(ints, max_size=3).map(tuple),
    invocations=st.lists(invocations, max_size=3),
    sim_crashed=st.booleans(),
    sim_hung=st.booleans(),
    kernel_halted=st.booleans(),
    halt_reason=text,
    resets=st.lists(st.tuples(text, text), max_size=2),
    hm_events=st.lists(st.tuples(text, ints, text), max_size=2),
    overruns=ints,
    test_partition_state=text,
    console_tail=st.lists(text, max_size=2),
    kernel_version=text,
    frames=ints,
    wall_time_s=finite,
    worker_killed=st.booleans(),
    watchdog_expired=st.booleans(),
    attempts=ints,
    arbitrated=st.booleans(),
    quarantined=st.booleans(),
    host_context=st.one_of(st.none(), st.dictionaries(text, json_value, max_size=3)),
)


def shareable(inv: Invocation) -> bool:
    """Whether decode hands out the shared object for ``inv``'s outcome."""
    return (
        type(inv.returned) is bool
        and (inv.rc is None or type(inv.rc) is int)
        and type(inv.note) is str
        and (inv.state is None or internable(inv.state))
    )


def internable(state: dict) -> bool:
    """Whether ``state`` is internable (a copy of it comes back shared)."""
    copy = dict(state)
    return intern_state(copy) is not copy


def saved(tmp_path, log: CampaignLog, name: str = "log.jsonl"):
    path = tmp_path / name
    log.save(path)
    return path


def rewrite_lines(path, edit) -> None:
    """Apply ``edit`` to every record line's dict (the trailer is kept)."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        data = json.loads(line)
        if STATS_KEY not in data:
            edit(data)
        lines.append(json.dumps(data) + "\n")
    path.write_text("".join(lines), encoding="utf-8")


def sample_log() -> CampaignLog:
    log = Campaign(functions=SCOPE).run().log
    assert log.execution_stats is not None
    return log


# -- encoder -----------------------------------------------------------------


class TestEncoderIdentity:
    @given(records)
    @settings(max_examples=200, deadline=None)
    def test_save_bytes_equal_json_dumps(self, tmp_path_factory, record):
        path = saved(tmp_path_factory.mktemp("enc"), CampaignLog([record]))
        assert path.read_text(encoding="utf-8") == (
            json.dumps(wire.record_to_dict(record)) + "\n"
        )

    def test_unicode_and_float_fields(self, tmp_path):
        record = TestRecord(
            test_id="tést#0",
            function="XM_☃",
            category='quote " and \\ backslash',
            invocations=[
                Invocation(True, -3, "nöte\n", shared_state((1, 0, 1, (), (), 0))),
                Invocation(False, None, "\U0001f600", None),
            ],
            wall_time_s=math.pi,
            host_context={"load": 0.5, "x": [1, "ü"]},
        )
        path = saved(tmp_path, CampaignLog([record]))
        assert path.read_text(encoding="utf-8") == json.dumps(record.to_dict()) + "\n"
        assert CampaignLog.load(path).records == [record]

    def test_saved_log_is_byte_identical_to_streamed_log(self, tmp_path):
        streamed = tmp_path / "streamed.jsonl"
        result = Campaign(functions=SCOPE).run(log_path=streamed)
        saved_path = saved(tmp_path, result.log, "saved.jsonl")
        assert saved_path.read_bytes() == streamed.read_bytes()

    def test_save_is_line_for_line_json_dumps(self, tmp_path):
        log = sample_log()
        lines = saved(tmp_path, log).read_text(encoding="utf-8").splitlines()
        expected = [json.dumps(record.to_dict()) for record in log]
        expected.append(json.dumps({STATS_KEY: log.execution_stats}))
        assert lines == expected


# -- decoder -----------------------------------------------------------------


class TestDecoderPaths:
    @given(st.lists(records, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_generated_records_round_trip(self, tmp_path_factory, generated):
        tmp = tmp_path_factory.mktemp("rt")
        path = saved(tmp, CampaignLog(generated))
        loaded = CampaignLog.load(path)
        assert loaded.records == generated
        # Equal is not enough (True == 1 == 1.0): the bytes must survive.
        assert saved(tmp, loaded, "again.jsonl").read_bytes() == path.read_bytes()
        for inv in (inv for record in loaded for inv in record.invocations):
            shared = shared_invocation(inv.returned, inv.rc, inv.note, inv.state)
            assert (shared is inv) == shareable(inv)

    def test_full_and_missing_field_lines_agree(self, tmp_path):
        log = sample_log()
        full = CampaignLog.load(saved(tmp_path, log))
        assert full.records == log.records
        assert full.execution_stats == log.execution_stats
        # A field that sits at its default may be missing (the compact
        # relay form); the records must not change.
        path = saved(tmp_path, log, "missing.jsonl")
        rewrite_lines(path, lambda data: data.pop("quarantined"))
        missing = CampaignLog.load(path)
        assert missing.records == log.records
        assert missing.execution_stats == log.execution_stats

    def test_unknown_fields_warn_once(self, tmp_path):
        log = sample_log()
        path = saved(tmp_path, log)
        rewrite_lines(path, lambda data: data.update(future_field=1))
        with pytest.warns(UserWarning, match="future_field") as caught:
            loaded = CampaignLog.load(path)
        unknown = [w for w in caught if "unrecognised" in str(w.message)]
        assert len(unknown) == 1
        assert f"from {len(log)} record(s)" in str(unknown[0].message)
        assert loaded.records == log.records

    def test_extra_invocation_keys_are_dropped(self, tmp_path):
        log = sample_log()
        path = saved(tmp_path, log)

        def extend(data):
            for inv in data["invocations"]:
                inv["future"] = True

        rewrite_lines(path, extend)
        assert CampaignLog.load(path).records == log.records

    def test_torn_final_line_is_dropped(self, tmp_path):
        log = CampaignLog(sample_log().records)  # no trailer
        path = saved(tmp_path, log)
        whole = path.read_text(encoding="utf-8")
        last = whole.splitlines()[-1]
        path.write_text(whole + last[: len(last) // 2], encoding="utf-8")
        with pytest.warns(UserWarning, match="truncated final record"):
            loaded = CampaignLog.load(path)
        assert loaded.records == log.records

    def test_torn_line_before_the_last_is_an_error(self, tmp_path):
        path = saved(tmp_path, CampaignLog(sample_log().records))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            CampaignLog.load(path)

    def test_last_of_several_trailers_wins(self, tmp_path):
        log = sample_log()
        path = saved(tmp_path, log)
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({STATS_KEY: {"retries": 7}}) + "\n")
        loaded = CampaignLog.load(path)
        assert loaded.execution_stats == {"retries": 7}
        assert loaded.records == log.records

    def test_relay_decode_interns_states(self):
        record = sample_log().records[0]
        assert record.invocations
        decoded = wire.decode_record(
            json.loads(json.dumps(wire.encode_record(record)))
        )
        assert decoded == record
        for ours, theirs in zip(decoded.invocations, record.invocations):
            assert ours.state is theirs.state


# -- interning ---------------------------------------------------------------


class TestStateInterning:
    def test_equal_kernel_states_share_one_object(self):
        first = BootedSystem()
        second = BootedSystem()
        assert capture_state(first.kernel) is capture_state(second.kernel)

    def test_different_states_get_different_objects(self):
        system = BootedSystem()
        before = capture_state(system.kernel)
        snapshot = json.dumps(before)
        system.kernel.hm.raise_event(HmEvent.PARTITION_ERROR, 1, 0)
        after = capture_state(system.kernel)
        assert after is not before
        assert after["hm_len"] == before["hm_len"] + 1
        assert json.dumps(before) == snapshot  # the shared dict never changes

    def test_loaded_states_are_shared(self, tmp_path):
        log = sample_log()
        loaded = CampaignLog.load(saved(tmp_path, log))
        states = [inv.state for record in loaded for inv in record.invocations]
        assert len({id(s) for s in states}) == len({json.dumps(s) for s in states})

    def test_only_exact_int_states_are_interned(self):
        shaped = dict(zip(STATE_FIELDS, (0, 0, 0, {}, {}, 0)))
        assert intern_state(dict(shaped)) is shared_state((0, 0, 0, (), (), 0))
        for odd in (True, 0.0):
            foreign = {**shaped, "tm_message": odd}
            assert intern_state(foreign) is foreign
        reordered = {"hm_cursor": 0, **shaped}  # same fields, other order
        assert intern_state(reordered) is reordered

    def test_memo_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(testlog, "STATE_MEMO_MAX", 8)
        early = shared_state((999, 0, 999, (), (), 0))
        for index in range(20):
            shared_state((1000 + index, 0, 1000 + index, (), (), 0))
        assert len(testlog._STATES) <= 8
        # An evicted state stays valid in the record holding it.
        assert early == {
            "hm_len": 999, "hm_cursor": 0, "hm_unread": 999,
            "trace_lens": {}, "trace_cursors": {}, "tm_message": 0,
        }

    def test_tiny_memo_changes_no_record(self, monkeypatch):
        reference = Campaign(functions=SCOPE).run().log
        monkeypatch.setattr(testlog, "_STATES", {})
        monkeypatch.setattr(testlog, "STATE_MEMO_MAX", 2)
        churned = Campaign(functions=SCOPE).run().log
        assert len(testlog._STATES) <= 2
        assert [strip_wall(r) for r in churned] == [strip_wall(r) for r in reference]

    def test_memo_bounded_across_campaigns(self):
        for version in ("3.4.0", "3.4.1"):
            Campaign(functions=SCOPE, kernel_version=version).run()
            assert len(testlog._STATES) <= testlog.STATE_MEMO_MAX

    def test_records_unchanged_under_verify_reset(self):
        plain = Campaign(functions=SCOPE).run().log
        # verify_reset re-runs every test from a full restore and raises
        # on any field that differs from the delta-reset record.
        verified = Campaign(functions=SCOPE, verify_reset=True).run().log
        assert [strip_wall(r) for r in verified] == [strip_wall(r) for r in plain]


def outcome(inv: Invocation) -> str:
    """An invocation's encoded outcome (equal only if the bytes are)."""
    return json.dumps([inv.returned, inv.rc, inv.note, inv.state])


class TestInvocationSharing:
    def test_equal_invocations_are_one_object_within_a_load(self, tmp_path):
        loaded = CampaignLog.load(saved(tmp_path, sample_log()))
        invocations = [inv for record in loaded for inv in record.invocations]
        outcomes = {outcome(inv) for inv in invocations}
        assert len({id(inv) for inv in invocations}) == len(outcomes)
        assert len(outcomes) < len(invocations)

    def test_shared_across_loads_and_kernel_versions(self, tmp_path):
        logs = {
            version: saved(
                tmp_path,
                Campaign(functions=SCOPE, kernel_version=version).run().log,
                f"{version}.jsonl",
            )
            for version in ("3.4.0", "3.4.1")
        }
        loads = [CampaignLog.load(path) for path in (*logs.values(), logs["3.4.0"])]
        seen: dict[str, Invocation] = {}
        for log in loads:
            for inv in (inv for record in log for inv in record.invocations):
                assert seen.setdefault(outcome(inv), inv) is inv
        first, second, again = (
            {id(inv) for record in log for inv in record.invocations}
            for log in loads
        )
        assert first & second  # the two kernels share outcomes
        assert first == again

    def test_shared_invocation_state_is_the_shared_state(self):
        key = (3, 1, 2, (("0", 1),), (("0", 0),), 0)
        raw = json.loads(json.dumps(shared_state(key)))
        inv = shared_invocation(True, 0, "", raw)
        assert inv is shared_invocation(True, 0, "", dict(raw))
        assert inv.state is shared_state(key)
        assert shared_invocation(True, 0, "", None) is not inv

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda inv: inv.update(returned=1), id="returned-1"),
            pytest.param(lambda inv: inv.update(rc=1.0), id="rc-1.0"),
            pytest.param(lambda inv: inv.update(rc=True), id="rc-true"),
            pytest.param(lambda inv: inv.update(future=1), id="extra-key"),
            pytest.param(
                lambda inv: inv["state"].update(tm_message=True),
                id="non-internable-state",
            ),
        ],
    )
    def test_foreign_invocations_are_not_shared(self, tmp_path, edit):
        state = {
            "hm_len": 1, "hm_cursor": 0, "hm_unread": 1,
            "trace_lens": {"0": 0}, "trace_cursors": {"0": 0}, "tm_message": 1,
        }
        plain = {"returned": True, "rc": 1, "note": "", "state": state}
        foreign = json.loads(json.dumps(plain))
        edit(foreign)
        line = {**wire.record_to_dict(TestRecord("t#0", "XM_f", "c")),
                "invocations": [foreign]}
        path = tmp_path / "foreign.jsonl"
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        (inv,) = CampaignLog.load(path).records[0].invocations
        shared = shared_invocation(True, 1, "", state)
        assert inv is not shared
        foreign.pop("future", None)  # an unknown key is dropped on decode
        expected = json.dumps({**line, "invocations": [foreign]}) + "\n"
        assert saved(tmp_path, CampaignLog.load(path), "again.jsonl").read_text(
            encoding="utf-8"
        ) == expected

    def test_memo_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(testlog, "INVOCATION_MEMO_MAX", 8)
        early = shared_invocation(True, -1, "early", None)
        for index in range(20):
            shared_invocation(True, index, "", None)
        assert len(testlog._INVOCATIONS) <= 8
        # An evicted invocation stays valid in the record holding it.
        assert early == Invocation(True, -1, "early", None)
        assert shared_invocation(True, -1, "early", None) is not early

    def test_tiny_memo_during_a_load_changes_no_record(self, tmp_path, monkeypatch):
        log = sample_log()
        path = saved(tmp_path, log)
        monkeypatch.setattr(testlog, "_INVOCATIONS", {})
        monkeypatch.setattr(testlog, "INVOCATION_MEMO_MAX", 2)
        loaded = CampaignLog.load(path)
        assert len(testlog._INVOCATIONS) <= 2
        assert loaded.records == log.records
        assert saved(tmp_path, loaded, "again.jsonl").read_bytes() == path.read_bytes()


# -- line decoder ------------------------------------------------------------

#: Texts the line decoder splits at or refuses to split across.
MARKERS = ('"invocations": [', '], "sim_crashed": ', "{", '"invocations"')
marked_text = st.lists(st.one_of(text, st.sampled_from(MARKERS)), max_size=3).map(
    "".join
)
shareable_invocations = st.builds(
    Invocation,
    returned=st.booleans(),
    rc=st.one_of(st.none(), ints),
    note=marked_text,
    state=st.one_of(st.none(), st.builds(shared_state, state_keys)),
)
line_records = st.builds(
    lambda record, invs, labels, reason, tail: dataclasses.replace(
        record, invocations=invs, arg_labels=labels, halt_reason=reason,
        console_tail=tail,
    ),
    records,
    st.lists(st.one_of(shareable_invocations, invocations), max_size=3),
    st.lists(marked_text, max_size=3).map(tuple),
    marked_text,
    st.lists(marked_text, max_size=2),
)

#: A one-invocation array unlike any the strategies draw.
OTHER_ARRAY = [{"returned": True, "rc": 77, "note": "dup", "state": None}]


def rewrites(line: str) -> dict[str, str]:
    """``line`` as other writers might lay it out, duplicate keys included."""
    data = json.loads(line)
    dup = json.dumps({"invocations": OTHER_ARRAY})
    return {
        "canonical": line,
        "compact": json.dumps(data, separators=(",", ":")),
        "sorted": json.dumps(data, sort_keys=True),
        "compact-sorted": json.dumps(data, separators=(",", ":"), sort_keys=True),
        "earlier-copy": dup[:-1] + ", " + line[1:],  # the line's own wins
        "later-copy": line[:-1] + ", " + dup[1:],  # the copy wins
        "duplicate-id": line[:-1] + ', "test_id": "dup"}',
    }


def whole_line(line: str) -> TestRecord:
    """What the line decoder must give: the whole line parsed and decoded."""
    return wire.record_from_dict(json.loads(line))


def assert_same_record(ours: TestRecord, theirs: TestRecord) -> None:
    assert ours == theirs
    # Equal is not enough (True == 1 == 1.0): the encoded form must agree.
    assert json.dumps(ours.to_dict()) == json.dumps(theirs.to_dict())
    # The whole-line decode's shared invocations, and only those, are ours.
    for mine, other in zip(ours.invocations, theirs.invocations):
        shared = shared_invocation(other.returned, other.rc, other.note, other.state)
        assert (mine is other) == (other is shared)


def record_line(record: TestRecord) -> str:
    return json.dumps(wire.record_to_dict(record))


def shareable_record(test_id: str) -> TestRecord:
    state = shared_state((1, 0, 1, (("0", 0),), (("0", 0),), 1))
    return TestRecord(
        test_id, "XM_f", "c",
        invocations=[Invocation(True, rc, "", state) for rc in (0, -3)],
    )


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty invocation and text memos, restored after the test.

    A text memo entry holds the invocation memo's objects, so a test
    that swaps the one in (as the invocation-bound tests do) leaves the
    other holding objects the restored memo does not know.
    """
    monkeypatch.setattr(testlog, "_INVOCATIONS", {})
    monkeypatch.setattr(testlog, "_INVOCATION_TEXTS", {})
    monkeypatch.setattr(testlog, "_invocation_text_chars", 0)


@pytest.mark.usefixtures("fresh_memos")
class TestLineDecoder:
    @given(st.lists(line_records, max_size=4))
    @settings(
        max_examples=100,
        deadline=None,
        # the memos may carry over from one example to the next
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_lines_decode_as_the_whole_line_does(self, tmp_path_factory, generated):
        path = saved(tmp_path_factory.mktemp("line"), CampaignLog(generated))
        lines = path.read_text(encoding="utf-8").splitlines()
        for ours, line in zip(CampaignLog.load(path).records, lines, strict=True):
            assert_same_record(ours, whole_line(line))
            for variant in rewrites(line).values():
                assert_same_record(wire.record_from_line(variant), whole_line(variant))

    @pytest.mark.parametrize("layout", list(rewrites("{}")))
    def test_rewritten_log_loads_as_its_lines(self, tmp_path, layout):
        path = saved(tmp_path, CampaignLog(sample_log().records))
        lines = [
            rewrites(line)[layout]
            for line in path.read_text(encoding="utf-8").splitlines()
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = CampaignLog.load(path).records
        for ours, line in zip(loaded, lines, strict=True):
            assert_same_record(ours, whole_line(line))

    def test_equal_array_texts_share_their_invocations(self, tmp_path):
        path = saved(
            tmp_path, CampaignLog([shareable_record("a#0"), shareable_record("a#1")])
        )
        first, second = CampaignLog.load(path).records
        assert first.invocations is not second.invocations  # each its own list
        assert all(map(operator.is_, first.invocations, second.invocations))
        assert list(testlog._INVOCATION_TEXTS.values()) == [tuple(first.invocations)]
        again = CampaignLog.load(path).records[0]
        assert all(map(operator.is_, again.invocations, first.invocations))

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda inv: inv.update(returned=1), id="returned-1"),
            pytest.param(lambda inv: inv.update(rc=1.0), id="rc-1.0"),
            pytest.param(lambda inv: inv.update(future=1), id="extra-key"),
            pytest.param(lambda inv: inv.pop("note"), id="missing-key"),
            pytest.param(
                lambda inv: inv["state"].update(tm_message=True),
                id="non-internable-state",
            ),
        ],
    )
    def test_unshareable_arrays_are_not_memoised(self, tmp_path, edit):
        data = json.loads(record_line(shareable_record("u#0")))
        edit(data["invocations"][1])
        line = json.dumps(data)
        path = tmp_path / "foreign.jsonl"
        path.write_text(f"{line}\n{line}\n", encoding="utf-8")
        first, second = CampaignLog.load(path).records
        assert testlog._INVOCATION_TEXTS == {}
        assert first.invocations[1] is not second.invocations[1]
        # The shareable neighbour is still the shared object, as today.
        assert first.invocations[0] is second.invocations[0]
        assert_same_record(first, whole_line(line))

    def test_only_json_arrays_have_shared_invocations(self):
        for text in ("{}", "5", "null", '"[]"', "[1]", "[{}]"):
            assert testlog.shared_invocations(text) is None
        assert testlog.shared_invocations("[]") == ()

    def test_nested_array_key_is_not_the_records(self):
        # No top-level invocations: the first "invocations": [ belongs to
        # a nested object, and its "], "sim_crashed": " follows right on.
        nested = {"invocations": OTHER_ARRAY, "sim_crashed": False}
        data = wire.record_to_dict(TestRecord("n#0", "XM_f", "c", host_context=nested))
        del data["invocations"]
        line = json.dumps(data)
        assert testlog.shared_invocations(json.dumps(OTHER_ARRAY)) is not None
        record = wire.record_from_line(line)
        assert record.invocations == []
        assert record.host_context == nested
        assert_same_record(record, whole_line(line))

    def test_a_record_line_with_a_stats_key_is_a_trailer(self):
        data = {**wire.record_to_dict(shareable_record("s#0")), STATS_KEY: {"x": 1}}
        line = json.dumps(data)
        wire.record_from_line(line)  # the array text is memoised now
        assert wire.record_from_line(line) == json.loads(line)

    def test_text_memo_hands_out_what_shared_invocation_does(
        self, tmp_path, monkeypatch
    ):
        path = saved(tmp_path, CampaignLog([shareable_record("e#0")]))
        CampaignLog.load(path)
        monkeypatch.setattr(testlog, "INVOCATION_MEMO_MAX", 2)
        for rc in range(5):  # evicts the record's invocations
            shared_invocation(False, rc, "churn", None)
        (record,) = CampaignLog.load(path).records
        for inv in record.invocations:
            assert inv is shared_invocation(inv.returned, inv.rc, inv.note, inv.state)

    @pytest.mark.parametrize("where", ["array", "tail"])
    def test_torn_final_line_is_dropped(self, tmp_path, where):
        head = CampaignLog(sample_log().records[:3])
        path = saved(tmp_path, head)
        CampaignLog.load(path)  # the array texts are memoised now
        last = record_line(sample_log().records[3])
        split = last.index(wire._INVOCATIONS_CLOSE)
        cut = split - 20 if where == "array" else split + 40
        with path.open("a", encoding="utf-8") as fh:
            fh.write(last[:cut])
        with pytest.warns(UserWarning, match="truncated final record"):
            assert CampaignLog.load(path).records == head.records
        with pytest.warns(UserWarning, match="truncated final record"):
            stream = CampaignLog.stream(path)
        stream.close()
        assert stream.existing == {r.test_id for r in head}
        assert path.read_bytes() == saved(tmp_path, head, "head.jsonl").read_bytes()

    @pytest.mark.parametrize("where", ["array", "tail", "corrupt-array"])
    def test_torn_line_before_the_last_is_an_error(self, tmp_path, where):
        records = sample_log().records[:3]
        path = saved(tmp_path, CampaignLog(records))
        CampaignLog.load(path)  # the array texts are memoised now
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        split = lines[1].index(wire._INVOCATIONS_CLOSE)
        if where == "corrupt-array":  # head and tail intact
            lines[1] = lines[1][: split - 3] + lines[1][split:]
        else:
            cut = split - 20 if where == "array" else split + 40
            lines[1] = lines[1][:cut] + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(json.JSONDecodeError) as whole:
            json.loads(lines[1])
        # The error is the whole line's, not that of a split of it.
        with pytest.raises(json.JSONDecodeError, match=re.escape(str(whole.value))):
            CampaignLog.load(path)
        with pytest.raises(json.JSONDecodeError, match=re.escape(str(whole.value))):
            CampaignLog.stream(path)

    def test_resume_scan_parses_no_memoised_array(self, tmp_path, monkeypatch):
        path = saved(tmp_path, sample_log())
        CampaignLog.load(path)  # the array texts are memoised now
        parsed = []
        loads = json.loads

        def spy(text, **kwargs):
            parsed.append(text)
            return loads(text, **kwargs)

        monkeypatch.setattr(json, "loads", spy)
        with CampaignLog.stream(path) as stream:
            pass
        assert len(stream.existing) == len(sample_log())
        assert parsed and not any('"returned"' in text for text in parsed)

    @pytest.mark.parametrize(
        "count, chars", [(2, 1 << 22), (1024, 1000), (1024, 200_000), (1, 10)]
    )
    def test_tiny_text_memo_during_a_load_changes_no_record(
        self, tmp_path, monkeypatch, count, chars
    ):
        log = sample_log()
        path = saved(tmp_path, log)
        monkeypatch.setattr(testlog, "INVOCATION_TEXT_MEMO_MAX", count)
        monkeypatch.setattr(testlog, "INVOCATION_TEXT_MEMO_CHARS", chars)
        loaded = CampaignLog.load(path)
        memo = testlog._INVOCATION_TEXTS
        assert len(memo) <= count
        assert sum(map(len, memo)) <= chars
        assert loaded.records == log.records
        assert saved(tmp_path, loaded, "again.jsonl").read_bytes() == path.read_bytes()


class TestSharedPlan:
    def test_kernel_versions_share_one_entry_list(self):
        vulnerable = Campaign().plan()
        fixed = Campaign(kernel_version="3.4.1").plan()
        assert fixed.entries is vulnerable.entries
        assert fixed.by_id is vulnerable.by_id
        assert fixed.groups is vulnerable.groups
        assert vulnerable.kernel_version == "3.4.0"
        assert fixed.kernel_version == "3.4.1"

    def test_analyse_with_a_shared_plan_is_unchanged(self, tmp_path):
        Campaign(functions=SCOPE).plan()  # the 3.4.0 plan is compiled first
        fixed = Campaign(functions=SCOPE, kernel_version="3.4.1")
        log = CampaignLog.load(saved(tmp_path, fixed.run().log))
        shared = fixed.analyse(log)
        unplanned = Campaign(
            functions=SCOPE, kernel_version="3.4.1", compiled_plan=False
        ).analyse(log)
        assert shared.classified == unplanned.classified
        assert shared.issues == unplanned.issues


def strip_wall(record: TestRecord) -> dict:
    data = record.to_dict()
    data.pop("wall_time_s")
    return data
