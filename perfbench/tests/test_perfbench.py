"""Self-tests of the campaign benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from proctree import become_subreaper, run_tree  # noqa: E402
from reference import Reference, check_claims, read_records, record_digest  # noqa: E402
from spans import Tracer, breakdown, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# -- metric names and BENCHMARK.json ----------------------------------------


def test_metric_names_and_units_are_valid_and_unique():
    names = [m[0] for m in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, better, *_ in run.END_TO_END + run.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("lower", "higher")
    for name in run.WORKLOADS:
        assert NAME.fullmatch(name)
    assert set(run.SPAN_METRIC.values()) <= set(names)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in run.END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b, *_ in run.PER_LAYER
    ]
    kept = [w for w in run.WORKLOADS.values() if w.name not in run.DROPPED]
    assert spec["workloads"] == [{"name": w.name, "why": w.why} for w in kept]
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


# -- reference check ---------------------------------------------------------


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    """A real 32-test campaign log and a reference built from it."""
    from repro.fault.campaign import Campaign
    from repro.fault.testlog import TestRecord
    from repro.results.schema import verdict_of

    path = tmp_path_factory.mktemp("log") / "timer.jsonl"
    Campaign(functions=("XM_set_timer",)).run(log_path=path)
    records = read_records(path)
    ref = Reference("3.4.0", {
        r["test_id"]: (record_digest(r), verdict_of(TestRecord.from_dict(r)))
        for r in records
    })
    return path, ref


def test_reference_accepts_the_log_it_was_built_from(small_log):
    path, ref = small_log
    check = ref.check_records(read_records(path))
    assert (check.attempted, check.matched, check.mismatched) == (32, 32, [])
    assert not check.wrong


def test_reference_rejects_one_flipped_verdict(small_log, tmp_path):
    path, ref = small_log
    lines = path.read_text().splitlines()
    index = next(
        i for i, line in enumerate(lines)
        if json.loads(line).get("invocations")
    )
    record = json.loads(lines[index])
    record["invocations"][0]["rc"] = 12345  # a return code nothing returns
    lines[index] = json.dumps(record)
    flipped = tmp_path / "flipped.jsonl"
    flipped.write_text("\n".join(lines) + "\n")

    check = ref.check_records(read_records(flipped))
    assert check.mismatched == [record["test_id"]]
    assert check.failed == 1 and check.wrong

    verdicts = {tid: verdict for tid, (_d, verdict) in ref.specs.items()}
    verdicts[record["test_id"]] = "rc:12345"
    assert ref.check_verdicts(verdicts).mismatched == [record["test_id"]]


def test_volatile_fields_do_not_change_the_digest():
    record = {"test_id": "t#0", "rc": 0, "wall_time_s": 0.1, "host_context": None}
    other = {**record, "wall_time_s": 9.9, "host_context": {"fabric_worker": "w"}}
    assert record_digest(record) == record_digest(other)
    assert record_digest(record) != record_digest({**record, "rc": 1})


def test_torn_tail_counts_as_missing_not_wrong(small_log, tmp_path):
    path, ref = small_log
    text = path.read_text()
    torn = tmp_path / "torn.jsonl"
    torn.write_text(text[: len(text) // 2])  # a stream cut mid-record
    check = ref.check_records(read_records(torn))
    assert not check.mismatched and check.missing
    assert check.matched + len(check.missing) == 32


def test_paper_claims():
    nine = [f"XM-{g}-{n}" for g in ("RS", "ST", "MC") for n in (1, 2, 3)]
    assert check_claims("3.4.0", 2864, nine) == []
    assert check_claims("3.4.0", 2864, nine[:-1])
    assert check_claims("3.4.0", 2864, [*nine, None])
    assert check_claims("3.4.1", 2864, []) == []
    assert check_claims("3.4.1", 2864, ["XM-RS-1"])
    assert check_claims("3.4.1", 2863, [])


# -- deadline ----------------------------------------------------------------


def test_deadline_kills_a_stalled_child_tree(tmp_path):
    become_subreaper()
    pids = tmp_path / "pids"
    script = textwrap.dedent(f"""
        import os, time
        child = os.fork()
        if child == 0:
            time.sleep(120)
            os._exit(0)
        open({str(pids)!r}, "w").write(f"{{os.getpid()}} {{child}}")
        time.sleep(120)
    """)
    started = time.monotonic()
    tree = run_tree([sys.executable, "-c", script], deadline_s=1.0)
    assert tree.deadline_hit
    assert time.monotonic() - started < 15
    assert tree.returncode < 0
    for pid in map(int, pids.read_text().split()):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    assert len(tree.peaks_kb) == 2  # both processes were sampled


def test_finished_tree_reports_cpu_and_rss():
    tree = run_tree(
        [sys.executable, "-c", "sum(i * i for i in range(2_000_000))"],
        deadline_s=60,
    )
    assert tree.returncode == 0 and not tree.deadline_hit
    assert tree.cpu_s > 0 and tree.peak_rss_mb(root_self_kb=1000) > 0


# -- traced breakdown --------------------------------------------------------


def test_self_times_subtract_children():
    spans = [
        {"id": 0, "name": "outer", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "inner", "start": 1.0, "end": 4.0, "parent": 0},
        {"id": 2, "name": "inner", "start": 5.0, "end": 6.0, "parent": 0},
        {"id": 3, "name": "leaf", "start": 1.5, "end": 2.0, "parent": 1},
        {"id": 4, "name": "hot", "duration": 2.0, "parent": 0, "aggregate": True},
    ]
    assert self_times(spans) == {"outer": 4.0, "inner": 3.5, "leaf": 0.5, "hot": 2.0}
    layers, unattributed = breakdown(spans, wall_s=10.25)
    assert unattributed == pytest.approx(0.25)
    assert sum(layers.values()) + unattributed == pytest.approx(10.25)


def test_traced_sum_plus_unattributed_equals_wall():
    tracer = Tracer(True)
    started = time.monotonic()
    with tracer.span("a"):
        time.sleep(0.02)
        hot = tracer.timed("hot", time.sleep)
        for _ in range(3):
            hot(0.005)
        with tracer.span("b"):
            time.sleep(0.01)
    time.sleep(0.01)  # outside every span: lands in unattributed_s
    wall = time.monotonic() - started
    layers, unattributed = breakdown(tracer.export(), wall)
    assert sum(layers.values()) + unattributed == pytest.approx(wall)
    assert layers["hot"] >= 0.015 and layers["b"] >= 0.01
    assert unattributed >= 0.01


def test_layer_metrics_add_up_to_the_traced_wall():
    from reference import Check

    def sample(traced, wall, spans=()):
        facts = {
            "t_main": 100.05, "t_first": 100.4, "t_run": 100.3, "t_end": 100.0 + wall,
            "spans": list(spans), "arrivals": [100.4, 100.5, 100.7],
            "records": 3, "tests": 3, "plan_entries": 3, "log_bytes": 10,
            "stats": {"reset_modes": {"delta": 2, "restore": 1}},
        }
        return run.Sample("paper_serial", traced, wall, 0.4, 1.0, 1.0, 1.0,
                          Check(attempted=3, matched=3), False, facts, spawn=100.0)

    spans = [
        {"id": 0, "name": "import", "start": 100.05, "end": 100.2, "parent": None},
        {"id": 1, "name": "fault.executor", "start": 100.3, "end": 101.0, "parent": None},
        {"id": 2, "name": "fault.analysis", "start": 100.8, "end": 100.9, "parent": 1},
        {"id": 3, "name": "fault.testlog.stream", "duration": 0.05, "parent": 1},
    ]
    samples = [sample(False, 1.0), sample(True, 1.1, spans), sample(False, 1.2)]
    metrics, _detail = run.layer_metrics(samples)
    assert metrics["layers.sum_s"] + metrics["unattributed_s"] == pytest.approx(
        metrics["trace.wall_s"]
    )
    assert metrics["python.start_s"] == pytest.approx(0.05)
    assert metrics["executor.busy_s"] == pytest.approx(0.55)
    assert metrics["unattributed_s"] == pytest.approx(1.1 - 0.05 - 0.15 - 0.55 - 0.1 - 0.05)
    assert metrics["trace.overhead_s"] == pytest.approx(1.1 - 1.0)
    assert metrics["executor.test_ms_p50"] == pytest.approx(100.0)
    assert metrics["executor.delta_share"] == pytest.approx(2 / 3)
    assert {name for name, *_ in run.PER_LAYER} == set(metrics)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(False)
    with tracer.span("a"):
        pass
    fn = tracer.timed("hot", len)
    assert fn is len and tracer.export() == []


# -- the command -------------------------------------------------------------


def test_command_fails_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_serial",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
