"""One identity matrix: every executor reproduces the serial records.

The campaign has two executors behind one session — serial in-process,
and the fabric (``processes=N`` is ``coordinate(workers=N)``).  Each
cell runs the paper's three finding-bearing hypercalls either
uninterrupted or interrupted by the progress hook and resumed from the
streamed log, and must produce the serial uninterrupted record stream
field for field, apart from the per-run ``wall_time_s`` and
``host_context`` provenance.  A wall-clock deadline (``timeout_s``)
runs on worker processes whichever way it is asked for, and a test that
hangs once under it is re-run to the same records.
"""

import multiprocessing

import pytest
from conftest import HANG_BUDGET_S

from repro.fabric import coordinate
from repro.fabric.worker import FAULT_ONCE_DIR_ENV, HANG_SPEC_ENV
from repro.fault.campaign import Campaign
from repro.fault.masking import masked_issue_comparison
from repro.fault.testlog import CampaignLog

#: The three hypercalls carrying the paper's findings: 62 tests, 9 issues.
TRIO = ("XM_reset_system", "XM_set_timer", "XM_multicall")

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel execution requires the fork start method",
)

EXECUTORS = {
    "serial": lambda campaign, **kw: campaign.run(**kw),
    "processes=1": lambda campaign, **kw: campaign.run(processes=1, **kw),
    "processes=2": lambda campaign, **kw: campaign.run(processes=2, **kw),
    "coordinate(workers=2)": lambda campaign, **kw: coordinate(
        campaign, workers=2, **kw
    ),
}


def strip(record):
    data = record.to_dict()
    data.pop("wall_time_s")
    data.pop("host_context")
    return data


def stream(result):
    return [strip(record) for record in result.log]


@pytest.fixture(scope="module")
def reference():
    return stream(Campaign(functions=TRIO).run())


@needs_fork
@pytest.mark.parametrize("mode", ["uninterrupted", "interrupted-resumed"])
@pytest.mark.parametrize("executor", list(EXECUTORS))
def test_records_equal_serial(executor, mode, reference, tmp_path):
    run = EXECUTORS[executor]
    campaign = Campaign(functions=TRIO)
    if mode == "uninterrupted":
        result = run(campaign)
    else:
        path = tmp_path / "campaign.jsonl"

        def interrupt(done, total, record):
            if done == 15:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run(campaign, progress=interrupt, log_path=path)
        partial = CampaignLog.load(path)
        assert 1 <= len(partial) < len(reference)
        result = run(campaign, resume_from=partial, log_path=path)
        assert len(CampaignLog.load(path)) == len(reference)
    assert stream(result) == reference
    assert result.issue_count() == 9


@needs_fork
def test_custom_dictionaries_run_in_parallel():
    functions = ("XM_reset_system", "XM_set_timer")
    serial = masked_issue_comparison(functions=functions)
    parallel = masked_issue_comparison(functions=functions, processes=2)
    assert stream(parallel.full_result) == stream(serial.full_result)
    assert stream(parallel.stripped_result) == stream(serial.stripped_result)
    assert parallel.masked_issue_ids == serial.masked_issue_ids


@needs_fork
@pytest.mark.parametrize(
    "processes", [None, 2], ids=["timeout_s", "processes=2-timeout_s"]
)
def test_one_shot_hang_records_equal_serial(
    processes, reference, tmp_path, monkeypatch
):
    campaign = Campaign(functions=TRIO)
    # The first spec heads its lease, so no thief steals it from the
    # hung worker: its retry always follows the deadline observation.
    victim = next(iter(campaign.iter_specs())).test_id
    monkeypatch.setenv(HANG_SPEC_ENV, victim)
    monkeypatch.setenv(FAULT_ONCE_DIR_ENV, str(tmp_path))
    result = campaign.run(processes=processes, timeout_s=HANG_BUDGET_S)

    def unarbitrated(data):
        return {k: v for k, v in data.items() if k not in ("attempts", "arbitrated")}

    assert [unarbitrated(d) for d in stream(result)] == [
        unarbitrated(d) for d in reference
    ]
    record = next(r for r in result.log if r.test_id == victim)
    assert (record.attempts, record.arbitrated) == (2, True)
    assert result.execution_stats["retries"] == 1
