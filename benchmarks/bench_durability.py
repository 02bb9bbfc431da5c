"""Durability overhead: streaming checkpoints and worker supervision.

The streaming log flushes every record as it arrives and the supervised
parallel runner (``processes=N``, loopback fabric workers) relays
records back in batches as they finish; both must stay in the noise
next to test execution itself.  Measures a scoped campaign
with and without a streamed log, and a supervised parallel run that
absorbs one injected worker kill, recording the costs into
``BENCH_campaign.json``.
"""

import os
import time

from conftest import record_bench
from repro.fabric.worker import KILL_SPEC_ENV
from repro.fault.campaign import Campaign
from repro.fault.testlog import CampaignLog

#: Mid-sized scope, a few seconds serial.
SCOPE = ("XM_reset_partition", "XM_get_partition_status", "XM_halt_partition")


def test_streaming_log_overhead(tmp_path):
    campaign = Campaign(functions=SCOPE)
    campaign.run()  # warm-up: snapshot build stays out of both timings
    plain_s = streamed_s = None
    for round_no in range(2):  # best of 2: single runs are noisy
        start = time.perf_counter()
        plain = campaign.run()
        elapsed = time.perf_counter() - start
        plain_s = elapsed if plain_s is None else min(plain_s, elapsed)

        path = tmp_path / f"stream{round_no}.jsonl"
        start = time.perf_counter()
        streamed = campaign.run(log_path=path)
        elapsed = time.perf_counter() - start
        streamed_s = elapsed if streamed_s is None else min(streamed_s, elapsed)

        assert streamed.total_tests == plain.total_tests == 232
        assert len(CampaignLog.load(path)) == 232
    record_bench(
        "durability",
        serial_tests=plain.total_tests,
        serial_s=round(plain_s, 2),
        serial_streamed_s=round(streamed_s, 2),
        streaming_overhead_pct=round(100 * (streamed_s - plain_s) / plain_s, 1),
    )


def test_fsync_checkpoint_overhead(tmp_path):
    """``--log-fsync`` extends durability from process crashes to host
    power loss at the price of one disk sync per checkpoint; the delta
    against the flush-only stream is what that claim costs."""
    campaign = Campaign(functions=SCOPE)
    campaign.run()  # warm-up: snapshot build stays out of both timings
    flushed_s = synced_s = None
    for round_no in range(2):  # best of 2: single runs are noisy
        start = time.perf_counter()
        flushed = campaign.run(log_path=tmp_path / f"flush{round_no}.jsonl")
        elapsed = time.perf_counter() - start
        flushed_s = elapsed if flushed_s is None else min(flushed_s, elapsed)

        path = tmp_path / f"fsync{round_no}.jsonl"
        start = time.perf_counter()
        synced = campaign.run(log_path=path, log_fsync=True)
        elapsed = time.perf_counter() - start
        synced_s = elapsed if synced_s is None else min(synced_s, elapsed)

        assert synced.total_tests == flushed.total_tests == 232
        assert len(CampaignLog.load(path)) == 232
    record_bench(
        "durability",
        streamed_flush_s=round(flushed_s, 2),
        streamed_fsync_s=round(synced_s, 2),
        fsync_overhead_pct=round(100 * (synced_s - flushed_s) / flushed_s, 1),
    )


def test_supervised_kill_recovery_cost(tmp_path, monkeypatch):
    """A parallel run that loses a worker mid-campaign still finishes;
    the respawn + probe cost of absorbing one kill is the measured
    delta."""
    campaign = Campaign(functions=("XM_reset_system", "XM_switch_sched_plan"))
    victim = [
        s for s in campaign.iter_specs() if s.function == "XM_switch_sched_plan"
    ][0]

    clean_s = survived_s = None
    for round_no in range(2):  # best of 2: single runs are noisy
        monkeypatch.delenv(KILL_SPEC_ENV, raising=False)
        start = time.perf_counter()
        clean = campaign.run(processes=2)
        elapsed = time.perf_counter() - start
        clean_s = elapsed if clean_s is None else min(clean_s, elapsed)

        monkeypatch.setenv(KILL_SPEC_ENV, victim.test_id)
        start = time.perf_counter()
        survived = campaign.run(
            processes=2, log_path=tmp_path / f"killed{round_no}.jsonl"
        )
        elapsed = time.perf_counter() - start
        survived_s = elapsed if survived_s is None else min(survived_s, elapsed)

        assert survived.total_tests == clean.total_tests
        assert sum(1 for r in survived.log if r.worker_killed) == 1
    record_bench(
        "durability",
        parallel_clean_s=round(clean_s, 2),
        parallel_one_kill_s=round(survived_s, 2),
        kill_recovery_cost_s=round(survived_s - clean_s, 2),
    )
