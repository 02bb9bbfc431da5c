"""Performance — test execution, serial vs process-parallel.

Tests are independent, so the campaign is embarrassingly parallel (the
paper parallelised with shell scripts over TSIM runs).  ``processes=N``
runs N loopback fabric workers; each is persistent, builds its
warm-boot snapshot once and then only restores per test.  Benchmarks
one test execution, a serial sub-campaign, and the same sub-campaign on
4 workers, asserting identical outcomes; parallel throughput is
recorded into ``BENCH_campaign.json`` alongside bench_warm_boot's
serial numbers.
"""

import os
import time

import pytest

from conftest import record_bench
from repro.fault.campaign import Campaign
from repro.fault.executor import TestExecutor
from repro.fault.mutant import ArgSpec, TestCallSpec

#: A mid-sized scope: 236-ish tests, a few seconds serial.
SCOPE = ("XM_reset_partition", "XM_get_partition_status", "XM_halt_partition")


def test_single_test_execution_benchmark(benchmark):
    """Boot + 2 major frames + observation for one nominal test."""
    spec = TestCallSpec(
        "bench#0",
        "XM_mask_irq",
        "Interrupt Management",
        (ArgSpec("irqLine", "1", value=1),),
    )
    executor = TestExecutor()
    record = benchmark(executor.run, spec)
    assert record.first_rc == 0


def test_serial_campaign_benchmark(benchmark):
    campaign = Campaign(functions=SCOPE)
    result = benchmark.pedantic(campaign.run, rounds=2, iterations=1)
    assert result.total_tests == 232
    assert result.issue_count() == 0


@pytest.mark.skipif(os.cpu_count() is None or os.cpu_count() < 2,
                    reason="needs >= 2 CPUs")
def test_parallel_campaign_benchmark(benchmark):
    campaign = Campaign(functions=SCOPE)

    def run_parallel():
        return campaign.run(processes=4)

    result = benchmark.pedantic(run_parallel, rounds=2, iterations=1)
    assert result.total_tests == 232
    assert result.issue_count() == 0


def test_parallel_throughput_recorded():
    """Timed parallel warm runs (best of 2) into BENCH_campaign.json.

    Workers are capped at the host CPU count: 4 workers on a
    1-CPU box measures oversubscription overhead, and a recorded
    throughput figure from such a host would be misread as a scaling
    result.  The worker count actually used is recorded beside the
    figure (host_cpus is stamped on every section automatically).
    """
    workers = min(4, os.cpu_count() or 1)
    campaign = Campaign(functions=SCOPE)
    best = None
    for _ in range(2):
        start = time.perf_counter()
        result = campaign.run(processes=workers)
        elapsed = time.perf_counter() - start
        assert result.total_tests == 232
        best = elapsed if best is None else min(best, elapsed)
    record_bench(
        "campaign_throughput",
        parallel_workers=workers,
        parallel_warm_tests_per_s=round(232 / best, 1),
    )


def test_parallel_equals_serial_outcomes():
    campaign = Campaign(functions=("XM_set_timer",))
    serial = campaign.run()
    parallel = campaign.run(processes=4)
    key = lambda r: (r.test_id, r.first_rc, r.never_returned, r.sim_crashed)  # noqa: E731
    assert sorted(map(key, serial.log)) == sorted(map(key, parallel.log))
