"""Performance — distributed campaign fabric (socket coordinator).

A parallel path that relays one record per message was once measured at
0.48x serial with one worker: per-record relay pumping cost more than
the tests.  The fabric ships records in batched frames, so its loopback
single-worker path must land within 10% of serial throughput — that is
this bench's gate.

Throughput is measured over the **execute window**: the wall time from
the first record's arrival to the last.  Worker bringup (fork, spec
table regeneration, plan compilation, warm-boot snapshot) is a
campaign-size-independent constant that the window excludes, exactly as
the serial figures exclude interpreter startup.  Ratios are *paired* —
serial and fabric trials alternate so both sides of each ratio share a
host window (see bench_compiled.py for why unpaired best-ofs lie).

Scaling points that would oversubscribe the host (workers > cpus) are
skipped and stamped, not recorded: a 4-worker figure from a 1-CPU host
measures the scheduler, not the fabric.
"""

import os
import statistics
import time

import multiprocessing

import pytest
from conftest import record_bench

from repro.fabric import coordinate
from repro.fabric.worker import FAULT_ONCE_DIR_ENV, KILL_SPEC_ENV
from repro.fault.campaign import Campaign

#: Same mid-sized scope as bench_warm_boot / bench_compiled (232 tests).
SCOPE = ("XM_reset_partition", "XM_get_partition_status", "XM_halt_partition")

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

TRIALS = 2 if QUICK else 5

#: The gate: loopback fabric at one worker keeps at least this fraction
#: of serial throughput in the cleanest paired window.  Quick mode (CI
#: perf smoke on noisy shared runners) only guards against the relay
#: pathology this PR removed, not the full margin.
W1_GATE = 0.6 if QUICK else 0.9

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="local fabric workers require the fork start method",
)


def execute_window(run, expected=232):
    """Seconds from the first record's arrival to the last's."""
    stamps = []

    def progress(done, total, record):
        stamps.append(time.perf_counter())

    result = run(progress)
    assert result.total_tests == expected
    assert len(stamps) == expected
    return stamps[-1] - stamps[0]


@needs_fork
class TestFabricLoopback:
    """The w1 gate: a fabric of one must not tax the campaign."""

    def test_w1_execute_window_within_gate_and_records(self):
        campaign = Campaign(functions=SCOPE)
        campaign.run()  # warm the parent-side caches once

        serial_s = fabric_s = float("inf")
        ratios = []
        for _ in range(TRIALS):
            s = execute_window(lambda p: campaign.run(progress=p))
            f = execute_window(
                lambda p: coordinate(campaign, workers=1, progress=p)
            )
            serial_s = min(serial_s, s)
            fabric_s = min(fabric_s, f)
            ratios.append(s / f)  # fabric throughput as a share of serial

        serial_tps = 231 / serial_s
        fabric_tps = 231 / fabric_s
        record_bench(
            "fabric",
            scope_tests=232,
            serial_tests_per_s=round(serial_tps, 1),
            loopback_w1_tests_per_s=round(fabric_tps, 1),
            w1_over_serial_best=round(max(ratios), 3),
            w1_over_serial_median=round(statistics.median(ratios), 3),
            estimator=f"paired execute windows, {TRIALS} trials",
        )
        assert max(ratios) >= W1_GATE, (
            f"loopback fabric w1 kept only {max(ratios):.2f}x of serial "
            f"throughput in its best paired window (gate {W1_GATE}); "
            f"fabric {fabric_tps:.1f} vs serial {serial_tps:.1f} tests/s"
        )


@needs_fork
class TestFabricScaling:
    """Scaling curve over worker counts the host can actually run."""

    def test_scaling_curve_skips_oversubscribed(self):
        campaign = Campaign(functions=SCOPE)
        campaign.run()
        cpus = os.cpu_count() or 1
        points = (1, 2, 4)
        measured: dict[int, float] = {}
        skipped = [w for w in points if w > cpus]
        for workers in points:
            if workers in skipped:
                continue
            window = min(
                execute_window(
                    lambda p: coordinate(campaign, workers=workers, progress=p)
                )
                for _ in range(TRIALS)
            )
            measured[workers] = 231 / window
        values = {
            f"scaling_w{w}_tests_per_s": (
                round(measured[w], 1) if w in measured else None
            )
            for w in points
        }
        record_bench(
            "fabric",
            skipped_oversubscribed=(
                ",".join(f"w{w}" for w in skipped) + f" (host has {cpus} CPUs)"
                if skipped
                else None
            ),
            **values,
        )
        assert measured  # at least w1 always runs


@needs_fork
class TestFabricKillRecovery:
    """What one worker death costs a fabric campaign, end to end."""

    def test_kill_recovery_cost(self, monkeypatch, tmp_path):
        campaign = Campaign(functions=SCOPE)
        campaign.run()
        victim = list(campaign.iter_specs())[100]

        def wall(run):
            start = time.perf_counter()
            result = run()
            assert result.total_tests == 232
            return time.perf_counter() - start

        clean = min(
            wall(lambda: coordinate(campaign, workers=2)) for _ in range(TRIALS)
        )

        killed = []
        for index in range(TRIALS):
            once_dir = tmp_path / f"once{index}"
            once_dir.mkdir()
            monkeypatch.setenv(KILL_SPEC_ENV, victim.test_id)
            monkeypatch.setenv(FAULT_ONCE_DIR_ENV, str(once_dir))
            killed.append(wall(lambda: coordinate(campaign, workers=2)))
            monkeypatch.delenv(KILL_SPEC_ENV)
            monkeypatch.delenv(FAULT_ONCE_DIR_ENV)

        record_bench(
            "fabric",
            kill_clean_s=round(clean, 2),
            kill_one_death_s=round(min(killed), 2),
            kill_recovery_cost_s=round(min(killed) - clean, 2),
        )
