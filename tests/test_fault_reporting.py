"""Tests for reports, stats, the test log and the CLI."""

import json

import pytest

from repro.fault import report, stats
from repro.fault.campaign import Campaign
from repro.fault.testlog import CampaignLog, Invocation, TestRecord
from repro.xm import rc


@pytest.fixture(scope="module")
def result():
    return Campaign(
        functions=("XM_reset_system", "XM_set_timer", "XM_switch_sched_plan")
    ).run()


class TestTableOne:
    def test_rows_match_paper(self):
        rows = {r["basic"]: r for r in report.table1_rows()}
        assert rows["xm_u32_t"]["extended"] == [
            "xmWord_t",
            "xmAddress_t",
            "xmIoAddress_t",
            "xmSize_t",
            "xmId_t",
        ]
        assert rows["xm_s64_t"]["extended"] == ["xmTime_t"]
        assert rows["xm_u8_t"]["c_decl"] == "unsigned char"

    def test_render(self):
        text = report.table1()
        assert "xm_u64_t" in text and "unsigned long long" in text


class TestTableTwo:
    def test_rows_match_paper(self):
        rows = report.table2_rows()
        assert [r["value"] for r in rows] == [
            -2147483648, -16, -1, 0, 1, 2, 16, 2147483647,
        ]

    def test_render_marks_asterisks(self):
        text = report.table2()
        assert "MIN_S32" in text
        assert "-16*" in text
        assert "valid / invalid input depending on hypercall" in text


class TestTableThree:
    def test_rows_in_paper_order(self, result):
        rows = report.table3_rows(result)
        assert [r.category for r in rows][:3] == [
            "System Management",
            "Partition Management",
            "Time Management",
        ]

    def test_partial_campaign_counts(self, result):
        rows = {r.category: r for r in report.table3_rows(result)}
        assert rows["System Management"].tests == 5
        assert rows["Time Management"].tests == 32
        assert rows["Plan Management"].tests == 2
        assert rows["System Management"].raised_issues == 3

    def test_totals_row(self, result):
        totals = report.table3_totals(result)
        assert totals.tests == 39
        assert totals.total_hypercalls == 61
        assert totals.hypercalls_tested == 39

    def test_render_with_and_without_paper(self, result):
        assert "Paper Tests" in report.table3(result)
        assert "Paper Tests" not in report.table3(result, compare_paper=False)


class TestFig8:
    def test_distribution_matches_paper(self):
        data = report.fig8_data()
        assert data.total_hypercalls == 61
        assert data.tested == 39
        assert data.untested_parameterless == 10
        assert data.untested_other == 12
        assert round(data.tested_share * 100) == 64
        assert round(data.parameterless_share_of_all * 100) == 16
        assert 0.40 <= data.parameterless_share_of_untested < 0.50

    def test_render(self):
        text = report.fig8()
        assert "64%" in text and "16%" in text


class TestSummaries:
    def test_campaign_summary(self, result):
        text = report.campaign_summary(result)
        assert "XtratuM 3.4.0" in text
        assert "Issues raised     : 6" in text

    def test_severity_summary(self, result):
        text = report.severity_summary(result)
        assert "Catastrophic" in text

    def test_empty_issue_report(self):
        clean = Campaign(functions=("XM_switch_sched_plan",)).run()
        assert report.issues_report(clean) == "No robustness issues raised."


class TestStats:
    def test_tests_per_category(self, result):
        counts = stats.tests_per_category(result.log)
        assert counts["System Management"] == 5
        assert counts["Time Management"] == 32

    def test_rc_distribution(self, result):
        dist = stats.rc_distribution(result.log)
        assert dist[rc.XM_OK] > 0
        assert sum(dist.values()) <= result.total_tests

    def test_wall_time_stats(self, result):
        wall = stats.wall_time_stats(result.log)
        assert 0 < wall["min"] <= wall["median"] <= wall["p95"] <= wall["max"]
        assert wall["total"] > wall["max"]

    def test_wall_time_empty_log(self):
        wall = stats.wall_time_stats(CampaignLog())
        assert wall["total"] == 0.0

    def test_wall_time_stats_match_linear_percentile(self):
        # Wall times 1..20 s: NumPy's default (linear) percentile gives
        # median 10.5, p95 19.05 and p25 5.75 on this log.
        log = CampaignLog(
            [
                TestRecord(
                    f"XM_get_time#{i:04d}",
                    "XM_get_time",
                    "Time Management",
                    wall_time_s=float(i),
                )
                for i in range(1, 21)
            ]
        )
        assert stats.wall_time_stats(log) == {
            "min": 1.0,
            "median": 10.5,
            "p95": 19.05,
            "max": 20.0,
            "total": 210.0,
        }
        assert stats.percentile([r.wall_time_s for r in log], 25) == 5.75

    def test_severity_matrix_shape(self, result):
        categories, matrix = stats.severity_matrix(result)
        assert len(matrix) == len(categories)
        assert all(len(row) == 6 for row in matrix)
        assert sum(map(sum, matrix)) == result.total_tests

    def test_failure_rate_by_function(self, result):
        rates = stats.failure_rate_by_function(result)
        assert rates["XM_reset_system"] == 3 / 5
        assert rates["XM_switch_sched_plan"] == 0.0

    def test_response_diversity(self, result):
        diversity = stats.response_diversity(result, "XM_set_timer")
        crash_case = diversity["EXEC_CLOCK, 1, 1"]
        assert "simulator crash" in crash_case
        silent_case = diversity["HW_CLOCK, 1, LLONG_MIN"]
        assert "XM_OK" in silent_case
        # §V's point: the hypercall exhibits several distinct responses.
        assert stats.distinct_response_count(result, "XM_set_timer") >= 4

    def test_response_diversity_clean_function(self, result):
        diversity = stats.response_diversity(result, "XM_switch_sched_plan")
        assert all(r == {"XM_OK"} for r in diversity.values())


class TestTestLog:
    def test_record_roundtrip(self):
        record = TestRecord(
            test_id="t#1",
            function="XM_x",
            category="c",
            arg_labels=("a", "b"),
            resolved_args=(1, 2),
            invocations=[Invocation(returned=True, rc=0)],
            resets=[("cold", "src")],
            hm_events=[("FATAL_ERROR", -1, "boom")],
        )
        clone = TestRecord.from_dict(json.loads(json.dumps(record.to_dict())))
        assert clone == record

    def test_log_save_load(self, tmp_path, result):
        path = tmp_path / "log.jsonl"
        result.log.save(path)
        loaded = CampaignLog.load(path)
        assert len(loaded) == len(result.log)
        assert loaded.records[0] == result.log.records[0]

    def test_by_function_filter(self, result):
        assert len(result.log.by_function("XM_reset_system")) == 5

    def test_first_rc_semantics(self):
        record = TestRecord(test_id="t", function="f", category="c")
        assert record.first_rc is None
        record.invocations.append(Invocation(returned=False))
        assert record.first_rc is None and record.never_returned


class TestCli:
    def test_tables_command(self, capsys):
        from repro.cli import main

        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "xm_u32_t" in out

    def test_run_command_with_log(self, tmp_path, capsys):
        from repro.cli import main

        log_path = tmp_path / "out.jsonl"
        code = main(
            [
                "run",
                "--functions",
                "XM_reset_system",
                "--quiet",
                "--log",
                str(log_path),
            ]
        )
        assert code == 0
        assert log_path.exists()
        out = capsys.readouterr().out
        assert "Issues raised     : 3" in out

    def test_report_command(self, tmp_path, capsys):
        from repro.cli import main

        log_path = tmp_path / "out.jsonl"
        main(["run", "--functions", "XM_reset_system", "--quiet", "--log", str(log_path)])
        capsys.readouterr()
        assert main(["report", "--log", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "XM-RS-1" in out

    def test_phantom_command(self, capsys):
        from repro.cli import main

        assert main(["phantom"]) == 0
        out = capsys.readouterr().out
        assert "phantom cases executed : 50" in out

    def test_run_fixed_version(self, capsys):
        from repro.cli import main

        assert main(["run", "--functions", "XM_multicall", "--quiet", "--version", "3.4.1"]) == 0
        out = capsys.readouterr().out
        assert "Issues raised     : 0" in out
