"""Results warehouse: ingest idempotence, diffing, drift, dashboard."""

import json

import pytest

from repro.fault.campaign import Campaign
from repro.fault.testlog import CampaignLog, TestRecord
from repro.results import (
    ResultsWarehouse,
    diff_campaigns,
    drift_audit,
    flaky_specs,
    verdict_of,
)
from repro.results.dashboard import export, render_html
from repro.xm.vulns import FIXED_VERSION


@pytest.fixture(scope="module")
def reset_result():
    """One uninterrupted XM_reset_system campaign (5 specs)."""
    return Campaign(functions=("XM_reset_system",)).run()


@pytest.fixture(scope="module")
def fixed_result():
    """The same suite on the fixed kernel (verdicts flip)."""
    return Campaign(
        functions=("XM_reset_system",), kernel_version=FIXED_VERSION
    ).run()


def make_record(test_id, **overrides):
    return TestRecord(
        test_id=test_id,
        function=overrides.pop("function", "XM_mask_irq"),
        category=overrides.pop("category", "Interrupt Management"),
        **overrides,
    )


class TestVerdict:
    def test_process_level_outranks_kernel_outcome(self):
        record = make_record("a", worker_killed=True, sim_crashed=True)
        assert verdict_of(record) == "worker_killed"

    def test_quarantine_skip_matches_fresh_kill(self):
        # A skip-with-record must not read as drift against the run
        # that confirmed the kill.
        fresh = make_record("a", worker_killed=True)
        skipped = make_record("a", worker_killed=True, quarantined=True)
        assert verdict_of(fresh) == verdict_of(skipped)

    def test_rc_verdict_uses_symbolic_name(self):
        from repro.fault.testlog import Invocation

        record = make_record(
            "a", invocations=[Invocation(returned=True, rc=-3)]
        )
        assert verdict_of(record).startswith("rc:")

    def test_not_invoked_and_no_return_distinct(self):
        from repro.fault.testlog import Invocation

        silent = make_record("a")
        no_return = make_record("b", invocations=[Invocation(returned=False)])
        assert verdict_of(silent) == "not_invoked"
        assert verdict_of(no_return) == "no_return"


class TestIngest:
    def test_reingest_adds_zero_rows(self, reset_result):
        with ResultsWarehouse() as wh:
            first = wh.ingest(reset_result.log, campaign_id="a")
            again = wh.ingest(reset_result.log, campaign_id="a")
        assert first.inserted == len(reset_result.log)
        assert again.inserted == 0
        assert again.duplicates == len(reset_result.log)

    def test_ingest_from_path_defaults_campaign_id(
        self, reset_result, tmp_path
    ):
        path = tmp_path / "nightly.jsonl"
        reset_result.log.save(path)
        with ResultsWarehouse(tmp_path / "wh.sqlite") as wh:
            report = wh.ingest(path)
        assert report.campaign_id == "nightly"

    def test_partial_then_full_ingest_is_resume_safe(self, reset_result):
        records = list(reset_result.log)
        with ResultsWarehouse() as wh:
            wh.ingest(CampaignLog(records[:2]), campaign_id="a")
            grown = wh.ingest(CampaignLog(records), campaign_id="a")
            assert grown.inserted == len(records) - 2
            assert wh.row_count("a") == len(records)

    def test_provenance_and_stats_round_trip(self, reset_result, tmp_path):
        path = tmp_path / "a.jsonl"
        result = Campaign(functions=("XM_reset_system",)).run(log_path=path)
        with ResultsWarehouse() as wh:
            wh.ingest(path, strategy="cartesian@r1")
            info = wh.campaign("a")
        assert info.kernel_version == result.kernel_version
        assert info.strategy == "cartesian@r1"
        assert info.execution_stats == result.execution_stats

    def test_in_memory_log_requires_campaign_id(self, reset_result):
        with ResultsWarehouse() as wh:
            with pytest.raises(ValueError):
                wh.ingest(reset_result.log)

    def test_schema_version_guard(self, tmp_path):
        path = tmp_path / "wh.sqlite"
        with ResultsWarehouse(path) as wh:
            wh.connection.execute(
                "UPDATE meta SET value = '999' WHERE key = 'schema_version'"
            )
            wh.connection.commit()
        with pytest.raises(RuntimeError, match="schema version"):
            ResultsWarehouse(path)


class TestDiff:
    def test_self_diff_reports_zero_drift(self, reset_result):
        with ResultsWarehouse() as wh:
            wh.ingest(reset_result.log, campaign_id="a")
            diff = diff_campaigns(wh, "a", "a")
        assert not diff.drifted
        assert diff.changed == []
        assert diff.common == len(reset_result.log)
        assert diff.only_left == diff.only_right == 0

    def test_interrupted_resumed_diffs_clean_against_uninterrupted(
        self, reset_result, tmp_path
    ):
        # The acceptance scenario: an interrupted campaign resumed from
        # its partial log must warehouse-diff with zero verdict drift
        # against the uninterrupted run of the same suite.
        partial = CampaignLog(list(reset_result.log)[:2])
        partial_path = tmp_path / "partial.jsonl"
        partial.save(partial_path)
        resumed = Campaign(functions=("XM_reset_system",)).run(
            resume_from=CampaignLog.load(partial_path),
            log_path=tmp_path / "resumed.jsonl",
        )
        with ResultsWarehouse() as wh:
            wh.ingest(reset_result.log, campaign_id="uninterrupted")
            wh.ingest(tmp_path / "resumed.jsonl", campaign_id="resumed")
            diff = diff_campaigns(wh, "uninterrupted", "resumed")
        assert not diff.drifted
        assert diff.only_left == diff.only_right == 0

    def test_kernel_version_flip_is_reported(self, reset_result, fixed_result):
        with ResultsWarehouse() as wh:
            wh.ingest(reset_result.log, campaign_id="vuln")
            wh.ingest(fixed_result.log, campaign_id="fixed")
            diff = diff_campaigns(wh, "vuln", "fixed")
        assert diff.drifted
        assert all(c.left != c.right for c in diff.changed)

    def test_unknown_campaign_raises(self, reset_result):
        with ResultsWarehouse() as wh:
            wh.ingest(reset_result.log, campaign_id="a")
            with pytest.raises(KeyError):
                diff_campaigns(wh, "a", "nope")

    def test_same_id_with_other_arguments_is_not_compared(self):
        # Test ids are positional: a pairwise XM_set_timer suite reuses
        # 16 of the cartesian suite's ids, 15 of them for other argument
        # tuples.  Only the one true shared spec may be compared.
        from repro.fault.combinator import PairwiseStrategy

        scope = ("XM_set_timer",)
        cartesian = Campaign(functions=scope).run()
        pairwise = Campaign(functions=scope, strategy=PairwiseStrategy()).run()
        with ResultsWarehouse() as wh:
            wh.ingest(cartesian.log, campaign_id="cartesian")
            wh.ingest(pairwise.log, campaign_id="pairwise")
            diff = diff_campaigns(wh, "cartesian", "pairwise")
        assert (diff.common, diff.mismatched) == (1, 15)
        assert diff.changed == []
        assert (diff.only_left, diff.only_right) == (16, 0)
        assert "15 same id with different arguments" in diff.summary()

    def test_disjoint_specs_counted_not_drifted(self):
        with ResultsWarehouse() as wh:
            wh.ingest(CampaignLog([make_record("x")]), campaign_id="a")
            wh.ingest(CampaignLog([make_record("y")]), campaign_id="b")
            diff = diff_campaigns(wh, "a", "b")
        assert diff.common == 0
        assert diff.only_left == diff.only_right == 1
        assert not diff.drifted


class TestDrift:
    def test_seeded_verdict_flip_is_flagged(self, reset_result, fixed_result):
        with ResultsWarehouse() as wh:
            wh.ingest(reset_result.log, campaign_id="vuln")
            wh.ingest(fixed_result.log, campaign_id="fixed")
            drifted = drift_audit(wh)
        assert drifted, "kernel-version verdict flip must be flagged"
        for entry in drifted:
            assert entry.drifted
            assert entry.transitions >= 1
            assert entry.flaky_score > 0

    def test_identical_runs_show_no_drift(self, reset_result):
        with ResultsWarehouse() as wh:
            wh.ingest(reset_result.log, campaign_id="r1")
            wh.ingest(reset_result.log, campaign_id="r2")
            assert drift_audit(wh) == []

    def test_arbitration_pressure_scores_without_verdict_change(self):
        record = make_record("a", attempts=3, arbitrated=True)
        with ResultsWarehouse() as wh:
            wh.ingest(CampaignLog([record]), campaign_id="r1")
            wh.ingest(CampaignLog([record]), campaign_id="r2")
            assert drift_audit(wh) == []  # verdicts agree
            flaky = flaky_specs(wh)
        assert [e.test_id for e in flaky] == ["a"]
        assert flaky[0].flaky_score > 0
        assert flaky[0].arbitrated_runs == 2

    def test_churn_counts_adjacent_transitions(self):
        flip = make_record("a", sim_crashed=True)
        calm = make_record("a")
        with ResultsWarehouse() as wh:
            for i, rec in enumerate((calm, flip, calm)):
                wh.ingest(CampaignLog([rec]), campaign_id=f"r{i}")
            (entry,) = drift_audit(wh)
        assert entry.runs == 3
        assert entry.transitions == 2
        assert entry.distinct_verdicts == ("not_invoked", "sim_crashed")


class TestDashboard:
    def test_export_html_and_json(self, reset_result, tmp_path):
        html_path = tmp_path / "dash.html"
        json_path = tmp_path / "dash.json"
        with ResultsWarehouse() as wh:
            wh.ingest(reset_result.log, campaign_id="a")
            data = export(wh, html_path=html_path, json_path=json_path)
        page = html_path.read_text(encoding="utf-8")
        assert "Campaign results warehouse" in page
        assert "a" in page and "Verdicts" in page
        loaded = json.loads(json_path.read_text(encoding="utf-8"))
        assert loaded["total_rows"] == data["total_rows"] == len(
            reset_result.log
        )
        assert loaded["campaigns"][0]["campaign_id"] == "a"

    def test_drifted_specs_marked_in_page(self, reset_result, fixed_result):
        with ResultsWarehouse() as wh:
            wh.ingest(reset_result.log, campaign_id="vuln")
            wh.ingest(fixed_result.log, campaign_id="fixed")
            page = render_html(export(wh))
        assert "drifted" in page

    def test_empty_warehouse_renders(self):
        with ResultsWarehouse() as wh:
            page = render_html(export(wh))
        assert "0 result rows" in page


class TestResultsCli:
    def test_ingest_query_diff_drift_dashboard(self, reset_result, tmp_path, capsys):
        from repro.cli import main

        log_path = tmp_path / "run.jsonl"
        reset_result.log.save(log_path)
        db = str(tmp_path / "wh.sqlite")
        assert main(["results", "ingest", "--db", db, "--log", str(log_path)]) == 0
        assert main(["results", "ingest", "--db", db, "--log", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "0 new row(s)" in out
        assert main(["results", "query", "--db", db]) == 0
        assert main(["results", "query", "--db", db, "--campaign", "run"]) == 0
        assert main(["results", "diff", "--db", db, "--left", "run",
                     "--right", "run"]) == 0
        assert "0 verdict change(s)" in capsys.readouterr().out
        assert main(["results", "drift", "--db", db]) == 0
        html_out = tmp_path / "dash.html"
        assert main(["results", "dashboard", "--db", db, "--out",
                     str(html_out)]) == 0
        assert html_out.exists()

    def test_unknown_campaign_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        db = str(tmp_path / "wh.sqlite")
        assert main(["results", "query", "--db", db, "--campaign", "x"]) == 2
        assert main(["results", "diff", "--db", db, "--left", "x",
                     "--right", "y"]) == 2
