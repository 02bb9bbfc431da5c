"""Cross-campaign queries: verdict diffing, drift audits, flaky scoring.

Three questions the flat report cannot answer:

- **diff** — which specs changed verdict between two campaigns (two
  kernel versions, two generator revisions, or an uninterrupted run
  versus its interrupted+resumed twin — the latter must be empty).
  Test ids are positional (``function#index``), so a spec is the pair
  (test id, argument labels): rows sharing an id but not their
  arguments are counted apart, never compared.
- **drift** — per spec (test id and argument labels, as in the diff),
  how its verdict churned across *all* runs of the same spec: the
  verdict sequence in ingest order, the number of transitions, and the
  distinct verdicts seen.
- **flaky score** — a 0..1 ranking combining verdict instability with
  the arbitration pressure PR 4 records (a spec that needed
  retry-with-quorum runs is suspect even when its final verdicts
  agree): ``0.6 * transitions/(runs-1) + 0.4 * min(1, extra_attempts/runs)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.results.warehouse import ResultsWarehouse


@dataclass(frozen=True)
class VerdictChange:
    """One spec whose verdict differs between two campaigns."""

    test_id: str
    function: str
    category: str
    left: str
    right: str


@dataclass(frozen=True)
class CampaignDiff:
    """Outcome of diffing two campaigns' verdicts spec by spec."""

    left_id: str
    right_id: str
    common: int
    only_left: int
    only_right: int
    changed: list[VerdictChange]
    #: Test ids present on both sides with different argument labels
    #: (another strategy or dictionary set); not compared.
    mismatched: int = 0

    @property
    def drifted(self) -> bool:
        """Whether any shared spec changed verdict."""
        return bool(self.changed)

    def summary(self) -> str:
        """One-line human summary (the CLI's headline)."""
        return (
            f"{self.left_id} vs {self.right_id}: {self.common} shared specs, "
            f"{len(self.changed)} verdict change(s), "
            f"{self.mismatched} same id with different arguments, "
            f"{self.only_left} only-left, {self.only_right} only-right"
        )


def diff_campaigns(
    warehouse: ResultsWarehouse, left_id: str, right_id: str
) -> CampaignDiff:
    """Spec-by-spec verdict diff between two ingested campaigns.

    Rows pair on test id *and* argument labels; a shared id with other
    arguments is counted in ``mismatched`` instead of being compared.
    """
    # Touch both provenance rows so an unknown id raises KeyError
    # instead of reporting an empty (and misleading) zero-drift diff.
    warehouse.campaign(left_id)
    warehouse.campaign(right_id)
    db = warehouse.connection
    join = (
        " FROM results l JOIN results r ON l.test_id = r.test_id"
        " WHERE l.campaign_id = ? AND r.campaign_id = ?"
    )
    changed = [
        VerdictChange(*row)
        for row in db.execute(
            "SELECT l.test_id, l.function, l.category, l.verdict, r.verdict"
            + join
            + "   AND l.arg_labels = r.arg_labels AND l.verdict != r.verdict"
            " ORDER BY l.test_id",
            (left_id, right_id),
        )
    ]
    common, mismatched = db.execute(
        "SELECT COALESCE(SUM(l.arg_labels = r.arg_labels), 0),"
        "       COALESCE(SUM(l.arg_labels != r.arg_labels), 0)" + join,
        (left_id, right_id),
    ).fetchone()
    only = {
        side: db.execute(
            "SELECT COUNT(*) FROM results a"
            " WHERE a.campaign_id = ? AND NOT EXISTS"
            "  (SELECT 1 FROM results b"
            "   WHERE b.campaign_id = ? AND b.test_id = a.test_id)",
            ids,
        ).fetchone()[0]
        for side, ids in (
            ("left", (left_id, right_id)),
            ("right", (right_id, left_id)),
        )
    }
    return CampaignDiff(
        left_id=left_id,
        right_id=right_id,
        common=common,
        only_left=only["left"],
        only_right=only["right"],
        changed=changed,
        mismatched=mismatched,
    )


@dataclass(frozen=True)
class DriftEntry:
    """Verdict history of one spec across campaigns (ingest order)."""

    test_id: str
    function: str
    category: str
    runs: int
    verdicts: tuple[str, ...]
    total_attempts: int
    arbitrated_runs: int
    #: The spec's argument labels: one test id under other arguments
    #: (another strategy or dictionary set) is another entry.
    arg_labels: tuple[str, ...] = ()

    @property
    def transitions(self) -> int:
        """Adjacent verdict changes across the run sequence (churn)."""
        return sum(
            1 for a, b in zip(self.verdicts, self.verdicts[1:]) if a != b
        )

    @property
    def distinct_verdicts(self) -> tuple[str, ...]:
        """The distinct verdicts seen, in first-appearance order."""
        seen: dict[str, None] = {}
        for verdict in self.verdicts:
            seen.setdefault(verdict)
        return tuple(seen)

    @property
    def drifted(self) -> bool:
        """Whether the verdict ever changed between runs."""
        return len(self.distinct_verdicts) > 1

    @property
    def flaky_score(self) -> float:
        """0..1: verdict instability blended with arbitration pressure."""
        instability = (
            self.transitions / (self.runs - 1) if self.runs > 1 else 0.0
        )
        extra = self.total_attempts - self.runs
        arbitration = min(1.0, extra / self.runs) if self.runs else 0.0
        return round(0.6 * instability + 0.4 * arbitration, 4)


def drift_audit(
    warehouse: ResultsWarehouse,
    campaign_ids: list[str] | None = None,
    include_stable: bool = False,
) -> list[DriftEntry]:
    """Per-spec verdict churn across runs of the same spec.

    A spec is the pair (test id, argument labels), as in
    :func:`diff_campaigns`: test ids are positional, so the same id
    under other arguments (another strategy) is another spec's history,
    never drift.  Campaigns are ordered by ingest (rowid) order — the
    warehouse is append-only, so that is also run order.  By default
    only drifted specs are returned (the audit's whole point);
    ``include_stable`` returns every spec, which feeds the flaky
    scoring.
    """
    db = warehouse.connection
    if campaign_ids is None:
        campaign_ids = [c.campaign_id for c in warehouse.campaigns()]
    order = {cid: i for i, cid in enumerate(campaign_ids)}
    history: dict[tuple[str, str], list[tuple[int, str, str, str, int, int]]] = {}
    marks = ", ".join("?" * len(campaign_ids)) or "''"
    for row in db.execute(
        "SELECT test_id, arg_labels, function, category, campaign_id,"
        " verdict, attempts, arbitrated FROM results"
        f" WHERE campaign_id IN ({marks})",
        campaign_ids,
    ):
        test_id, labels, function, category, cid, verdict, attempts, arbitrated = row
        history.setdefault((test_id, labels), []).append(
            (order[cid], function, category, verdict, attempts, arbitrated)
        )
    entries = []
    for (test_id, labels), runs in sorted(history.items()):
        runs.sort(key=lambda r: r[0])
        entry = DriftEntry(
            test_id=test_id,
            function=runs[0][1],
            category=runs[0][2],
            runs=len(runs),
            verdicts=tuple(r[3] for r in runs),
            total_attempts=sum(r[4] for r in runs),
            arbitrated_runs=sum(1 for r in runs if r[5]),
            arg_labels=tuple(labels.split(" ")) if labels else (),
        )
        if include_stable or entry.drifted:
            entries.append(entry)
    entries.sort(key=lambda e: (-e.flaky_score, e.test_id, e.arg_labels))
    return entries


def flaky_specs(
    warehouse: ResultsWarehouse,
    campaign_ids: list[str] | None = None,
    top: int = 20,
) -> list[DriftEntry]:
    """The highest-scoring flaky specs (score > 0), best-ranked first.

    A spec scores above zero by changing verdict between runs *or* by
    consuming arbitration retries within runs — both are flakiness
    signals even when the final verdicts agree.
    """
    entries = drift_audit(warehouse, campaign_ids, include_stable=True)
    flaky = [e for e in entries if e.flaky_score > 0]
    return flaky[:top]
