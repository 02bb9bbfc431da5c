"""Report generation: every table and figure of the paper.

All renderers return plain strings (monospace tables) plus structured
row data, so benches can both print and assert on them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fault.apimodel import ApiModel, api_model_from_table, category_order
from repro.fault.campaign import CampaignResult
from repro.fault.classify import Severity
from repro.fault.dictionaries import DictionarySet
from repro.fault.stats import severity_matrix
from repro.xtypes import default_registry

#: Table III as printed in the paper: category -> (total, tested, tests,
#: issues).  Used for paper-vs-measured comparisons in EXPERIMENTS.md.
PAPER_TABLE3 = {
    "System Management": (3, 2, 8, 3),
    "Partition Management": (10, 6, 236, 0),
    "Time Management": (2, 2, 34, 3),
    "Plan Management": (2, 1, 2, 0),
    "Inter-Partition Communication": (10, 8, 598, 0),
    "Memory Management": (2, 1, 991, 0),
    "Health Monitor Management": (5, 3, 64, 0),
    "Trace Management": (5, 4, 428, 0),
    "Interrupt Management": (5, 4, 172, 0),
    "Miscellaneous": (5, 3, 41, 3),
    "Sparc V8 Specific": (12, 5, 88, 0),
}
PAPER_TOTALS = (61, 39, 2662, 9)


def _render(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]

    def line(cells: list[str]) -> str:
        return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()

    sep = "  ".join("-" * w for w in widths)
    return "\n".join([line(headers), sep, *(line(row) for row in rows)])


# -- Table I ------------------------------------------------------------------


def table1_rows() -> list[dict[str, object]]:
    """XM data types: basic, extended aliases, size, ANSI C type."""
    return default_registry().table1_rows()


def table1() -> str:
    """Render Table I."""
    rows = [
        [
            str(row["basic"]),
            ", ".join(row["extended"]) or "-",
            str(row["size_bits"]),
            str(row["c_decl"]),
        ]
        for row in table1_rows()
    ]
    return _render(["XM Basic Type", "XM Extended Types", "Size (bits)", "ANSI C Type"], rows)


# -- Table II -----------------------------------------------------------------


def table2_rows(dictionary_name: str = "xm_s32_t") -> list[dict[str, object]]:
    """The test-value set of one dictionary (default: Table II's)."""
    dictionary = DictionarySet().lookup(dictionary_name)
    return [
        {
            "label": tv.label,
            "value": tv.value if tv.value is not None else tv.symbol.value,
            "maybe_valid": tv.maybe_valid,
        }
        for tv in dictionary.values
    ]


def table2(dictionary_name: str = "xm_s32_t") -> str:
    """Render the Table II test-value set."""
    rows = [
        [
            str(row["value"]),
            str(row["label"]) + ("*" if row["maybe_valid"] else ""),
        ]
        for row in table2_rows(dictionary_name)
    ]
    out = _render(["Test Data", "Description"], rows)
    return out + "\n* valid / invalid input depending on hypercall"


# -- Table III ----------------------------------------------------------------


@dataclass(frozen=True)
class Table3Row:
    """One category row of Table III."""

    category: str
    total_hypercalls: int
    hypercalls_tested: int
    tests: int
    raised_issues: int


def table3_rows(result: CampaignResult) -> list[Table3Row]:
    """Measured Table III rows in paper order."""
    by_cat = result.model.by_category()
    rows: list[Table3Row] = []
    for category in category_order():
        functions = by_cat.get(category, [])
        tested = [fn for fn in functions if fn.tested]
        tests = len(result.log.by_category(category))
        issues = len(result.issues_in(category))
        rows.append(
            Table3Row(
                category=category,
                total_hypercalls=len(functions),
                hypercalls_tested=len(tested),
                tests=tests,
                raised_issues=issues,
            )
        )
    return rows


def table3_totals(result: CampaignResult) -> Table3Row:
    """The totals row."""
    rows = table3_rows(result)
    return Table3Row(
        category="Total",
        total_hypercalls=sum(r.total_hypercalls for r in rows),
        hypercalls_tested=sum(r.hypercalls_tested for r in rows),
        tests=sum(r.tests for r in rows),
        raised_issues=sum(r.raised_issues for r in rows),
    )


def table3(result: CampaignResult, compare_paper: bool = True) -> str:
    """Render Table III, optionally with the paper's numbers alongside."""
    headers = ["Hypercall Category", "Total", "Tested", "No. of Tests", "Raised Issues"]
    if compare_paper:
        headers += ["Paper Tests", "Paper Issues"]
    rows = []
    for row in [*table3_rows(result), table3_totals(result)]:
        cells = [
            row.category,
            str(row.total_hypercalls),
            str(row.hypercalls_tested),
            str(row.tests),
            str(row.raised_issues),
        ]
        if compare_paper:
            paper = (
                PAPER_TABLE3.get(row.category)
                if row.category != "Total"
                else PAPER_TOTALS[2:]
            )
            if row.category == "Total":
                cells += [str(PAPER_TOTALS[2]), str(PAPER_TOTALS[3])]
            elif paper is not None:
                cells += [str(paper[2]), str(paper[3])]
            else:
                cells += ["-", "-"]
        rows.append(cells)
    return _render(headers, rows)


# -- Fig. 8 -------------------------------------------------------------------


@dataclass(frozen=True)
class Fig8Data:
    """The campaign-distribution figure's underlying numbers."""

    total_hypercalls: int
    tested: int
    untested_parameterless: int
    untested_other: int

    @property
    def tested_share(self) -> float:
        """Fraction of hypercalls in scope (paper: 64 %)."""
        return self.tested / self.total_hypercalls

    @property
    def parameterless_share_of_all(self) -> float:
        """Parameter-less share of all hypercalls (paper: ~16 %)."""
        return self.untested_parameterless / self.total_hypercalls

    @property
    def parameterless_share_of_untested(self) -> float:
        """Parameter-less share of untested (paper: 'just below 50 %')."""
        untested = self.untested_parameterless + self.untested_other
        return self.untested_parameterless / untested if untested else 0.0


def fig8_data(model: ApiModel | None = None) -> Fig8Data:
    """Compute the Fig. 8 distribution from an API model."""
    model = model if model is not None else api_model_from_table()
    tested = model.tested_functions()
    untested = model.untested_functions()
    parameterless = [fn for fn in untested if not fn.has_params]
    return Fig8Data(
        total_hypercalls=len(model),
        tested=len(tested),
        untested_parameterless=len(parameterless),
        untested_other=len(untested) - len(parameterless),
    )


def fig8(model: ApiModel | None = None) -> str:
    """Render the Fig. 8 distribution as a text chart."""
    data = fig8_data(model)

    def bar(count: int) -> str:
        return "#" * count

    lines = [
        "XtratuM test campaign distribution (Fig. 8)",
        f"  tested hypercalls        {bar(data.tested)} {data.tested}"
        f" ({data.tested_share:.0%})",
        f"  untested (no parameters) {bar(data.untested_parameterless)} "
        f"{data.untested_parameterless} ({data.parameterless_share_of_all:.0%} of all)",
        f"  untested (other)         {bar(data.untested_other)} {data.untested_other}",
        f"  parameter-less share of untested: "
        f"{data.parameterless_share_of_untested:.0%}",
    ]
    return "\n".join(lines)


# -- Issues and summary ----------------------------------------------------------


def issues_report(result: CampaignResult) -> str:
    """Render the Section IV findings list."""
    if not result.issues:
        return "No robustness issues raised."
    rows = []
    for index, issue in enumerate(result.issues, start=1):
        rows.append(
            [
                str(index),
                issue.hypercall,
                issue.severity.value,
                issue.kind.value,
                str(issue.case_count),
                issue.matched_vulnerability or "-",
            ]
        )
    table = _render(
        ["#", "Hypercall", "Severity", "Failure", "Cases", "Known id"], rows
    )
    details = "\n".join(
        f"  [{issue.matched_vulnerability or '-'}] {issue.description}"
        for issue in result.issues
    )
    return table + "\n\n" + details


def severity_summary(result: CampaignResult) -> str:
    """Render the CRASH histogram."""
    counts = result.severity_counts()
    rows = [
        [severity.value, str(counts[severity])]
        for severity in Severity
    ]
    return _render(["Severity", "Tests"], rows)


def severity_heatmap(result: CampaignResult) -> str:
    """Category × severity count matrix (failures only) as text."""
    categories, matrix = severity_matrix(result)
    failure_severities = [s for s in Severity if s is not Severity.PASS]
    headers = ["Category"] + [s.value[:6] for s in failure_severities]
    rows = []
    for index, category in enumerate(categories):
        counts = [
            str(matrix[index][list(Severity).index(s)]) for s in failure_severities
        ]
        rows.append([category, *counts])
    return _render(headers, rows)


def full_report(result: CampaignResult) -> str:
    """The whole analysis dossier in one string (CLI `run` output)."""
    sections = [
        campaign_summary(result),
        "",
        table3(result),
        "",
        issues_report(result),
        "",
        severity_summary(result),
        "",
        severity_heatmap(result),
    ]
    return "\n".join(sections)


def campaign_summary(result: CampaignResult) -> str:
    """One-screen campaign summary."""
    totals = table3_totals(result)
    failures = len(result.failures())
    lines = [
        f"Kernel under test : XtratuM {result.kernel_version}",
        f"Strategy          : {result.strategy_name}",
        f"Hypercalls tested : {totals.hypercalls_tested} of {totals.total_hypercalls}",
        f"Tests executed    : {totals.tests}",
        f"Failing tests     : {failures}",
        f"Issues raised     : {totals.raised_issues}",
    ]
    # Process-level incidents the supervisor absorbed, when any.
    killed = sum(1 for record in result.log if record.worker_killed)
    timed_out = sum(1 for record in result.log if record.watchdog_expired)
    arbitrated = sum(1 for record in result.log if record.arbitrated)
    quarantined = sum(1 for record in result.log if record.quarantined)
    if killed:
        lines.append(f"Worker kills      : {killed}")
    if timed_out:
        lines.append(f"Watchdog timeouts : {timed_out}")
    if arbitrated:
        lines.append(f"Arbitrated verdicts : {arbitrated}")
    if quarantined:
        lines.append(f"Quarantined (skipped) : {quarantined}")
    stats = result.execution_stats or {}
    reset_modes = stats.get("reset_modes") or {}
    if reset_modes:
        breakdown = ", ".join(
            f"{name}={reset_modes[name]}"
            for name in ("delta", "restore", "cold", "delta_fallbacks", "verified")
            if name in reset_modes
        )
        lines.append(f"Reset modes       : {breakdown}")
    if stats.get("pool_respawns") or stats.get("probe_respawns"):
        lines.append(
            "Worker respawns   : "
            f"{stats.get('pool_respawns', 0)} main, "
            f"{stats.get('probe_respawns', 0)} probe"
        )
    if stats.get("degraded_serial"):
        lines.append("Execution degraded to serial (respawn budget exhausted)")
    return "\n".join(lines)
