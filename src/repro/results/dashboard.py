"""Dashboard export: the warehouse's state as one HTML page (+ JSON).

The JSON export is the machine-readable twin (same dict the HTML is
rendered from), so CI can both archive a human-browsable artifact and
assert on its numbers.  The page is fully self-contained — inline CSS,
no scripts, no external assets — because it is uploaded as a build
artifact and opened from disk.

Rendering rules: counts are horizontal single-hue bars with the count
as a text label (identity comes from the row label, so no legend), the
drift table marks drifted specs with a textual chip rather than color
alone, and dark mode re-derives its colors instead of inverting.
"""

from __future__ import annotations

import html
import json
from pathlib import Path

from repro.results.queries import drift_audit, flaky_specs
from repro.results.warehouse import ResultsWarehouse

_CSS = """
:root {
  --surface-1: #fcfcfb;
  --surface-2: #f0efec;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --series-1: #2a78d6;
  --status-critical: #d03b3b;
  --status-good: #0ca30c;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19;
    --surface-2: #383835;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --series-1: #3987e5;
  }
}
body {
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
  max-width: 72rem; padding: 0 1rem;
}
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; width: 100%; margin: 0.5rem 0; }
th, td { text-align: left; padding: 0.3rem 0.8rem 0.3rem 0;
         border-bottom: 1px solid var(--surface-2); }
th { color: var(--text-secondary); font-weight: 600; }
td.num, th.num { text-align: right; }
.muted { color: var(--text-secondary); }
.bar-row { display: flex; align-items: center; gap: 0.5rem; margin: 2px 0; }
.bar-label { flex: 0 0 14rem; color: var(--text-secondary);
             overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
.bar-track { flex: 1; }
.bar { height: 10px; background: var(--series-1);
       border-radius: 0 4px 4px 0; min-width: 2px; }
.bar-value { flex: 0 0 4rem; color: var(--text-primary); }
.chip { border-radius: 4px; padding: 0 0.4rem; font-size: 0.85em;
        color: var(--surface-1); }
.chip.drift { background: var(--status-critical); }
.chip.stable { background: var(--status-good); }
"""


def dashboard_data(
    warehouse: ResultsWarehouse, top_flaky: int = 20
) -> dict:
    """Everything the dashboard shows, as one JSON-serialisable dict."""
    campaigns = []
    for info in warehouse.campaigns():
        campaigns.append(
            {
                "campaign_id": info.campaign_id,
                "kernel_version": info.kernel_version,
                "frames": info.frames,
                "strategy": info.strategy,
                "source_path": info.source_path,
                "host": info.host,
                "ingested_at": info.ingested_at,
                "records": info.records,
                "execution_stats": info.execution_stats,
                "verdicts": warehouse.verdict_summary(info.campaign_id),
            }
        )
    drifted = drift_audit(warehouse)
    flaky = flaky_specs(warehouse, top=top_flaky)
    entry = lambda e: {  # noqa: E731 - tiny row shaper used twice
        "test_id": e.test_id,
        "arg_labels": list(e.arg_labels),
        "function": e.function,
        "category": e.category,
        "runs": e.runs,
        "verdicts": list(e.verdicts),
        "transitions": e.transitions,
        "arbitrated_runs": e.arbitrated_runs,
        "total_attempts": e.total_attempts,
        "flaky_score": e.flaky_score,
    }
    return {
        "schema": 1,
        "total_rows": warehouse.row_count(),
        "campaigns": campaigns,
        "drift": [entry(e) for e in drifted],
        "flaky": [entry(e) for e in flaky],
    }


def _bars(verdicts: dict[str, int]) -> str:
    """Single-hue horizontal count bars with direct text labels."""
    if not verdicts:
        return '<p class="muted">no records</p>'
    peak = max(verdicts.values())
    rows = []
    for verdict, count in verdicts.items():
        width = max(1.0, 100.0 * count / peak)
        rows.append(
            f'<div class="bar-row" title="{html.escape(verdict)}: {count}">'
            f'<span class="bar-label">{html.escape(verdict)}</span>'
            f'<span class="bar-track">'
            f'<div class="bar" style="width:{width:.1f}%"></div></span>'
            f'<span class="bar-value">{count}</span></div>'
        )
    return "\n".join(rows)


def _drift_table(entries: list[dict], caption: str) -> str:
    if not entries:
        return f'<p class="muted">{html.escape(caption)}: none</p>'
    rows = []
    for e in entries:
        chip = (
            '<span class="chip drift">drifted</span>'
            if e["transitions"]
            else '<span class="chip stable">stable</span>'
        )
        rows.append(
            "<tr>"
            f'<td>{html.escape(e["test_id"])}</td>'
            f'<td>{html.escape(e["function"])}'
            f'({html.escape(", ".join(e["arg_labels"]))})</td>'
            f'<td>{chip}</td>'
            f'<td>{html.escape(" → ".join(e["verdicts"]))}</td>'
            f'<td class="num">{e["runs"]}</td>'
            f'<td class="num">{e["transitions"]}</td>'
            f'<td class="num">{e["arbitrated_runs"]}</td>'
            f'<td class="num">{e["flaky_score"]:.2f}</td>'
            "</tr>"
        )
    return (
        "<table><thead><tr><th>Spec</th><th>Call</th><th>State</th>"
        '<th>Verdict history</th><th class="num">Runs</th>'
        '<th class="num">Churn</th><th class="num">Arbitrated</th>'
        '<th class="num">Score</th></tr></thead>'
        f'<tbody>{"".join(rows)}</tbody></table>'
    )


def render_html(data: dict) -> str:
    """The self-contained dashboard page for a :func:`dashboard_data` dict."""
    sections = [
        "<!doctype html><html lang=\"en\"><head><meta charset=\"utf-8\">",
        "<title>Campaign results warehouse</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>Campaign results warehouse</h1>",
        f'<p class="muted">{data["total_rows"]} result rows across '
        f'{len(data["campaigns"])} campaign(s)</p>',
        "<h2>Campaigns</h2>",
        "<table><thead><tr><th>Campaign</th><th>Kernel</th>"
        '<th class="num">Frames</th><th>Strategy</th><th>Host</th>'
        '<th>Ingested</th><th class="num">Records</th></tr></thead><tbody>',
    ]
    for c in data["campaigns"]:
        sections.append(
            "<tr>"
            f'<td>{html.escape(c["campaign_id"])}</td>'
            f'<td>{html.escape(c["kernel_version"] or "-")}</td>'
            f'<td class="num">{c["frames"]}</td>'
            f'<td>{html.escape(c["strategy"] or "-")}</td>'
            f'<td>{html.escape(c["host"] or "-")}</td>'
            f'<td>{html.escape(c["ingested_at"])}</td>'
            f'<td class="num">{c["records"]}</td>'
            "</tr>"
        )
    sections.append("</tbody></table>")
    for c in data["campaigns"]:
        sections.append(
            f'<h2>Verdicts — {html.escape(c["campaign_id"])}</h2>'
        )
        sections.append(_bars(c["verdicts"]))
    sections.append("<h2>Drift audit</h2>")
    sections.append(_drift_table(data["drift"], "Drifted specs"))
    sections.append("<h2>Flaky specs</h2>")
    sections.append(_drift_table(data["flaky"], "Flaky specs"))
    sections.append("</body></html>")
    return "\n".join(sections)


def export(
    warehouse: ResultsWarehouse,
    html_path: str | Path | None = None,
    json_path: str | Path | None = None,
    top_flaky: int = 20,
) -> dict:
    """Write the HTML and/or JSON exports; returns the data dict."""
    data = dashboard_data(warehouse, top_flaky=top_flaky)
    if html_path is not None:
        Path(html_path).write_text(render_html(data), encoding="utf-8")
    if json_path is not None:
        Path(json_path).write_text(
            json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return data
