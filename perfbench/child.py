"""One benchmark campaign, run in a fresh process through public entry points.

Usage (the benchmark driver ``run.py`` builds these command lines)::

    child.py campaign --version V [--cold-boot] --log L --result R [--trace]
    child.py replay   --logs L0 L1 --db D       --result R [--trace]

``campaign`` is the CLI's serial ``run`` path (streamed log, final save,
report), and ``replay`` loads
two saved logs, analyses and reports both, ingests both into a results
warehouse and diffs them.  The process writes its timestamps and what
it produced to the ``--result`` JSON file after the timed part ends.
Timestamps are ``time.monotonic()``, one clock for every process on the
host, so the driver can measure from the moment it spawned this one.

With ``--trace``, spans are recorded around each call into the program
(see ``spans.py``); without it the same calls run with no-op spans.
"""

from __future__ import annotations

import time

T_MAIN = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer  # noqa: E402


class Timeline:
    """The timed facts of one campaign, written out once it ends."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.first: float | None = None
        self.arrivals: list[float] = []
        self.facts: dict = {}

    def progress(self, done: int, _total: int, _record) -> None:  # noqa: ANN001
        now = time.monotonic()
        if self.first is None:
            self.first = now
        if self.tracer.enabled:
            self.arrivals.append(now)

    def write(self, path: str, end: float) -> None:
        out = {
            "t_main": T_MAIN,
            "t_first": self.first,
            "t_end": end,
            "arrivals": self.arrivals,
            "spans": self.tracer.export(),
            "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            **self.facts,
        }
        tmp = f"{path}.tmp"
        Path(tmp).write_text(json.dumps(out))
        os.replace(tmp, path)


def _trace_stream_appends(tracer: Tracer) -> None:
    """Time every streamed-log append (one aggregate span per caller)."""
    if not tracer.enabled:
        return
    from repro.fault.testlog import CampaignLog

    open_stream = CampaignLog.stream

    def stream(*args, **kwargs):  # noqa: ANN002, ANN003
        log_stream = open_stream(*args, **kwargs)
        log_stream.append = tracer.timed("fault.testlog.stream", log_stream.append)
        return log_stream

    CampaignLog.stream = stream


def _issue_idents(result) -> list:  # noqa: ANN001
    return [issue.matched_vulnerability for issue in result.issues]


def run_campaign(args: argparse.Namespace, line: Timeline) -> None:
    tracer = line.tracer
    with tracer.span("import"):
        from repro.fault import report
        from repro.fault.campaign import Campaign
        from repro.fault.executor import TestExecutor
    _trace_stream_appends(tracer)
    warm = not args.cold_boot
    # profile=True is the executor's own phase clock: traced runs only.
    campaign = Campaign(
        kernel_version=args.version, warm_boot=warm, profile=tracer.enabled
    )
    campaign.analyse = tracer.wrap("fault.analysis", campaign.analyse)
    with tracer.span("fault.generation"):
        tests = campaign.total_tests()
    with tracer.span("fault.plan"):
        entries = len(campaign.plan().entries)
    with tracer.span("tsim.boot"):
        TestExecutor(kernel_version=args.version, warm_boot=warm).prepare()
    with tracer.span("fault.executor"):
        line.facts["t_run"] = time.monotonic()
        result = campaign.run(log_path=args.log, progress=line.progress)
    with tracer.span("fault.testlog.save"):
        result.log.save(args.log)
    with tracer.span("fault.report"):
        text = "\n\n".join(
            (report.campaign_summary(result), report.table3(result),
             report.issues_report(result))
        )
    sys.stdout.write(text + "\n")
    end = time.monotonic()
    line.facts.update(
        tests=tests,
        plan_entries=entries,
        records=len(result.log),
        idents={args.version: _issue_idents(result)},
        stats=result.execution_stats,
        log_bytes=os.path.getsize(args.log),
    )
    line.write(args.result, end)


def run_replay(args: argparse.Namespace, line: Timeline) -> None:
    tracer = line.tracer
    with tracer.span("import"):
        from repro.fault import report
        from repro.fault.campaign import Campaign
        from repro.fault.testlog import CampaignLog
        from repro.results import ResultsWarehouse, diff_campaigns
    with tracer.span("results.open"):
        warehouse = ResultsWarehouse(args.db)
    line.first = time.monotonic()  # set-up ends once the warehouse is open
    ids, idents = [], {}
    tests = entries = records = log_bytes = 0
    for path in args.logs:
        with tracer.span("fault.testlog.load"):
            log = CampaignLog.load(path)
        version = next(r.kernel_version for r in log)
        campaign = Campaign(kernel_version=version)
        with tracer.span("fault.generation"):
            tests += campaign.total_tests()
        with tracer.span("fault.plan"):
            entries += len(campaign.plan().entries)
        with tracer.span("fault.analysis"):
            result = campaign.analyse(log)
        with tracer.span("fault.report"):
            text = report.full_report(result)
        sys.stdout.write(text + "\n")
        with tracer.span("results.ingest"):
            warehouse.ingest(log, campaign_id=version)
        ids.append(version)
        idents[version] = _issue_idents(result)
        records += len(log)
        log_bytes += os.path.getsize(path)
    with tracer.span("results.diff"):
        diff = diff_campaigns(warehouse, *ids)
    end = time.monotonic()
    line.facts.update(
        tests=tests,
        plan_entries=entries,
        records=records,
        idents=idents,
        verdicts={cid: warehouse.verdicts(cid) for cid in ids},
        diff_changed=len(diff.changed),
        log_bytes=log_bytes,
    )
    warehouse.close()
    line.write(args.result, end)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("campaign")
    p.add_argument("--version", required=True)
    p.add_argument("--cold-boot", action="store_true")
    p.add_argument("--log", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("replay")
    p.add_argument("--logs", nargs=2, required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    line = Timeline(Tracer(args.trace))
    if args.command == "replay":
        run_replay(args, line)
    else:
        run_campaign(args, line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
