"""Command-line front end: ``repro-campaign``.

Mirrors the paper's shell-script automation: a whole campaign —
generation, execution, log analysis and reporting — runs with no
intervention from the test administrator.

Subcommands::

    repro-campaign run [--version V] [--functions F1,F2] [--processes N]
                       [--shard-size K] [--frames N]
                       [--strategy cartesian|pairwise|random]
                       [--log out.jsonl] [--resume] [--timeout-s T]
                       [--log-fsync] [--chaos SEED] [--quarantine Q.json]
                       [--max-attempts N] [--quorum N]
    repro-campaign report --log out.jsonl
    repro-campaign quarantine --file Q.json [--remove ID | --clear]
    repro-campaign tables            # Table I, Table II, Fig. 8, XML excerpts
    repro-campaign phantom           # parameter-less coverage extension
    repro-campaign results ingest --db wh.sqlite --log out.jsonl
    repro-campaign results query|diff|drift|dashboard --db wh.sqlite ...
    repro-campaign fabric run --workers N [campaign options]
    repro-campaign fabric serve --bind HOST:PORT [campaign options]
    repro-campaign fabric work --connect HOST:PORT [--name NAME]

``--chaos SEED`` arms the failpoint layer (seeded faults injected into
the campaign runner itself; see :mod:`repro.fault.failpoints`): an
interrupted run exits with status 3 and resumes losslessly with
``--resume``.
"""

from __future__ import annotations

import argparse
import sys

from repro.fault import report
from repro.fault.campaign import Campaign, ResumeMismatch
from repro.fault.combinator import STRATEGIES as _STRATEGIES
from repro.fault.testlog import CampaignLog
from repro.xm.vulns import FIXED_VERSION, VULNERABLE_VERSION


def _campaign_options(p: argparse.ArgumentParser) -> None:
    """Options ``run`` and ``fabric run``/``serve`` share."""
    p.add_argument(
        "--version",
        default=VULNERABLE_VERSION,
        choices=[VULNERABLE_VERSION, FIXED_VERSION],
        help="kernel version under test",
    )
    p.add_argument(
        "--functions",
        default=None,
        help="comma-separated hypercall subset (default: all tested)",
    )
    p.add_argument("--frames", type=int, default=2, help="major frames per test")
    p.add_argument(
        "--strategy",
        default="cartesian",
        choices=sorted(_STRATEGIES),
        help="dataset generation strategy",
    )
    p.add_argument(
        "--log",
        default=None,
        help="campaign log (JSONL), streamed per record during execution",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="continue from the records already in --log (lossless restart)",
    )
    p.add_argument(
        "--log-fsync",
        dest="log_fsync",
        action="store_true",
        help="fsync the streaming log on every checkpoint "
        "(durable against host power loss, not just process crashes)",
    )
    p.add_argument(
        "--timeout-s",
        dest="timeout_s",
        type=float,
        default=None,
        help="per-test wall-clock watchdog in seconds (default: none)",
    )
    p.add_argument(
        "--shard-size",
        dest="shard_size",
        type=int,
        default=None,
        help="specs per worker lease (default: auto-sized shards; "
        "1 = one spec per lease)",
    )
    p.add_argument(
        "--quarantine",
        default=None,
        metavar="FILE",
        help="persistent quarantine list (JSON): confirmed killer specs "
        "are added to it and skipped-with-record on later runs",
    )
    p.add_argument(
        "--max-attempts",
        dest="max_attempts",
        type=int,
        default=None,
        help="runs a suspect worker_killed/watchdog_expired verdict may "
        "consume (default 3; 1 = first observation is terminal)",
    )
    p.add_argument(
        "--quorum",
        type=int,
        default=None,
        help="agreeing lethal observations that decide a verdict "
        "(default 2; must be <= --max-attempts)",
    )
    p.add_argument("--quiet", action="store_true", help="suppress progress")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-campaign",
        description="Separation kernel robustness testing (XtratuM case study)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a robustness campaign")
    _campaign_options(run)
    run.add_argument(
        "--processes",
        type=int,
        default=None,
        help="run on N local fabric worker processes (default: serial)",
    )
    run.add_argument(
        "--warm-boot",
        dest="warm_boot",
        action="store_true",
        default=True,
        help="boot once per configuration, snapshot, restore per test (default)",
    )
    run.add_argument(
        "--cold-boot",
        dest="warm_boot",
        action="store_false",
        help="pack and boot a fresh system for every test",
    )
    run.add_argument(
        "--delta-reset",
        dest="delta_reset",
        action="store_true",
        default=True,
        help="revert warm-boot state in place between tests via the "
        "dirty-tracking journal, falling back to snapshot restores "
        "when a run cannot be trusted (default)",
    )
    run.add_argument(
        "--no-delta-reset",
        dest="delta_reset",
        action="store_false",
        help="always restore from the pickled snapshot between tests",
    )
    run.add_argument(
        "--journal-budget",
        dest="journal_budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="dirty-memory bytes a delta reset may revert before "
        "falling back to a full restore (default 1 MiB)",
    )
    run.add_argument(
        "--verify-reset",
        dest="verify_reset",
        action="store_true",
        help="run every test a second time on a fresh snapshot restore "
        "and fail on any record divergence (delta-reset audit mode)",
    )
    run.add_argument(
        "--compiled-plan",
        dest="compiled_plan",
        action="store_true",
        default=True,
        help="compile the suites once (resolved arguments, dispatch "
        "prechecks, record skeletons) instead of re-deriving them "
        "per test (default)",
    )
    run.add_argument(
        "--no-compiled-plan",
        dest="compiled_plan",
        action="store_false",
        help="re-derive every test's arguments and expectations per run",
    )
    run.add_argument(
        "--batch-hypercalls",
        dest="batch_hypercalls",
        action="store_true",
        default=True,
        help="execute consecutive same-hypercall specs as one batched "
        "pass through a single armed simulator loop (default; needs "
        "--compiled-plan)",
    )
    run.add_argument(
        "--no-batch-hypercalls",
        dest="batch_hypercalls",
        action="store_false",
        help="run every planned spec through its own executor pass",
    )
    run.add_argument(
        "--verify-plan",
        dest="verify_plan",
        action="store_true",
        help="run every planned test through the uncompiled path too "
        "and fail on any record divergence (compiled-plan audit mode)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="report a per-phase wall-time breakdown "
        "(bringup/run/record/reset) after the campaign",
    )
    run.add_argument(
        "--chaos",
        type=int,
        default=None,
        metavar="SEED",
        help="arm every failpoint probabilistically from this seed "
        "(injects faults into the campaign runner itself; an "
        "interrupted run exits 3 and resumes with --resume)",
    )
    run.add_argument(
        "--chaos-rate",
        dest="chaos_rate",
        type=float,
        default=None,
        metavar="P",
        help="per-hit fire probability for --chaos (default 0.05)",
    )
    run.add_argument("--dossier", default=None, help="write a Markdown dossier")

    rep = sub.add_parser("report", help="re-analyse a saved campaign log")
    rep.add_argument("--log", required=True, help="JSONL log to analyse")
    rep.add_argument(
        "--version",
        default=VULNERABLE_VERSION,
        choices=[VULNERABLE_VERSION, FIXED_VERSION],
        help="kernel version the log was recorded against",
    )

    quarantine = sub.add_parser(
        "quarantine", help="review or edit a killer-quarantine file"
    )
    quarantine.add_argument(
        "--file", required=True, help="quarantine list (JSON)"
    )
    quarantine.add_argument(
        "--remove",
        default=None,
        metavar="TEST_ID",
        help="release one spec from quarantine",
    )
    quarantine.add_argument(
        "--clear", action="store_true", help="release every quarantined spec"
    )

    sub.add_parser("tables", help="print Table I, Table II, Fig. 8 and XML excerpts")
    sub.add_parser("phantom", help="run the phantom-parameter extension")

    truth = sub.add_parser(
        "truthbase", help="dry run: export the documented expectations (no execution)"
    )
    truth.add_argument("--out", required=True, help="truth base output (JSONL)")
    truth.add_argument(
        "--version",
        default=VULNERABLE_VERSION,
        choices=[VULNERABLE_VERSION, FIXED_VERSION],
    )
    truth.add_argument("--functions", default=None)

    feed = sub.add_parser(
        "feedback", help="rank dictionary values by the failures they exposed"
    )
    feed.add_argument("--log", required=True, help="campaign log to mine (JSONL)")
    feed.add_argument("--top", type=int, default=15)

    cmp_ = sub.add_parser(
        "compare", help="compare two campaign logs (e.g. 3.4.0 vs 3.4.1)"
    )
    cmp_.add_argument("--left", required=True, help="baseline log (JSONL)")
    cmp_.add_argument("--right", required=True, help="candidate log (JSONL)")
    cmp_.add_argument("--left-version", default=VULNERABLE_VERSION)
    cmp_.add_argument("--right-version", default=FIXED_VERSION)

    results = sub.add_parser(
        "results", help="campaign results warehouse (SQLite over JSONL logs)"
    )
    results_sub = results.add_subparsers(dest="results_command", required=True)

    ingest = results_sub.add_parser(
        "ingest", help="append a campaign log to the warehouse (idempotent)"
    )
    ingest.add_argument("--db", required=True, help="warehouse database file")
    ingest.add_argument("--log", required=True, help="campaign log (JSONL)")
    ingest.add_argument(
        "--campaign-id",
        dest="campaign_id",
        default=None,
        help="campaign identity (default: the log file's stem)",
    )
    ingest.add_argument(
        "--strategy",
        default="",
        help="generator name/revision to record as provenance",
    )

    query = results_sub.add_parser(
        "query", help="list campaigns or one campaign's verdict summary"
    )
    query.add_argument("--db", required=True, help="warehouse database file")
    query.add_argument(
        "--campaign",
        default=None,
        help="show this campaign's verdict histogram instead of the list",
    )

    diff = results_sub.add_parser(
        "diff", help="spec-by-spec verdict diff between two campaigns"
    )
    diff.add_argument("--db", required=True, help="warehouse database file")
    diff.add_argument("--left", required=True, help="baseline campaign id")
    diff.add_argument("--right", required=True, help="candidate campaign id")

    drift = results_sub.add_parser(
        "drift", help="per-spec verdict churn across all ingested runs"
    )
    drift.add_argument("--db", required=True, help="warehouse database file")
    drift.add_argument(
        "--top",
        type=int,
        default=20,
        help="flaky specs to list after the drifted ones (default 20)",
    )

    dashboard = results_sub.add_parser(
        "dashboard", help="export the warehouse as HTML (and optionally JSON)"
    )
    dashboard.add_argument("--db", required=True, help="warehouse database file")
    dashboard.add_argument("--out", required=True, help="HTML output path")
    dashboard.add_argument(
        "--json", dest="json_out", default=None, help="JSON output path"
    )

    fabric = sub.add_parser(
        "fabric", help="distributed campaign fabric (socket coordinator + workers)"
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)

    def _fabric_campaign_options(p: argparse.ArgumentParser) -> None:
        _campaign_options(p)
        p.add_argument(
            "--batch-records", dest="batch_records", type=int, default=None,
            help="records per data-plane frame (default 32)",
        )
        p.add_argument(
            "--heartbeat-s", dest="heartbeat_s", type=float, default=None,
            help="worker heartbeat cadence in seconds (default 2)",
        )
        p.add_argument(
            "--lease-timeout-s", dest="lease_timeout_s", type=float,
            default=None,
            help="seconds a lease may stall before its worker is "
            "declared lost (default 60)",
        )

    fabric_run = fabric_sub.add_parser(
        "run", help="coordinator + N local loopback worker agents, one shot"
    )
    fabric_run.add_argument(
        "--workers", type=int, default=2, help="local worker agents to spawn"
    )
    _fabric_campaign_options(fabric_run)

    serve = fabric_sub.add_parser(
        "serve", help="coordinator only; start workers with `fabric work`"
    )
    serve.add_argument(
        "--bind",
        default="127.0.0.1:0",
        help="HOST:PORT to listen on (port 0 picks a free port)",
    )
    _fabric_campaign_options(serve)

    work = fabric_sub.add_parser(
        "work", help="one worker agent serving a coordinator"
    )
    work.add_argument(
        "--connect", required=True, help="coordinator HOST:PORT"
    )
    work.add_argument(
        "--name", default=None, help="worker name (default: host-pid)"
    )
    work.add_argument(
        "--no-reconnect",
        dest="no_reconnect",
        action="store_true",
        help="exit when the coordinator connection drops instead of retrying",
    )
    work.add_argument(
        "--heartbeat-s", dest="heartbeat_s", type=float, default=None,
        help="heartbeat cadence in seconds (default 2)",
    )
    return parser


def _campaign(args: argparse.Namespace, **knobs: object) -> Campaign:
    """The campaign the shared run/fabric options describe."""
    return Campaign(
        functions=tuple(args.functions.split(",")) if args.functions else None,
        kernel_version=args.version,
        frames=args.frames,
        strategy=_STRATEGIES[args.strategy](),
        **knobs,  # type: ignore[arg-type]
    )


def _run_options(args: argparse.Namespace) -> dict:
    """Keywords ``Campaign.run`` and ``coordinate`` take alike."""
    return {
        "progress": _progress_printer(args),
        "resume_from": _resume_or_rotate_log(args),
        "log_path": args.log,
        "timeout_s": args.timeout_s,
        "shard_size": args.shard_size,
        "retry_policy": _retry_policy(args),
        "quarantine_path": args.quarantine,
        "log_fsync": args.log_fsync,
    }


def _cmd_run(args: argparse.Namespace) -> int:
    knobs = {}
    if args.journal_budget is not None:
        knobs["journal_budget"] = args.journal_budget
    campaign = _campaign(
        args,
        warm_boot=args.warm_boot,
        delta_reset=args.delta_reset,
        verify_reset=args.verify_reset,
        compiled_plan=args.compiled_plan,
        batch_hypercalls=args.batch_hypercalls,
        verify_plan=args.verify_plan,
        profile=args.profile,
        **knobs,
    )
    total = campaign.total_tests()
    print(f"# campaign: {total} tests on XtratuM {args.version}", file=sys.stderr)
    options = _run_options(args)

    import os

    from repro.fault import failpoints

    chaos_env_before = os.environ.get(failpoints.ENV_VAR)
    if args.chaos is not None:
        # Armed through the environment so forked fabric workers inherit
        # the same seeded fault schedule as the parent.
        rate = (
            args.chaos_rate
            if args.chaos_rate is not None
            else failpoints.DEFAULT_CHAOS_RATE
        )
        os.environ[failpoints.ENV_VAR] = f"chaos:{args.chaos}:{rate}"
        print(
            f"# chaos: failpoints armed (seed {args.chaos}, rate {rate})",
            file=sys.stderr,
        )
    try:
        result = campaign.run(processes=args.processes, **options)
    except ResumeMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except failpoints.ChaosError as exc:
        print(f"# chaos: campaign interrupted by injected fault: {exc}", file=sys.stderr)
        if args.log:
            print(
                f"# completed records are checkpointed in {args.log}; "
                "rerun with --resume (without --chaos) to finish",
                file=sys.stderr,
            )
        return 3
    finally:
        if args.chaos is not None:
            if chaos_env_before is None:
                os.environ.pop(failpoints.ENV_VAR, None)
            else:
                os.environ[failpoints.ENV_VAR] = chaos_env_before
    reset_modes = result.execution_stats.get("reset_modes") or {}
    if reset_modes:
        breakdown = ", ".join(
            f"{name}={reset_modes[name]}"
            for name in (
                "delta",
                "restore",
                "cold",
                "delta_fallbacks",
                "verified",
                "plan_verified",
            )
            if name in reset_modes
        )
        print(f"# reset modes: {breakdown}", file=sys.stderr)
    phase_times = result.execution_stats.get("phase_times") or {}
    if phase_times:
        executed = max(len(result.log), 1)
        breakdown = ", ".join(
            f"{name}={phase_times[name] * 1e6 / executed:.1f}us"
            for name in ("bringup", "run", "record", "reset")
            if name in phase_times
        )
        print(f"# phase times (per test): {breakdown}", file=sys.stderr)
    if args.dossier:
        from repro.fault.dossier import write_dossier

        write_dossier(result, args.dossier, campaign)
        print(f"# dossier written to {args.dossier}", file=sys.stderr)
    return _finish(result, args)


def _progress_printer(args: argparse.Namespace):  # noqa: ANN202
    """The run/fabric progress hook: one stderr line per 200 tests."""

    def progress(done: int, out_of: int, record) -> None:  # noqa: ANN001
        if not args.quiet and done % 200 == 0:
            print(f"#   {done}/{out_of} ...", file=sys.stderr)

    return progress


def _finish(result, args: argparse.Namespace) -> int:  # noqa: ANN001
    """Save the log in canonical order and print the campaign report."""
    if args.log:
        # The stream already checkpointed every record; the final save
        # rewrites the file atomically in canonical spec order.
        result.log.save(args.log)
        print(f"# log written to {args.log}", file=sys.stderr)
    print(report.campaign_summary(result))
    print()
    print(report.table3(result))
    print()
    print(report.issues_report(result))
    return 0


def _parse_endpoint(value: str) -> tuple[str, int]:
    """``HOST:PORT`` -> (host, port); IPv6 hosts may be bracketed."""
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise SystemExit(f"error: expected HOST:PORT, got {value!r}")
    return host.strip("[]") or "127.0.0.1", int(port)


def _resume_or_rotate_log(args: argparse.Namespace) -> CampaignLog | None:
    """The run/fabric ``--log``/``--resume`` contract, shared.

    With ``--resume``, load the partial log (requires ``--log``); without
    it, move an existing log aside so stale records cannot shadow this
    run's results.  Returns the log to resume from, or None.
    """
    from pathlib import Path

    if args.resume:
        if not args.log:
            print("error: --resume requires --log", file=sys.stderr)
            raise SystemExit(2)
        if Path(args.log).exists():
            resume_log = CampaignLog.load(args.log)
            print(
                f"# resuming: {len(resume_log)} records already in {args.log}",
                file=sys.stderr,
            )
            return resume_log
        return None
    if args.log:
        log_path = Path(args.log)
        if log_path.exists():
            import os

            stale = log_path.with_name(log_path.name + ".prev")
            os.replace(log_path, stale)
            print(
                f"# existing {args.log} moved to {stale} "
                "(use --resume to continue it instead)",
                file=sys.stderr,
            )
    return None


def _retry_policy(args: argparse.Namespace):  # noqa: ANN202
    """Build the RetryPolicy from --max-attempts/--quorum (None = default)."""
    if args.max_attempts is None and args.quorum is None:
        return None
    from repro.fault.resilience import RetryPolicy

    max_attempts = args.max_attempts if args.max_attempts is not None else 3
    quorum = args.quorum if args.quorum is not None else min(2, max_attempts)
    return RetryPolicy(max_attempts=max_attempts, quorum=quorum)


def _cmd_fabric(args: argparse.Namespace) -> int:
    if args.fabric_command == "work":
        from repro.fabric import FabricError, WorkerAgent

        host, port = _parse_endpoint(args.connect)
        kwargs = {}
        if args.heartbeat_s is not None:
            kwargs["heartbeat_s"] = args.heartbeat_s
        try:
            WorkerAgent(
                host,
                port,
                name=args.name,
                reconnect=not args.no_reconnect,
                **kwargs,
            ).run()
        except FabricError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    from repro.fabric import FabricError, coordinate

    campaign = _campaign(args)
    total = campaign.total_tests()
    options = _run_options(args)

    if args.fabric_command == "serve":
        bind = _parse_endpoint(args.bind)
        workers = 0
    else:  # fabric run
        bind = ("127.0.0.1", 0)
        workers = args.workers
    print(
        f"# fabric: {total} tests on XtratuM {args.version} "
        f"({workers or 'external'} worker(s))",
        file=sys.stderr,
    )

    def on_listen(host: str, port: int) -> None:
        # Parseable by scripts that start workers against a serve-mode
        # coordinator bound to port 0.
        print(f"# fabric: listening on {host}:{port}", file=sys.stderr, flush=True)

    optional = {}
    if args.batch_records is not None:
        optional["batch_records"] = args.batch_records
    if args.heartbeat_s is not None:
        optional["heartbeat_s"] = args.heartbeat_s
    if args.lease_timeout_s is not None:
        optional["lease_timeout_s"] = args.lease_timeout_s
    try:
        result = coordinate(
            campaign,
            bind=bind,
            workers=workers,
            on_listen=on_listen,
            **options,
            **optional,
        )
    except FabricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResumeMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _finish(result, args)


def _cmd_quarantine(args: argparse.Namespace) -> int:
    from repro.fault.resilience import Quarantine

    quarantine = Quarantine.load(args.file)
    if args.clear:
        count = len(quarantine)
        quarantine.clear()
        quarantine.save()
        print(f"released {count} spec(s); quarantine is empty")
        return 0
    if args.remove is not None:
        if quarantine.remove(args.remove):
            quarantine.save()
            print(f"released {args.remove}")
            return 0
        print(f"error: {args.remove} is not quarantined", file=sys.stderr)
        return 2
    if not quarantine.entries:
        print("quarantine is empty")
        return 0
    print(f"{len(quarantine)} quarantined spec(s):")
    for test_id, entry in sorted(quarantine.entries.items()):
        observations = ",".join(entry.get("observations", ())) or "?"
        print(
            f"  {test_id}  {entry.get('function', '?')}  "
            f"[{observations}]  added {entry.get('added_at', '?')}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    log = CampaignLog.load(args.log)
    campaign = Campaign(kernel_version=args.version)
    result = campaign.analyse(log)
    print(report.campaign_summary(result))
    print()
    print(report.table3(result))
    print()
    print(report.issues_report(result))
    print()
    print(report.severity_summary(result))
    return 0


def _cmd_tables(_args: argparse.Namespace) -> int:
    from repro.fault.xmlio import fig2_excerpt, fig3_excerpt

    print("Table I — XtratuM data types")
    print(report.table1())
    print()
    print("Table II — xm_s32_t test-value set")
    print(report.table2())
    print()
    print(report.fig8())
    print()
    print("Fig. 2 — API Header XML excerpt")
    print(fig2_excerpt())
    print()
    print("Fig. 3 — Data Type XML excerpt")
    print(fig3_excerpt())
    return 0


def _cmd_truthbase(args: argparse.Namespace) -> int:
    from repro.fault.truthbase import build_truthbase

    functions = tuple(args.functions.split(",")) if args.functions else None
    campaign = Campaign(functions=functions, kernel_version=args.version)
    base = build_truthbase(campaign)
    base.save(args.out)
    print(f"truth base: {len(base)} documented expectations -> {args.out}")
    print(f"expected-error share: {base.expected_error_share():.0%}")
    return 0


def _cmd_feedback(args: argparse.Namespace) -> int:
    from repro.fault.feedback import feedback_report

    log = CampaignLog.load(args.log)
    campaign = Campaign()
    result = campaign.analyse(log)
    print(feedback_report(result, top=args.top))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.fault.export import compare_versions

    left = Campaign(kernel_version=args.left_version).analyse(
        CampaignLog.load(args.left)
    )
    right = Campaign(kernel_version=args.right_version).analyse(
        CampaignLog.load(args.right)
    )
    print(compare_versions(left, right).markdown())
    return 0


def _call(entry) -> str:  # noqa: ANN001 - results.DriftEntry
    """``function(arg, ...)``: a drift entry's spec as the call it made."""
    return f"{entry.function}({', '.join(entry.arg_labels)})"


def _cmd_results(args: argparse.Namespace) -> int:
    from repro.results import ResultsWarehouse, diff_campaigns, drift_audit, flaky_specs

    with ResultsWarehouse(args.db) as warehouse:
        if args.results_command == "ingest":
            report_ = warehouse.ingest(
                args.log,
                campaign_id=args.campaign_id,
                strategy=args.strategy,
            )
            print(
                f"ingested {report_.campaign_id}: {report_.inserted} new "
                f"row(s), {report_.duplicates} already present "
                f"({warehouse.row_count(report_.campaign_id)} total)"
            )
            return 0
        if args.results_command == "query":
            if args.campaign is not None:
                try:
                    info = warehouse.campaign(args.campaign)
                except KeyError as exc:
                    print(f"error: {exc.args[0]}", file=sys.stderr)
                    return 2
                print(
                    f"{info.campaign_id}: {info.records} records, kernel "
                    f"{info.kernel_version or '?'}, strategy "
                    f"{info.strategy or '?'}, ingested {info.ingested_at}"
                )
                for verdict, count in warehouse.verdict_summary(
                    args.campaign
                ).items():
                    print(f"  {verdict:<24} {count}")
                return 0
            campaigns = warehouse.campaigns()
            if not campaigns:
                print("warehouse is empty")
                return 0
            for info in campaigns:
                print(
                    f"{info.campaign_id}  kernel={info.kernel_version or '?'}"
                    f"  records={info.records}  ingested={info.ingested_at}"
                )
            return 0
        if args.results_command == "diff":
            try:
                diff = diff_campaigns(warehouse, args.left, args.right)
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
            print(diff.summary())
            for change in diff.changed:
                print(
                    f"  {change.test_id}  {change.function}: "
                    f"{change.left} -> {change.right}"
                )
            return 0
        if args.results_command == "drift":
            drifted = drift_audit(warehouse)
            print(f"{len(drifted)} spec(s) with verdict drift")
            for entry in drifted:
                print(
                    f"  {entry.test_id}  {_call(entry)}: "
                    f"{' -> '.join(entry.verdicts)} "
                    f"(churn {entry.transitions}, score {entry.flaky_score:.2f})"
                )
            flaky = [
                e for e in flaky_specs(warehouse, top=args.top) if not e.drifted
            ]
            if flaky:
                print(f"{len(flaky)} stable-verdict spec(s) under arbitration pressure")
                for entry in flaky:
                    print(
                        f"  {entry.test_id}  {_call(entry)}: "
                        f"score {entry.flaky_score:.2f} "
                        f"({entry.arbitrated_runs} arbitrated run(s))"
                    )
            return 0
        # dashboard
        from repro.results.dashboard import export

        data = export(warehouse, html_path=args.out, json_path=args.json_out)
        print(
            f"dashboard: {data['total_rows']} rows, "
            f"{len(data['campaigns'])} campaign(s), "
            f"{len(data['drift'])} drifted spec(s) -> {args.out}"
        )
        if args.json_out:
            print(f"json export -> {args.json_out}")
        return 0


def _cmd_phantom(_args: argparse.Namespace) -> int:
    from repro.fault.phantom import PhantomCampaign

    result = PhantomCampaign().run()
    print(f"phantom cases executed : {len(result.records)}")
    print(f"failures               : {len(result.failures)}")
    for record, classification in result.failures:
        print(f"  {record.test_id}: {classification.severity.value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "report": _cmd_report,
        "quarantine": _cmd_quarantine,
        "tables": _cmd_tables,
        "phantom": _cmd_phantom,
        "truthbase": _cmd_truthbase,
        "feedback": _cmd_feedback,
        "compare": _cmd_compare,
        "results": _cmd_results,
        "fabric": _cmd_fabric,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
