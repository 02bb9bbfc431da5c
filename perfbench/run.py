"""Campaign benchmark: the paper's Table III campaign, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_serial --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seconds 240      # every workload

Each campaign runs in a fresh process (``child.py``) through the
program's public entry points, so set-up is paid the way a user pays it.
A run repeats campaigns of its workload until ``--seconds`` is spent and
reports the median per campaign, because one campaign's time swings by
tens of percent on a shared host while a median over several holds.
``--workload all`` interleaves every workload campaign by campaign, so
host drift hits them alike.

Every campaign's output is checked against the committed reference
verdicts (``reference/``) and the paper's claims: 2864 tests, the nine
known issues on XtratuM 3.4.0, none on 3.4.1.  A wrong record or claim
fails the run (exit 1).  A campaign still running after ``DEADLINE_S``
seconds is killed with its whole process tree; its specs without a
record count as failed in ``ok_share``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced campaigns and prints the per-layer breakdown of the
median traced campaign: each layer's self time, their sum against
``wall_s`` with the remainder (``unattributed_s``), and the tracing
overhead (median over adjacent pairs of traced minus untraced ``wall_s``).

The Table III suites are deterministic cartesian products, so
``--seed`` is accepted and recorded but changes no input.

The multi-process ``fabric run --workers 2`` path has no workload here:
on a 2-CPU host a third of its campaigns hang in the steal livelock
(``WorkerAgent._revoked`` in ``repro/fabric/worker.py`` is never
cleared, so an index stolen from a worker and leased back to it is
skipped forever), which makes its medians bimodal.  It returns with the
fix of that defect.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (specs), and ``metrics``.  The full record
of a run (host stamp, every campaign, the spans) is written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

from proctree import become_subreaper, run_tree  # noqa: E402
from reference import PAPER_TESTS, Check, Reference, check_claims, read_records  # noqa: E402
from spans import breakdown  # noqa: E402

#: Wall seconds before a campaign's process tree is killed.
DEADLINE_S = 30.0

#: (name, unit, better, bound); each is a median over a run's campaigns,
#: except ok_share, which pools every campaign's specs.  The time bounds
#: are wide because this host's speed drifts by up to half within minutes
#: (the host probe in every result set shows it).
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("tests_per_s", "1/s", "higher", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_share", "share", "higher", 0.01),
)

#: (name, unit, better, end-to-end metric it moves, workloads it moves on).
PER_LAYER = (
    ("python.start_s", "s", "lower", "setup_s", "all"),
    ("import.time_s", "s", "lower", "setup_s", "all"),
    ("gen.time_s", "s", "lower", "setup_s", "all"),
    ("gen.specs", "count", "higher", "setup_s", "all"),
    ("plan.time_s", "s", "lower", "setup_s", "paper_serial"),
    ("plan.entries", "count", "higher", "setup_s", "paper_serial"),
    ("boot.time_s", "s", "lower", "setup_s", "paper_serial"),
    ("executor.busy_s", "s", "lower", "wall_s", "paper_serial fixed_cold"),
    ("executor.test_ms_p50", "ms", "lower", "tests_per_s", "paper_serial fixed_cold"),
    ("executor.test_ms_p99", "ms", "lower", "tests_per_s", "paper_serial fixed_cold"),
    ("executor.reset.delta", "count", "higher", "tests_per_s", "paper_serial"),
    ("executor.reset.restore", "count", "lower", "tests_per_s", "paper_serial"),
    ("executor.reset.cold", "count", "lower", "tests_per_s", "fixed_cold"),
    ("executor.reset.delta_fallbacks", "count", "lower", "tests_per_s", "paper_serial"),
    ("executor.delta_share", "share", "higher", "tests_per_s", "paper_serial"),
    ("executor.phase.bringup_s", "s", "lower", "wall_s", "fixed_cold"),
    ("executor.phase.run_s", "s", "lower", "wall_s", "paper_serial fixed_cold"),
    ("executor.phase.record_s", "s", "lower", "wall_s", "paper_serial fixed_cold"),
    ("executor.phase.reset_s", "s", "lower", "wall_s", "paper_serial"),
    ("analyse.time_s", "s", "lower", "wall_s", "log_replay paper_serial"),
    ("analyse.records_per_s", "1/s", "higher", "wall_s", "log_replay"),
    ("report.time_s", "s", "lower", "wall_s", "log_replay"),
    ("log.stream_s", "s", "lower", "wall_s", "paper_serial fixed_cold"),
    ("log.save_s", "s", "lower", "wall_s", "paper_serial fixed_cold"),
    ("log.load_s", "s", "lower", "wall_s", "log_replay"),
    ("log.bytes", "B", "lower", "wall_s", "log_replay paper_serial"),
    ("warehouse.open_s", "s", "lower", "setup_s", "log_replay"),
    ("warehouse.ingest_s", "s", "lower", "wall_s", "log_replay"),
    ("warehouse.rows_per_s", "1/s", "higher", "wall_s", "log_replay"),
    ("warehouse.diff_s", "s", "lower", "wall_s", "log_replay"),
    ("layers.sum_s", "s", "lower", "wall_s", "all"),
    ("trace.wall_s", "s", "lower", "wall_s", "all"),
    ("unattributed_s", "s", "lower", "wall_s", "all"),
    ("trace.overhead_s", "s", "lower", "wall_s", "all"),
)


#: Span name -> per-layer self-time metric.
SPAN_METRIC = {
    "python.start": "python.start_s",
    "import": "import.time_s",
    "fault.generation": "gen.time_s",
    "fault.plan": "plan.time_s",
    "tsim.boot": "boot.time_s",
    "fault.executor": "executor.busy_s",
    "fault.analysis": "analyse.time_s",
    "fault.report": "report.time_s",
    "fault.testlog.stream": "log.stream_s",
    "fault.testlog.save": "log.save_s",
    "fault.testlog.load": "log.load_s",
    "results.open": "warehouse.open_s",
    "results.ingest": "warehouse.ingest_s",
    "results.diff": "warehouse.diff_s",
}


#: Every workload's inputs are the Table III suites: cartesian products
#: fixed by the campaign configuration, not drawn from a seed.
SEED_NOTE = "; suites are fixed cartesian products, --seed changes no input"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # child.py subcommand
    versions: tuple[str, ...]
    options: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_serial",
            "Table III on 3.4.0 through the serial run path with defaults; the "
            "batched delta-reset loop, tsim and xm dispatch do the work" + SEED_NOTE,
            "campaign", ("3.4.0",),
        ),
        Workload(
            "fixed_cold",
            "Table III on fixed 3.4.1 with cold boots; per-test pack-and-boot "
            "dominates and delta reset and batching are bypassed" + SEED_NOTE,
            "campaign", ("3.4.1",), ("--cold-boot",),
        ),
        Workload(
            "log_replay",
            "load, analyse, report, ingest and diff the 3.4.0 and 3.4.1 logs; "
            "log decode and oracle/classify do the work, the executor none" + SEED_NOTE,
            "replay", ("3.4.0", "3.4.1"),
        ),
    )
}

#: Workloads BENCHMARK.json leaves out, and why; each still runs by name
#: and in ``--workload all``.
DROPPED = {
    "fixed_cold": (
        "a third workload of 56 s runs does not fit the run budget (4 + 22 x 3 "
        "runs of about 55 s each exceed 3420 s); its layer, the executor, is "
        "measured on paper_serial, and its runs spread as much (IQR of 5 runs: "
        "wall_s 13%, tests_per_s 14%)"
    ),
}


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


@dataclass
class Sample:
    """One campaign, as measured from outside and checked."""

    workload: str
    traced: bool
    wall_s: float
    setup_s: float | None
    tests_per_s: float
    cpu_s: float
    peak_rss_mb: float
    check: Check
    deadline_hit: bool
    facts: dict | None = field(default=None, repr=False)
    spawn: float = 0.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def iqr_share(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


# -- host stamp --------------------------------------------------------------


def host_probe_s() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed diagnostic only."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_stamp(root: Path) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():  # a plain source checkout has no commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_digest": source_digest(root),
    }


# -- one campaign ------------------------------------------------------------


class Bench:
    """Runs and checks campaigns for one benchmark invocation."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root = root
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.refs = {v: Reference.load(v) for v in ("3.4.0", "3.4.1")}
        self.replay_logs: list[Path] | None = None
        self.count = 0

    def child(self, args: list[str]) -> list[str]:
        return [sys.executable, str(HERE / "child.py"), *args]

    def prepare(self, workload: Workload) -> None:
        """Untimed set-up: the saved logs log_replay reads, checked."""
        if workload.command != "replay" or self.replay_logs is not None:
            return
        cache = OUT / "cache" / source_digest(self.root)
        logs = [cache / f"{v}.jsonl" for v in workload.versions]
        cache.mkdir(parents=True, exist_ok=True)
        for version, log in zip(workload.versions, logs):
            if not log.exists():
                tmp = cache / f"{version}.{os.getpid()}.tmp"
                written = run_tree(
                    self.child(["campaign", "--version", version, "--log",
                                str(tmp), "--result", f"{tmp}.result"]),
                    deadline_s=DEADLINE_S * 4, env=self.env, cwd=self.root,
                )
                if written.returncode != 0:
                    raise BenchError(f"writing the {version} replay log failed")
                os.replace(tmp, log)
                os.unlink(f"{tmp}.result")
            check = self.refs[version].check_records(read_records(log))
            if check.failed or check.mismatched:
                raise BenchError(f"replay log {log} disagrees with the reference")
        self.replay_logs = logs

    def run(self, workload: Workload, traced: bool) -> Sample:
        self.count += 1
        cdir = self.workdir / f"{self.count:04d}-{workload.name}"
        cdir.mkdir(parents=True)
        log, result = cdir / "log.jsonl", cdir / "result.json"
        if workload.command == "replay":
            args = ["replay", "--logs", *map(str, self.replay_logs),
                    "--db", str(cdir / "warehouse.sqlite")]
        else:
            args = [workload.command, "--version", workload.versions[0],
                    "--log", str(log), *workload.options]
        args += ["--result", str(result)] + (["--trace"] if traced else [])
        with open(cdir / "stderr.txt", "wb") as err:
            tree = run_tree(
                self.child(args), deadline_s=DEADLINE_S, env=self.env,
                cwd=self.root, stderr=err,
            )
        facts = json.loads(result.read_text()) if result.exists() else None
        if facts is None and not tree.deadline_hit:
            tail = (cdir / "stderr.txt").read_text(errors="replace")[-2000:]
            raise BenchError(
                f"{workload.name} campaign exited {tree.returncode}:\n{tail}"
            )
        check = self.check(workload, facts, log)
        if tree.deadline_hit:
            print(f"# {workload.name}: deadline {DEADLINE_S:g}s hit, "
                  f"{len(check.missing)} spec(s) unresolved, e.g. "
                  f"{check.missing[:7]}", file=sys.stderr)
        if facts is None:
            wall = tree.end - tree.start
            sample = Sample(
                workload.name, traced, wall, None, check.matched / wall,
                tree.cpu_s, tree.peak_rss_mb(), check, True, None, tree.start,
            )
        else:
            wall = facts["t_end"] - tree.start
            setup = facts["t_first"] - tree.start
            sample = Sample(
                workload.name, traced, wall, setup,
                facts["records"] / (wall - setup), tree.cpu_s,
                tree.peak_rss_mb(facts["rss_self_kb"]), check, tree.deadline_hit,
                facts, tree.start,
            )
        if not check.wrong:
            shutil.rmtree(cdir)
        return sample

    def check(self, workload: Workload, facts: dict | None, log: Path) -> Check:
        total = Check(attempted=0)
        if workload.command == "replay":
            for version in workload.versions:
                ref = self.refs[version]
                if facts is None:
                    total.merge(Check(attempted=len(ref.specs), missing=list(ref.specs)))
                    continue
                verdicts = facts["verdicts"][version]
                part = ref.check_verdicts(verdicts)
                part.claims = check_claims(version, len(verdicts), facts["idents"][version])
                total.merge(part)
            if facts is not None:
                expected = self.replay_changes()
                if facts["diff_changed"] != expected:
                    total.claims.append(
                        f"diff_campaigns reports {facts['diff_changed']} changed "
                        f"verdicts, the reference {expected}"
                    )
            return total
        version = workload.versions[0]
        records = read_records(log)
        total.merge(self.refs[version].check_records(records))
        if facts is not None:
            total.claims = check_claims(version, facts["tests"], facts["idents"][version])
            if facts["records"] != PAPER_TESTS:
                total.claims.append(f"{facts['records']} records, expected {PAPER_TESTS}")
        return total

    def replay_changes(self) -> int:
        left, right = (self.refs[v].specs for v in ("3.4.0", "3.4.1"))
        return sum(1 for tid, (_d, v) in left.items() if right[tid][1] != v)


# -- metrics -----------------------------------------------------------------


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    plain = [s for s in samples if not s.traced]
    attempted = sum(s.check.attempted for s in samples)
    return {
        "wall_s": median([s.wall_s for s in plain]),
        "setup_s": median([s.setup_s for s in plain if s.setup_s is not None]),
        "tests_per_s": median([s.tests_per_s for s in plain]),
        "cpu_s": median([s.cpu_s for s in plain]),
        "peak_rss_mb": median([s.peak_rss_mb for s in plain]),
        "ok_share": sum(s.check.matched for s in samples) / attempted,
    }


def percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def layer_metrics(samples: list[Sample]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of the median traced campaign, and its spans."""
    traced = sorted((s for s in samples if s.traced and s.facts), key=lambda s: s.wall_s)
    if not traced:
        raise BenchError("no traced campaign finished")
    pick = traced[(len(traced) - 1) // 2]
    facts = pick.facts
    spans = [*facts["spans"],
             {"id": -1, "name": "python.start", "parent": None,
              "duration": facts["t_main"] - pick.spawn}]
    layers, unattributed = breakdown(spans, pick.wall_s)
    out = {name: 0.0 for name, *_ in PER_LAYER}
    for span_name, seconds in layers.items():
        out[SPAN_METRIC[span_name]] = seconds
    records = facts["records"]
    stats = facts.get("stats") or {}
    modes = stats.get("reset_modes") or {}
    phases = stats.get("phase_times") or {}
    arrivals = facts["arrivals"]
    gaps = sorted(
        (b - a) * 1e3 for a, b in zip([facts.get("t_run")] + arrivals, arrivals)
    ) if arrivals else []
    # Adjacent untraced/traced pairs ran under nearly the same host speed.
    overheads = [
        t.wall_s - u.wall_s
        for u, t in zip(samples[0::2], samples[1::2])
        if t.traced and not u.traced and t.facts and u.facts
    ]
    out.update({
        "gen.specs": facts["tests"],
        "plan.entries": facts["plan_entries"],
        "executor.test_ms_p50": percentile(gaps, 0.5),
        "executor.test_ms_p99": percentile(gaps, 0.99),
        "executor.delta_share": modes.get("delta", 0) / records,
        "log.bytes": facts["log_bytes"],
        "layers.sum_s": sum(layers.values()),
        "trace.wall_s": pick.wall_s,
        "unattributed_s": unattributed,
        "trace.overhead_s": median(overheads),
    })
    for mode in ("delta", "restore", "cold", "delta_fallbacks"):
        out[f"executor.reset.{mode}"] = modes.get(mode, 0)
    for phase in ("bringup", "run", "record", "reset"):
        out[f"executor.phase.{phase}_s"] = phases.get(phase, 0.0)
    if out["analyse.time_s"]:
        out["analyse.records_per_s"] = records / out["analyse.time_s"]
    if out["warehouse.ingest_s"]:
        out["warehouse.rows_per_s"] = records / out["warehouse.ingest_s"]
    return out, {"campaign_wall_s": pick.wall_s, "spans": spans}


# -- the run -----------------------------------------------------------------


def measure(bench: Bench, workloads: list[Workload], seconds: float,
            trace: bool) -> dict[str, list[Sample]]:
    """Campaigns round-robin over ``workloads`` until ``seconds`` is spent.

    Traced runs alternate untraced and traced campaigns, so the tracing
    overhead is measured under the same host conditions.  A round starts
    only when its expected length still fits; at least two rounds (four
    in a traced run) always run.
    """
    samples: dict[str, list[Sample]] = {w.name: [] for w in workloads}
    round_s: list[float] = []
    start = time.monotonic()
    minimum = 4 if trace else 2
    while True:
        if len(round_s) >= minimum:
            if time.monotonic() - start + median(round_s) > seconds:
                return samples
        traced = trace and len(round_s) % 2 == 1
        began = time.monotonic()
        for workload in workloads:
            samples[workload.name].append(bench.run(workload, traced))
        round_s.append(time.monotonic() - began)


def summarise(name: str, samples: list[Sample], metrics: dict, units: dict) -> None:
    plain = [s for s in samples if not s.traced]
    print(f"# {name}: {len(samples)} campaign(s), {len(plain)} untraced", file=sys.stderr)
    for metric, value in metrics.items():
        values = [getattr(s, metric) for s in plain if getattr(s, metric, None) is not None]
        spread = f"  IQR {iqr_share(values):.1%} of median, n={len(values)}" if values else ""
        print(f"#   {metric:<32} {value:>14.6g} {units[metric]:<6}{spread}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the Table III suites are fixed")
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        workloads = list(WORKLOADS.values())
        for name, why in DROPPED.items():
            print(f"# {name}: not in BENCHMARK.json: {why}", file=sys.stderr)
    else:
        workloads = [WORKLOADS[args.workload]]
    trace = bool(args.trace)
    become_subreaper()
    stamp = host_stamp(ROOT)
    stamp["probe_s_start"] = host_probe_s()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / "work" / tag
    bench = Bench(ROOT, workdir)
    try:
        for workload in workloads:
            bench.prepare(workload)
        samples = measure(bench, workloads, args.seconds, trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stamp["probe_s_end"] = host_probe_s()

    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    metrics: dict[str, dict] = {}
    record = {"args": vars(args), "host": stamp, "workloads": {}}
    total = Check(attempted=0)
    for workload in workloads:
        runs = samples[workload.name]
        for sample in runs:
            total.merge(sample.check)
        if trace:
            values, detail = layer_metrics(runs)
        else:
            values, detail = end_to_end(runs), {}
        summarise(workload.name, runs, values, units)
        prefix = "" if len(workloads) == 1 else f"{workload.name}."
        for name, value in values.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
        record["workloads"][workload.name] = {
            "metrics": values,
            "campaigns": [
                {k: v for k, v in vars(s).items() if k not in ("facts", "check")}
                | {"matched": s.check.matched, "attempted": s.check.attempted}
                for s in runs
            ],
            **detail,
        }
    for problem in total.claims:
        print(f"error: {problem}", file=sys.stderr)
    if total.mismatched:
        print(f"error: {len(total.mismatched)} record(s) differ from the reference, "
              f"e.g. {total.mismatched[:5]} (kept under {workdir})", file=sys.stderr)
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    OUT.joinpath("results", f"{tag}.json").write_text(json.dumps(record, indent=1))
    if not total.wrong:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"host": stamp, "seed": args.seed}))
    print(json.dumps({
        "correct": not total.wrong,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": metrics,
    }))
    return 1 if total.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
