"""Regenerate the committed reference verdicts in ``reference/``.

Runs the Table III campaign cold and serially (every test on a freshly
booted system, no warm-boot snapshot, delta reset or pool) on each
kernel version, checks the paper's claims on it, and writes one file
per version: the digest of every spec's record and its warehouse
verdict.  Run from the repository root::

    python3 perfbench/make_reference.py

Only regenerate when the program is meant to produce different records;
the benchmark fails every run whose records disagree with these files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from reference import REFERENCE_DIR, check_claims, read_records, record_digest  # noqa: E402


def build(version: str, workdir: Path) -> dict:
    from repro.fault.testlog import TestRecord
    from repro.results.schema import verdict_of

    log, result = workdir / f"{version}.jsonl", workdir / f"{version}.json"
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), "campaign", "--version", version,
         "--cold-boot", "--log", str(log), "--result", str(result)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        stdout=subprocess.DEVNULL,
        check=True,
    )
    facts = json.loads(result.read_text())
    problems = check_claims(version, facts["tests"], facts["idents"][version])
    if problems:
        raise SystemExit("reference run breaks the paper's claims: " + "; ".join(problems))
    specs = [
        [data["test_id"], record_digest(data), verdict_of(TestRecord.from_dict(data))]
        for data in read_records(log)
    ]
    return {
        "kernel_version": version,
        "source": "cold-boot serial campaign",
        "tests": len(specs),
        "idents": sorted(facts["idents"][version]),
        "specs": specs,
    }


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for version in ("3.4.0", "3.4.1"):
            data = build(version, Path(tmp))
            path = REFERENCE_DIR / f"{version}.json"
            path.write_text(
                "{\n"
                + "".join(
                    f'"{key}": {json.dumps(data[key])},\n'
                    for key in ("kernel_version", "source", "tests", "idents")
                )
                + '"specs": [\n'
                + ",\n".join(json.dumps(spec) for spec in data["specs"])
                + "\n]}\n"
            )
            print(f"{path}: {data['tests']} specs, issues {data['idents']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
