"""Check that campaign logs hold the same records as a reference log.

Usage::

    python scripts/records_equal.py REFERENCE.jsonl LOG.jsonl [LOG.jsonl ...]

Records are compared by test id after dropping the fields that
legitimately differ between runs of one campaign — wall time, host
context and the arbitration provenance (``attempts``, ``arbitrated``);
the stats trailer is run-specific and skipped.  Exits with status 1,
naming the first log that diverges, or 0 when every log matches.
"""

import json
import sys

#: Per-run provenance, not part of a test's verdict.
VOLATILE = ("wall_time_s", "host_context", "attempts", "arbitrated")


def stripped(path: str) -> list[dict]:
    """The log's records minus volatile fields, sorted by test id."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            data = json.loads(line)
            if "test_id" not in data:
                continue  # stats trailer
            for field in VOLATILE:
                data.pop(field, None)
            out.append(data)
    return sorted(out, key=lambda data: data["test_id"])


def main(argv: list[str]) -> int:
    """Compare every log in ``argv[1:]`` with the reference ``argv[0]``."""
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    reference = stripped(argv[0])
    if not reference:
        print(f"{argv[0]}: reference log is empty", file=sys.stderr)
        return 1
    for path in argv[1:]:
        if stripped(path) != reference:
            print(f"{path}: records differ from {argv[0]}", file=sys.stderr)
            return 1
    print(f"{len(reference)} records identical across {len(argv) - 1} log(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
