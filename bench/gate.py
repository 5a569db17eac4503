"""Correctness gate: decides whether one CLI command gave the right answer.

A command fails when any of these holds:

- it exits with a code other than 0;
- a ``verify`` record has the wrong verdict: every record passes except the
  two claims in ``EXPECTED_FLAGGED``, which are flagged at the given weight;
- two series columns of one ``coeff`` row disagree, or the ``a027349``
  column differs from the vendored b-file where they overlap;
- its output differs from the digest recorded on the seed (``digests.json``).
  ``verify`` records are hashed byte for byte; ``coeff`` output is hashed as
  its common coefficient sequence, so only the numbers are pinned.  The
  ``--jobs`` flag is not part of the digest key, so a parallel run must be
  byte-identical to the sequential one.

Run ``python3 bench/gate.py`` to re-record ``digests.json`` from the current
program; it refuses to record an output that fails the other checks.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
from pathlib import Path

# Known answers at every bound the workloads use: the claim side of each of
# these records first disagrees at the given weight.  Every other record,
# proven or claim, passes.
EXPECTED_FLAGGED = {"lebesgue:a=0,b=-1": 1, "slater121": 5}
BFILE_ID = "a027349"
BFILE_PATH = Path("src", "qoverpart", "data", "a027349.txt")
DIGESTS_PATH = Path(__file__).with_name("digests.json")


def digest_key(argv) -> str:
    argv = list(argv)
    if "--jobs" in argv:
        i = argv.index("--jobs")
        del argv[i:i + 2]
    return " ".join(argv)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def parse_bfile(text: str) -> dict[int, int]:
    """OEIS b-file lines "n a(n)" as a dict; "#" comments and blanks skipped."""
    table = {}
    for line in text.splitlines():
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            table[int(fields[0])] = int(fields[1])
    return table


def verdict_errors(text: str) -> list[str]:
    errors = []
    lines = text.splitlines()
    if not lines:
        return ["no records"]
    for line in lines:
        rec = json.loads(line)
        flagged_at = EXPECTED_FLAGGED.get(rec["id"])
        if flagged_at is None:
            if rec["status"] != "PASS":
                errors.append(f"{rec['id']}: {rec['status']}, expected PASS")
            continue
        n = (rec["first_mismatch"] or {}).get("n")
        if rec["status"] != "FLAGGED" or n != flagged_at:
            errors.append(f"{rec['id']}: {rec['status']} at n={n}, "
                          f"expected FLAGGED at n={flagged_at}")
    return errors


def coeff_values(identity_id: str, text: str,
                 bfile: dict[int, int]) -> tuple[list[int], list[str]]:
    """The common coefficient column of a ``coeff --format csv`` output."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or len(rows[0]) < 2:
        return [], ["no series columns"]
    values, errors = [], []
    for expected_n, row in enumerate(rows[1:]):
        n, *cols = map(int, row)
        if n != expected_n:
            errors.append(f"row {expected_n} is labelled n={n}")
        if len(set(cols)) != 1:
            errors.append(f"series columns disagree at n={n}: {cols}")
        values.append(cols[0])
    if identity_id == BFILE_ID:
        bad = [n for n, v in enumerate(values) if n in bfile and bfile[n] != v]
        if bad:
            errors.append(f"differs from the b-file at n={bad[0]}")
    return values, errors


class Gate:
    def __init__(self, root: Path, digests: dict[str, str] | None = None):
        self.bfile = parse_bfile((root / BFILE_PATH).read_text())
        if digests is None:
            digests = json.loads(DIGESTS_PATH.read_text())
        self.digests = digests

    def content(self, argv, text: str) -> tuple[str, list[str]]:
        """The digest of an output and every error found in it."""
        try:
            if argv[0] == "verify":
                return sha256(text), verdict_errors(text)
            values, errors = coeff_values(argv[argv.index("--id") + 1], text, self.bfile)
            return sha256(" ".join(map(str, values))), errors
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return "", [f"malformed output: {type(exc).__name__}: {exc}"]

    def check(self, argv, rc, text: str) -> str | None:
        """Why the command failed, or None when it gave the right answer."""
        if rc != 0:
            return f"exit code {rc}"
        digest, errors = self.content(argv, text)
        want = self.digests.get(digest_key(argv))
        if want is None:
            errors.append("no recorded digest")
        elif digest != want:
            errors.append(f"output digest {digest[:12]} differs from recorded {want[:12]}")
        return "; ".join(errors) or None


def record_digests(root: Path) -> dict[str, str]:
    from run import load_program, run_command, scratch_dir
    from workloads import commands

    cli = load_program(root)
    gate = Gate(root, digests={})
    digests = {}
    with scratch_dir(root) as tmp:
        for workload in ("verify-all-40", "coeff-800", "transport-35"):
            for argv in commands(workload, 0):
                rc, text, _, _ = run_command(cli, argv, tmp / "out")
                digest, errors = gate.content(argv, text)
                if rc != 0 or errors:
                    raise SystemExit(f"refusing to record {' '.join(argv)}: "
                                     f"exit {rc}; {'; '.join(errors)}")
                digests[digest_key(argv)] = digest
    return digests


if __name__ == "__main__":
    repo = Path(__file__).resolve().parent.parent
    recorded = record_digests(repo)
    DIGESTS_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} digests in {DIGESTS_PATH}", file=sys.stderr)
