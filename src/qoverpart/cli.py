"""Command-line surface for enumeration, coefficients, bijections, and verification.

Exit codes: 0 for success (including FLAGGED reports whose proven sides all
agree), 1 when any proven identity fails verification, 2 for usage errors
such as unregistered ids or malformed partition strings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import urllib.request
from typing import Sequence

from .bijections import get_map
from .enumerators import count_sequence, enumerate_class
from .harness import (
    DEFAULT_BOUND,
    compare_with_bfile,
    get_identity,
    parse_bfile,
    render_csv,
    render_records,
    render_table,
    verify,
    verify_all,
)
from .partitions import (
    Overpartition,
    format_overpartition,
    format_partition,
    parse_overpartition,
    parse_partition,
)

CACHE_ENV = "QOVERPART_CACHE_DIR"
FETCH_TIMEOUT_S = 30


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qoverpart",
        description="enumerate partition classes, extract q-series "
        "coefficients, apply bijections, and verify identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list all members of a class at one weight")
    p.add_argument("--class", dest="class_id", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("table", "csv", "records"), default="table")
    p.add_argument("--out")

    p = sub.add_parser("count", help="count class members over a weight range")
    p.add_argument("--class", dest="class_id", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--max-n", type=int)
    p.add_argument("--format", choices=("table", "csv", "records"), default="table")
    p.add_argument("--out")

    p = sub.add_parser("coeff", help="print series-side coefficients of an identity")
    p.add_argument("--id", dest="identity_id", required=True)
    p.add_argument("--max-n", type=int, default=DEFAULT_BOUND)
    p.add_argument("--side", help="restrict to one side label")
    p.add_argument("--format", choices=("table", "csv", "records"), default="table")
    p.add_argument("--out")

    p = sub.add_parser("bijection", help="apply a registered bijection")
    p.add_argument("--map", dest="map_id", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("verify", help="verify one identity or all of them")
    p.add_argument("--id", dest="identity_id", required=True)
    p.add_argument("--max-n", type=int, default=DEFAULT_BOUND)
    p.add_argument("--format", choices=("table", "csv", "records"), default="table")
    p.add_argument("--jobs", type=int)
    p.add_argument("--no-elapsed", action="store_true",
                   help="omit timing from records output")
    p.add_argument("--out")

    p = sub.add_parser("oeis", help="compare an identity's series against a b-file")
    p.add_argument("--id", dest="identity_id", required=True)
    p.add_argument("--bfile", help="path to a local b-file")
    p.add_argument("--fetch", action="store_true",
                   help="retrieve the b-file over HTTP into the cache directory")
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--max-n", type=int, default=250)
    p.add_argument("--out")

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_member(member) -> str:
    if isinstance(member, Overpartition):
        return format_overpartition(member)
    return format_partition(member)


def _cmd_enumerate(args) -> int:
    members = enumerate_class(args.class_id, args.n)
    if args.format == "records":
        lines = []
        for m in members:
            if isinstance(m, Overpartition):
                lines.append(json.dumps(
                    {"parts": list(m.parts), "overlined": list(m.overlined)}))
            else:
                lines.append(json.dumps({"parts": list(m), "overlined": []}))
        text = "\n".join(lines) + ("\n" if lines else "")
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["member"])
        for m in members:
            writer.writerow([_format_member(m)])
        text = buf.getvalue()
    else:
        text = "".join(_format_member(m) + "\n" for m in members)
    _emit(text, args.out)
    return 0


def _cmd_count(args) -> int:
    top = args.max_n if args.n is None else args.n
    rows = list(enumerate(count_sequence(args.class_id, top)))
    if args.n is not None:
        rows = rows[-1:]
    if args.format == "records":
        text = "".join(
            json.dumps({"class": args.class_id, "n": n, "count": c}) + "\n"
            for n, c in rows
        )
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "count"])
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        width = max(len(str(rows[-1][0])), 1)
        text = "".join(f"{n:>{width}} {c}\n" for n, c in rows)
    _emit(text, args.out)
    return 0


def _cmd_coeff(args) -> int:
    record = get_identity(args.identity_id)
    sides = [s for s in record.sides if s.is_series]
    if args.side is not None:
        sides = [s for s in sides if s.label == args.side]
        if not sides:
            labels = ", ".join(s.label for s in record.sides if s.is_series)
            raise ValueError(
                f"identity {record.id!r} has no series side {args.side!r}; "
                f"series sides: {labels or '(none)'}"
            )
    if not sides:
        raise ValueError(f"identity {record.id!r} has no series sides")
    columns = [s.values(args.max_n) for s in sides]
    labels = [s.label for s in sides]
    if args.format == "records":
        lines = []
        for n in range(args.max_n + 1):
            row = {"n": n}
            row.update({lab: col[n] for lab, col in zip(labels, columns)})
            lines.append(json.dumps(row, sort_keys=True))
        text = "\n".join(lines) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n"] + labels)
        writer.writerows(zip(range(args.max_n + 1), *columns))
        text = buf.getvalue()
    else:
        header = ["n"] + labels
        body = [[str(n)] + [str(col[n]) for col in columns]
                for n in range(args.max_n + 1)]
        widths = [max(len(header[c]), max(len(r[c]) for r in body))
                  for c in range(len(header))]
        lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
        lines += ["  ".join(v.rjust(w) for v, w in zip(row, widths)) for row in body]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_bijection(args) -> int:
    spec = get_map(args.map_id)
    if args.inverse:
        op = parse_overpartition(args.input)
        result = format_partition(spec.inverse(op))
    else:
        parts = parse_partition(args.input)
        result = format_overpartition(spec.forward(parts))
    _emit(result + "\n", args.out)
    return 0


def _cmd_verify(args) -> int:
    if args.identity_id == "all":
        reports = verify_all(args.max_n, jobs=args.jobs)
    else:
        reports = [verify(args.identity_id, args.max_n)]
    if args.format == "records":
        text = render_records(reports, include_elapsed=not args.no_elapsed)
    elif args.format == "csv":
        text = render_csv(reports)
    else:
        text = render_table(reports)
    _emit(text, args.out)
    return 1 if any(r.status == "FAIL" for r in reports) else 0


def _cache_dir() -> str:
    return os.environ.get(
        CACHE_ENV, os.path.join(os.path.expanduser("~"), ".cache", "qoverpart")
    )


def _fetch_bfile(identity_id: str) -> str:
    number = identity_id[1:]
    if identity_id[:1] != "a" or not number.isdigit():
        raise ValueError(
            f"--fetch needs an OEIS id such as a027349, not {identity_id!r}; "
            "give a local b-file with --bfile PATH"
        )
    name = f"b{number}.txt"
    path = os.path.join(_cache_dir(), name)
    if not os.path.exists(path):
        os.makedirs(_cache_dir(), exist_ok=True)
        url = f"https://oeis.org/A{number}/{name}"
        with urllib.request.urlopen(url, timeout=FETCH_TIMEOUT_S) as resp:
            data = resp.read().decode()
        # a reader of the cache sees either no file or the whole b-file
        fd, tmp = tempfile.mkstemp(dir=_cache_dir(), prefix=f".{name}.")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return path


def _cmd_oeis(args) -> int:
    record = get_identity(args.identity_id)
    if args.bfile:
        path = args.bfile
    elif args.fetch:
        path = _fetch_bfile(args.identity_id)
    else:
        raise ValueError("provide --bfile PATH or --fetch")
    with open(path) as fh:
        entries = parse_bfile(fh.read())
    sides = [s for s in record.sides if s.is_series]
    if not sides:
        raise ValueError(f"identity {record.id!r} has no series sides to compare")
    lines = []
    ok = True
    for side in sides:
        values = side.values(args.max_n)
        rep = compare_with_bfile(values, entries, args.offset)
        ok = ok and rep["match"]
        if rep["first_mismatch"]:
            m = rep["first_mismatch"]
            detail = f"first mismatch at n={m['n']}: computed {m['computed']} vs bfile {m['bfile']}"
        else:
            detail = f"all {rep['overlap']} overlapping entries match"
        lines.append(f"{side.label}: {'MATCH' if rep['match'] else 'MISMATCH'} ({detail})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


_HANDLERS = {
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "coeff": _cmd_coeff,
    "bijection": _cmd_bijection,
    "verify": _cmd_verify,
    "oeis": _cmd_oeis,
}


def run(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    for name, least in (("n", 0), ("max_n", 0), ("jobs", 1)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            print(f"error: --{name.replace('_', '-')} must be >= {least}", file=sys.stderr)
            return 2
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
