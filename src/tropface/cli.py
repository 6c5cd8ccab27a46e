"""Command-line surface: matrix ingestion, type queries, complex reports
and SVG figures.

Matrices arrive as JSON documents ``{"rows": n, "cols": d, "entries":
[[...]]}`` whose entries are rational strings ("-8", "3/2") or integers;
floats are rejected to keep every computation exact.  Sets printed or
parsed on the command line are 1-based, e.g. the type
"({2},{1,2},{1},{1,3})" and the partition "({3}|{2}|{1})".

Exit codes: 0 success, 2 parse error, 3 size cap exceeded, 4 input is not
a type, 5 rendering requested for an arrangement without exactly 3 rows.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .boolmat import BoolMatrix
from .complex import (DEFAULT_ENUM_CAP, CapExceeded, act_on_type, cell_of,
                      enumerate_types, is_type)
from .facemonoid import OrderedSetPartition
from .render import render_svg
from .tropical import Arrangement, is_realized_type, type_of_point

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_NOT_TYPE = 4
EXIT_RENDER_DIM = 5


class ParseFailure(ValueError):
    """Any malformed command-line or file input."""


def parse_scalar(v) -> Fraction:
    if isinstance(v, bool) or isinstance(v, float):
        raise ParseFailure(f"entry {v!r} is not an exact rational")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseFailure(f"cannot parse {v!r} as a rational: {exc}") from exc


def format_scalar(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def load_arrangement(path: str) -> Arrangement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseFailure(f"cannot read matrix file {path}: {exc}") from exc
    if not isinstance(doc, dict) or not {"rows", "cols", "entries"} <= doc.keys():
        raise ParseFailure("matrix file needs keys rows, cols, entries")
    n, d, entries = doc["rows"], doc["cols"], doc["entries"]
    # bool is an int subclass, so true would pass an isinstance check
    if not all(type(v) is int and v >= 1 for v in (n, d)):
        raise ParseFailure("rows and cols must be positive integers")
    if not isinstance(entries, list) or len(entries) != n \
            or any(not isinstance(r, list) or len(r) != d for r in entries):
        raise ParseFailure(f"entries must be a {n}x{d} array")
    return Arrangement([[parse_scalar(v) for v in row] for row in entries])


def parse_point(text: str, n: int) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ParseFailure(f"point needs {n} comma-separated coordinates")
    return tuple(parse_scalar(p) for p in parts)


def _parse_braced_groups(text: str, what: str, sep: str) -> list:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseFailure(f"{what} must be wrapped in parentheses")
    groups = []
    for chunk in text[1:-1].split(sep):
        chunk = chunk.strip()
        if not (chunk.startswith("{") and chunk.endswith("}")):
            raise ParseFailure(f"{what} blocks must look like {{1,2}}")
        body = chunk[1:-1].strip()
        elems = []
        if body:
            for tok in body.split(","):
                tok = tok.strip()
                if not tok.isdigit():
                    raise ParseFailure(f"bad element {tok!r} in {what}")
                elems.append(int(tok))
        groups.append(elems)
    return groups


def parse_type_matrix(text: str, n: int, d: int) -> BoolMatrix:
    """Columns-as-subsets form, 1-based rows: "({2},{1,2},{1},{1,3})"."""
    groups = _split_type_groups(text)
    if len(groups) != d:
        raise ParseFailure(f"type must list {d} columns")
    cols = []
    for g in groups:
        col = set()
        for e in g:
            if not 1 <= e <= n:
                raise ParseFailure(f"row index {e} outside 1..{n}")
            col.add(e - 1)
        cols.append(col)
    return BoolMatrix.from_columns(n, cols)


def _split_type_groups(text: str) -> list:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseFailure("type must be wrapped in parentheses")
    body = text[1:-1]
    groups = []
    i = 0
    while i < len(body):
        if body[i].isspace() or body[i] == ",":
            i += 1
            continue
        if body[i] != "{":
            raise ParseFailure("type columns must look like {1,2}")
        end = body.find("}", i)
        if end < 0:
            raise ParseFailure("unbalanced braces in type")
        inner = body[i + 1:end].strip()
        elems = []
        if inner:
            for tok in inner.split(","):
                tok = tok.strip()
                if not tok.isdigit():
                    raise ParseFailure(f"bad element {tok!r} in type")
                elems.append(int(tok))
        groups.append(elems)
        i = end + 1
    return groups


def format_type(b: BoolMatrix) -> str:
    cols = []
    for col in b.columns():
        cols.append("{" + ",".join(str(i + 1) for i in col) + "}")
    return "(" + ",".join(cols) + ")"


def parse_partition(text: str, n: int) -> OrderedSetPartition:
    """Blocks-left-to-right form, 1-based: "({1,3}|{2})"."""
    groups = _parse_braced_groups(text, "partition", "|")
    try:
        return OrderedSetPartition.from_sets(
            n, [[e - 1 for e in g] for g in groups])
    except ValueError as exc:
        raise ParseFailure(f"bad partition: {exc}") from exc


def format_partition(p: OrderedSetPartition) -> str:
    return "(" + "|".join(
        "{" + ",".join(str(e + 1) for e in blk) + "}"
        for blk in p.block_sets()) + ")"


def _report(arr: Arrangement, cap: int, check_geometric: bool) -> dict:
    cells = enumerate_types(arr, cap=cap)
    if check_geometric:
        for cell in cells:
            if not is_realized_type(arr, cell.type):
                raise RuntimeError(
                    "combinatorial and geometric type tests disagree on "
                    + format_type(cell.type))
    listed = sorted(
        cells,
        key=lambda c: (-c.dimension,
                       tuple(tuple(i + 1 for i in col)
                             for col in c.type.columns())))
    summary = {}
    for cell in cells:
        summary[str(cell.dimension)] = summary.get(str(cell.dimension), 0) + 1
    return {
        "cells": [
            {
                "type": [[i + 1 for i in col] for col in cell.type.columns()],
                "dimension": cell.dimension,
                "bounded": cell.bounded,
            }
            for cell in listed
        ],
        "summary": summary,
    }


def _write_output(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_type_of_point(args) -> int:
    arr = load_arrangement(args.matrix)
    x = parse_point(args.point, arr.n)
    print(format_type(type_of_point(arr, x)))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    arr = load_arrangement(args.matrix)
    report = _report(arr, args.cap, args.check_geometric)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


def _cmd_act(args) -> int:
    arr = load_arrangement(args.matrix)
    t = parse_type_matrix(args.type, arr.n, arr.d)
    partition = parse_partition(args.partition, arr.n)
    if not is_type(arr, t):
        print(f"input {args.type} is not a type of this arrangement",
              file=sys.stderr)
        return EXIT_NOT_TYPE
    moved = act_on_type(arr, cell_of(arr, t), partition)
    print(format_type(moved.type))
    return EXIT_OK


def _cmd_render(args) -> int:
    arr = load_arrangement(args.matrix)
    if arr.n != 3:
        print("rendering needs an arrangement with exactly 3 rows",
              file=sys.stderr)
        return EXIT_RENDER_DIM
    viewport = None
    if args.viewport:
        parts = [p.strip() for p in args.viewport.split(",")]
        if len(parts) != 4:
            raise ParseFailure("viewport must be XMIN,XMAX,YMIN,YMAX")
        viewport = tuple(parse_scalar(p) for p in parts)
    _write_output(render_svg(arr, viewport), args.out)
    return EXIT_OK


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropface",
        description="exact combinatorics of min-plus hyperplane arrangements")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("type-of-point",
                       help="print the sector record of a point")
    p.add_argument("matrix", help="arrangement JSON file")
    p.add_argument("point", help="comma-separated rational coordinates")
    p.set_defaults(func=_cmd_type_of_point)

    p = sub.add_parser("enumerate", help="list every cell of the complex")
    p.add_argument("matrix")
    p.add_argument("--out", default=None, help="write report here")
    p.add_argument("--check-geometric", action="store_true",
                   help="cross-check each cell with the geometric oracle")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_ENUM_CAP,
                   help=f"largest allowed n*d (default {DEFAULT_ENUM_CAP})")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("act", help="apply an ordered set partition to a type")
    p.add_argument("matrix")
    p.add_argument("type", help='e.g. "({2},{1,2},{1},{1,3})"')
    p.add_argument("partition", help='e.g. "({3}|{2}|{1})"')
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("render", help="draw a 3-row arrangement as SVG")
    p.add_argument("matrix")
    p.add_argument("--out", default=None, help="write SVG here")
    p.add_argument("--viewport", default=None,
                   help="XMIN,XMAX,YMIN,YMAX (rationals)")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RuntimeError as exc:
        # a cross-check found the impossible; report loudly, fail plainly
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
