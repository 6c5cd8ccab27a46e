"""Command-line surface: matrix ingestion, type queries, complex reports
and SVG figures.

Matrices arrive as JSON documents ``{"rows": n, "cols": d, "entries":
[[...]]}`` whose entries are rational strings ("-8", "3/2", "0.25") or
integers; floats are rejected to keep every computation exact, and
exponent notation ("1e9") so that no input builds a huge integer.  Sets
printed or parsed on the command line are 1-based, e.g. the type
"({2},{1,2},{1},{1,3})" and the partition "({3}|{2}|{1})".

Exit codes: 0 success, 1 the combinatorial and geometric cell tests
disagree under ``enumerate --check-geometric``, 2 parse error or a file
that cannot be read or written, 3 size cap exceeded, 4 input is not a
type, 5 rendering requested for an arrangement without exactly 3 rows.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from operator import itemgetter

from .boolmat import BoolMatrix, _mask_elems
from .complex import (DEFAULT_ENUM_CAP, CapExceeded, _cell, _search,
                      act_on_type, is_type)
from .facemonoid import OrderedSetPartition
from .render import _check_viewport, render_svg
from .tropical import Arrangement, _rat, _solve, type_of_point

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAP = 3
EXIT_NOT_TYPE = 4
EXIT_RENDER_DIM = 5


class ParseFailure(ValueError):
    """Any malformed command-line or file input."""


def parse_scalar(v) -> Fraction:
    """The library's scalar rule (``tropical._rat``), failing as a
    ParseFailure."""
    try:
        return _rat(v)
    except (ValueError, TypeError) as exc:
        raise ParseFailure(f"cannot parse {v!r} as a rational: {exc}") from exc


def load_arrangement(path: str) -> Arrangement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        # ValueError covers bad JSON, bad UTF-8 and integers too long to read
        raise ParseFailure(f"cannot read matrix file {path}: {exc}") from exc
    except RecursionError as exc:
        # a RuntimeError, which main would report as a broken invariant
        raise ParseFailure(
            f"matrix file {path} is nested too deeply") from exc
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


def _parse_braced_groups(text: str, what: str, sep: str, n: int) -> list:
    """The blocks of "({1,2}<sep>{3})", whose elements are 1-based rows
    1..n, as lists of 0-based rows, e.g. [[0, 1], [2]]; the command
    line's one row range check.  Elements are ASCII digits: str.isdigit
    alone accepts "²", which int then rejects."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseFailure(f"{what} must be wrapped in parentheses")
    rest = text[1:-1].strip()
    groups = []
    while True:
        end = rest.find("}")
        if not rest.startswith("{") or end < 0:
            raise ParseFailure(f"{what} blocks must look like {{1,2}}")
        body = rest[1:end].strip()
        elems = []
        if body:
            for tok in body.split(","):
                tok = tok.strip()
                if not (tok.isascii() and tok.isdigit()):
                    raise ParseFailure(f"bad element {tok!r} in {what}")
                # a row with more digits than n is past it; int() is not
                # asked to read it, as it refuses over 4,300 digits
                row = tok.lstrip("0") or "0"
                if len(row) > len(str(n)) or not 1 <= int(row) <= n:
                    raise ParseFailure(f"row {row} outside 1..{n} in {what}")
                elems.append(int(row) - 1)
        groups.append(elems)
        rest = rest[end + 1:].strip()
        if not rest:
            return groups
        if not rest.startswith(sep):
            raise ParseFailure(f"{what} blocks must be separated by {sep!r}")
        rest = rest[len(sep):].strip()


def parse_type_matrix(text: str, n: int, d: int) -> BoolMatrix:
    """Columns-as-subsets form, 1-based rows: "({2},{1,2},{1},{1,3})"."""
    groups = _parse_braced_groups(text, "type", ",", n)
    if len(groups) != d:
        raise ParseFailure(f"type must list {d} columns")
    return BoolMatrix.from_columns(n, groups)


def format_type(b: BoolMatrix) -> str:
    cols = []
    for col in b.columns():
        cols.append("{" + ",".join(str(i + 1) for i in col) + "}")
    return "(" + ",".join(cols) + ")"


def parse_partition(text: str, n: int) -> OrderedSetPartition:
    """Blocks-left-to-right form, 1-based: "({1,3}|{2})"."""
    groups = _parse_braced_groups(text, "partition", "|", n)
    try:
        return OrderedSetPartition.from_sets(n, groups)
    except ValueError as exc:
        raise ParseFailure(f"bad partition: {exc}") from exc


# one entry of the report's cell list, indented as json.dumps(indent=2)
# indents it: bounded, dimension, then the column texts
_CELL_TEXT = ('    {\n      "bounded": %s,\n      "dimension": %d,\n'
              '      "type": [\n%s\n      ]\n    }')


def _rank(c: int, n: int) -> int:
    """The place of row set c among all 2^n row sets ordered by their
    1-based row tuples, a proper prefix first.  Before c come its proper
    prefixes, one per row of c, and, for each row i of c with p the row
    before it (or -1), the 2^(n-1-p) - 2^(n-i) sets that agree with c
    before i and take a row strictly between p and i next."""
    rank, prev = 0, -1
    for i in _mask_elems(c):
        rank += (1 << (n - prev - 1)) - (1 << (n - i)) + 1
        prev = i
    return rank


def _report(arr: Arrangement, cap: int, check_geometric: bool) -> str:
    """The enumerate report as text, byte for byte what
    ``json.dumps(report, indent=2, sort_keys=True) + "\\n"`` makes of
    ``{"cells": [{"bounded", "dimension", "type"}, ...], "summary":
    {dimension: count}}``.  It reads the leaves of the cell search,
    ``complex._search``, with no cell or matrix made for them, and sorts
    them once.  Cells come by falling dimension, then by their columns as
    1-based row tuples, so each cell sorts on one int: n minus its
    dimension, then each column's ``_rank`` in n bits.  A column's rank
    and indented text depend only on its row set, so they are built once
    per row set that occurs, at most 2^n times.

    ``check_geometric`` re-decides every leaf, in the same pass, with the
    geometric route, the strict solve of ``tropical._solve`` on its column
    row sets, which shares nothing else with the search; only a leaf it
    refuses is made into a matrix, for the message."""
    n = arr.n
    seen = {}  # row set -> (its _rank, its indented JSON text)
    listed = []
    counts = {}  # dimension -> number of cells
    for bits, cols, dim, bounded in _search(arr, cap):
        if check_geometric and _solve(arr, cols, 1) is None:
            raise RuntimeError(
                "combinatorial and geometric type tests disagree on "
                + format_type(BoolMatrix._from_cols(n, arr.d, bits, cols)))
        key = n - dim
        texts = []
        for c in cols:
            got = seen.get(c)
            if got is None:
                got = seen[c] = (_rank(c, n), "        [\n" + ",\n".join(
                    f"          {i + 1}" for i in _mask_elems(c))
                    + "\n        ]")
            key = key << n | got[0]
            texts.append(got[1])
        listed.append((key, _CELL_TEXT % (
            "true" if bounded else "false", dim, ",\n".join(texts))))
        counts[dim] = counts.get(dim, 0) + 1
    listed.sort(key=itemgetter(0))
    summary = {str(dim): count for dim, count in counts.items()}
    summary_text = json.dumps(summary, indent=2, sort_keys=True)
    return ('{\n  "cells": [\n' + ",\n".join(text for _, text in listed)
            + '\n  ],\n  "summary": ' + summary_text.replace("\n", "\n  ")
            + "\n}\n")


def _write_output(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_type_of_point(arr: Arrangement, args) -> int:
    x = parse_point(args.point, arr.n)
    print(format_type(type_of_point(arr, x)))
    return EXIT_OK


def _cmd_enumerate(arr: Arrangement, args) -> int:
    _write_output(_report(arr, args.cap, args.check_geometric), args.out)
    return EXIT_OK


def _cmd_act(arr: Arrangement, args) -> int:
    t = parse_type_matrix(args.type, arr.n, arr.d)
    partition = parse_partition(args.partition, arr.n)
    if not is_type(arr, t):  # the one cell test of the input
        print(f"input {args.type} is not a type of this arrangement",
              file=sys.stderr)
        return EXIT_NOT_TYPE
    print(format_type(act_on_type(arr, _cell(t), partition).type))
    return EXIT_OK


def _cmd_render(arr: Arrangement, args) -> int:
    if arr.n != 3:
        print("rendering needs an arrangement with exactly 3 rows",
              file=sys.stderr)
        return EXIT_RENDER_DIM
    viewport = None
    if args.viewport:
        viewport = [parse_scalar(p) for p in args.viewport.split(",")]
        try:
            _check_viewport(viewport)
        except ValueError as exc:
            raise ParseFailure(
                f"{exc}; --viewport takes XMIN,XMAX,YMIN,YMAX") from None
    _write_output(render_svg(arr, viewport), args.out)
    return EXIT_OK


def _positive_int(text: str) -> int:
    # ASCII only, like every other number on the command line: isdigit
    # alone accepts "²", and int() reads Arabic-Indic digits
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return int(text)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it."""
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
        # every command takes a matrix file, read here once
        return args.func(load_arrangement(args.matrix), args)
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
