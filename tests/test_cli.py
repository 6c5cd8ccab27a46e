import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tropface.cli as cli
import tropface.complex as complex_module
from tropface import BoolMatrix, is_type
from tropface.cli import (EXIT_CAP, EXIT_NOT_TYPE, EXIT_OK, EXIT_PARSE,
                          EXIT_RENDER_DIM, ParseFailure, _build_parser, _rank,
                          format_type, main, parse_partition, parse_scalar,
                          parse_type_matrix)

from demo_data import DEMO_ROWS, T_VERT, demo_arrangement, rand_boolmatrix


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps({
        "rows": 3,
        "cols": 4,
        "entries": [[str(v) for v in row] for row in DEMO_ROWS],
    }))
    return str(path)


def write_matrix(tmp_path, rows, name="m.json"):
    path = tmp_path / name
    path.write_text(json.dumps({
        "rows": len(rows),
        "cols": len(rows[0]),
        "entries": [[str(v) for v in row] for row in rows],
    }))
    return str(path)


def test_scalar_round_trip():
    assert parse_scalar("-8") == F(-8)
    assert parse_scalar("3/2") == F(3, 2)
    with pytest.raises(Exception):
        parse_scalar(0.5)
    with pytest.raises(Exception):
        parse_scalar("x")


def test_type_string_round_trip():
    rng = random.Random(50)
    for _ in range(100):
        m = rand_boolmatrix(rng, 3, 4)
        assert parse_type_matrix(format_type(m), 3, 4) == m
    with pytest.raises(Exception):
        parse_type_matrix("({5},{1},{1},{1})", 3, 4)
    with pytest.raises(Exception):
        parse_type_matrix("({1},{1})", 3, 4)
    with pytest.raises(Exception):
        parse_type_matrix("{1},{1},{1},{1}", 3, 4)


def test_partition_string_round_trip():
    p = parse_partition("({1,3}|{2})", 3)
    assert p.block_sets() == ((0, 2), (1,))
    with pytest.raises(Exception):
        parse_partition("({1}|{1,2})", 3)  # overlap
    with pytest.raises(Exception):
        parse_partition("({1}|{2})", 3)  # misses 3


def test_cmd_type_of_point(demo_file, capsys):
    assert main(["type-of-point", demo_file, "0,0,0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "({2},{1,2},{1},{1,3})"
    assert main(["type-of-point", demo_file, "5,5,5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "({2},{1,2},{1},{1,3})"


def test_cmd_type_of_point_mixed_scalars(tmp_path, capsys):
    # p/q and decimal entries; the point mixes a decimal, a negative p/q
    # and an integer far beyond the matrix, which ties in one column only
    path = write_matrix(tmp_path, [
        ["0.25", "-3/4", "2", "0.5"],
        ["-7/3", "1/2", "0.75", "10"],
        ["4", "5/6", "-1.5", "123456789012345678901234567890"]])
    point = "0.25,-7/3,123456789012345678901234567890"
    assert main(["type-of-point", path, point]) == EXIT_OK
    assert capsys.readouterr().out == "({1,2},{2},{2},{2})\n"


def test_cmd_type_of_point_parse_error(demo_file, capsys):
    assert main(["type-of-point", demo_file, "0,x,0"]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_cmd_type_of_point_missing_file(tmp_path, capsys):
    assert main(["type-of-point", str(tmp_path / "nope.json"), "0,0,0"]) \
        == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_usage_error_exits_2(capsys):
    assert main(["no-such-command"]) == EXIT_PARSE
    capsys.readouterr()


def _run_module(*args):
    """Run ``python -m tropface.cli`` in a fresh interpreter, through
    ``entry`` and the module's ``__main__`` guard."""
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-m", "tropface.cli", *args],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(src)))


def test_module_entry_point_runs(demo_file, tmp_path):
    done = _run_module("type-of-point", demo_file, "0,0,0")
    assert (done.returncode, done.stdout) == (EXIT_OK,
                                              "({2},{1,2},{1},{1,3})\n")
    empty = tmp_path / "empty.json"
    empty.write_text("")
    done = _run_module("type-of-point", str(empty), "0,0,0")
    assert done.returncode == EXIT_PARSE
    assert done.stderr.startswith("parse error")


def test_parser_is_built_once_and_reused(demo_file, capsys):
    assert _build_parser() is _build_parser()
    # a failed parse leaves nothing behind in the shared parser
    for _ in range(2):
        assert main(["type-of-point", demo_file]) == EXIT_PARSE
        assert "usage: tropface" in capsys.readouterr().err
        assert main(["type-of-point", demo_file, "0,0,0"]) == EXIT_OK
        assert capsys.readouterr().out == "({2},{1,2},{1},{1,3})\n"
        assert main(["enumerate", demo_file, "--cap", "0"]) == EXIT_PARSE
        assert "not a positive integer" in capsys.readouterr().err
        assert main(["act", demo_file, "({2},{1,2},{1},{1,3})",
                     "({1,2,3})"]) == EXIT_OK
        assert capsys.readouterr().out == "({2},{1,2},{1},{1,3})\n"


def test_cmd_enumerate_report(demo_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["enumerate", demo_file, "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["summary"] == {"2": 12, "1": 18, "0": 7}
    assert len(doc["cells"]) == 37
    # counts in the summary equal the tallies of the list
    tally = {}
    for cell in doc["cells"]:
        tally[str(cell["dimension"])] = tally.get(str(cell["dimension"]), 0) + 1
    assert tally == doc["summary"]
    # every listed type parses back and passes the type test
    demo = demo_arrangement()
    for cell in doc["cells"]:
        cols = [set(i - 1 for i in col) for col in cell["type"]]
        m = BoolMatrix.from_columns(3, cols)
        assert is_type(demo, m)


def test_cmd_enumerate_byte_stable(demo_file, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["enumerate", demo_file, "--out", str(a)]) == EXIT_OK
    assert main(["enumerate", demo_file, "--check-geometric",
                 "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_cmd_enumerate_stdout_and_single_cell(tmp_path, capsys):
    path = write_matrix(tmp_path, [[0]])
    assert main(["enumerate", path]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"0": 1}
    assert doc["cells"] == [{"bounded": True, "dimension": 0, "type": [[1]]}]


def test_cmd_enumerate_cap(tmp_path, capsys):
    path = write_matrix(tmp_path, [[0] * 5 for _ in range(5)])
    assert main(["enumerate", path]) == EXIT_CAP
    assert "cap" in capsys.readouterr().err
    assert main(["enumerate", path, "--cap", "25"]) == EXIT_OK
    capsys.readouterr()


def test_cmd_enumerate_rejects_nonpositive_cap(demo_file, capsys):
    # non-ASCII digits too: int() reads Arabic-Indic "\u0661\u0662" as 12
    for cap in ("0", "-1", "\u0661\u0662", "\u00b2"):
        assert main(["enumerate", demo_file, "--cap", cap]) == EXIT_PARSE
        assert "--cap" in capsys.readouterr().err


def test_cmd_act(demo_file, capsys):
    assert main(["act", demo_file, "({2},{1,2},{1},{1,3})",
                 "({3}|{2}|{1})"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "({2},{1},{1},{1})"
    assert main(["act", demo_file, "({2},{1,2},{1},{1,3})",
                 "({1,2,3})"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "({2},{1,2},{1},{1,3})"


@pytest.mark.parametrize("partition, row, wrong", [
    ("({4}|{2}|{1})", "row 4", "element 3"),
    ("({0}|{1,2,3})", "row 0", "-1"),
    ("({" + "0" * 4999 + "4}|{1,2,3})", "row 4 ", "row 0"),
    ("({" + "9" * 5000 + "}|{1,2,3})", "row 999", "digits"),
], ids=["past-n", "zero", "leading-zeros", "past-the-int-digit-limit"])
def test_cmd_act_names_a_bad_partition_row_1_based(demo_file, capsys,
                                                   partition, row, wrong):
    assert main(["act", demo_file, "({2},{1,2},{1},{1,3})",
                 partition]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert row in err and "1..3" in err and wrong not in err


def test_type_row_past_n_is_named_1_based():
    with pytest.raises(ParseFailure, match="4"):
        parse_type_matrix("({2},{1,2},{1},{1,4})", 3, 4)
    with pytest.raises(ParseFailure, match="outside 1..3"):
        parse_type_matrix("({" + "1" * 5000 + "},{1,2},{1},{1,3})", 3, 4)


def test_cmd_act_rejects_non_type(demo_file, capsys):
    assert main(["act", demo_file, "({2},{2},{1,2},{1,3})",
                 "({3}|{2}|{1})"]) == EXIT_NOT_TYPE
    assert "not a type" in capsys.readouterr().err


def test_cmd_act_decides_its_input_once(demo_file, monkeypatch, capsys):
    # one cell test of the input and one of its image under the action
    tested = []

    def counted(arr, t):
        tested.append(t)
        return is_type(arr, t)

    monkeypatch.setattr(complex_module, "is_type", counted)
    # and the CLI's own name for it, should it import is_type again
    monkeypatch.setattr(cli, "is_type", counted, raising=False)
    assert main(["act", demo_file, "({2},{1,2},{1},{1,3})",
                 "({3}|{2}|{1})"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "({2},{1},{1},{1})"
    assert len(tested) == len(set(tested)) == 2


def test_cmd_act_past_the_scan_cap_exits_3(tmp_path, capsys):
    # the diagonal type of a 9x9 with a heavy diagonal needs a 9x9 block,
    # past the permanent scan cap
    rng = random.Random(9)
    path = write_matrix(tmp_path, [[200 if i == j else rng.randint(-50, 50)
                                    for j in range(9)] for i in range(9)])
    diagonal = "(" + ",".join(f"{{{j}}}" for j in range(1, 10)) + ")"
    assert main(["act", path, diagonal, "({1,2,3,4,5,6,7,8,9})"]) == EXIT_CAP
    err = capsys.readouterr().err
    assert "size cap exceeded" in err and "Traceback" not in err


def test_check_geometric_disagreement_exits_1(demo_file, monkeypatch,
                                              capsys):
    # the geometric route refuses one cell, which the message names
    solve = cli._solve
    refused = T_VERT.col_masks()
    monkeypatch.setattr(cli, "_solve", lambda arr, cols, strict: None
                        if cols == refused else solve(arr, cols, strict))
    assert main(["enumerate", demo_file, "--check-geometric"]) == 1
    err = capsys.readouterr().err
    assert "disagree" in err and "Traceback" not in err
    assert format_type(T_VERT) in err


def test_check_geometric_solves_every_cell_once(demo_file, tmp_path,
                                                monkeypatch):
    solve = cli._solve
    calls = []

    def counting(arr, cols, strict):
        got = solve(arr, cols, strict)
        calls.append((cols, strict, got is not None))
        return got

    monkeypatch.setattr(cli, "_solve", counting)
    rng = random.Random(43)
    tie_heavy = [[rng.randint(-1, 1) for _ in range(3)] for _ in range(4)]
    for path in (demo_file, write_matrix(tmp_path, tie_heavy)):
        calls.clear()
        out = tmp_path / "report.json"
        assert main(["enumerate", path, "--check-geometric", "--out",
                     str(out)]) == EXIT_OK
        cells = json.loads(out.read_text())["cells"]
        assert len(calls) == len(cells) > 0
        assert len({cols for cols, _, _ in calls}) == len(cells)
        assert all(strict == 1 and ok for _, strict, ok in calls)


def test_unwritable_output_exits_2(demo_file, tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["enumerate", demo_file, "--out", str(out)]) == EXIT_PARSE
    assert "i/o error" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("text, match", [
    ("(2,{1,2},{1},{1,3})", "blocks must look like"),
    ("({2}x{1,2},{1},{1,3})", "must be separated by ','"),
], ids=["bare-element", "bad-separator"])
def test_malformed_type_blocks(text, match):
    with pytest.raises(ParseFailure, match=match):
        parse_type_matrix(text, 3, 4)


def test_cmd_render_dimension_guard(tmp_path, capsys):
    path = write_matrix(tmp_path, [[0], [0]])
    assert main(["render", path]) == EXIT_RENDER_DIM
    assert "3 rows" in capsys.readouterr().err


def test_cmd_render_deterministic(demo_file, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["render", demo_file, "--out", str(a)]) == EXIT_OK
    assert main(["render", demo_file, "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_cmd_render_demo_structure(demo_file, tmp_path):
    out = tmp_path / "fig.svg"
    assert main(["render", demo_file, "--out", str(out)]) == EXIT_OK
    svg = out.read_text()
    assert svg.startswith("<?xml")
    assert svg.count("<text") == 4            # one label per apex
    assert svg.count("<circle") == 7 + 4      # complex vertices + apex dots
    assert svg.count("<polygon") == 2         # bounded 2-cells
    # 3 rays per hyperplane plus the 8 bounded edges
    assert svg.count("<line") == 12 + 8


def test_cmd_render_single_hyperplane(tmp_path):
    path = write_matrix(tmp_path, [[0], [0], [0]])
    out = tmp_path / "one.svg"
    assert main(["render", path, "--out", str(out)]) == EXIT_OK
    svg = out.read_text()
    assert svg.count("<line") == 3   # three rays from the apex
    assert svg.count("<polygon") == 0
    assert svg.count("<circle") == 2  # the apex marker and the single vertex


def test_cmd_render_viewport_flag(demo_file, tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert main(["render", demo_file, "--viewport=-30,30,-30,30",
                 "--out", str(a)]) == EXIT_OK
    assert main(["render", demo_file, "--viewport=-30,30,-30,30",
                 "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_cmd_render_bad_viewport(demo_file, capsys):
    assert main(["render", demo_file, "--viewport", "1,2,3"]) == EXIT_PARSE
    assert "viewport" in capsys.readouterr().err
    for empty in ("0,0,0,0", "1,0,0,1", "0,1,2,2"):
        assert main(["render", demo_file, f"--viewport={empty}"]) \
            == EXIT_PARSE
        assert "viewport" in capsys.readouterr().err


def test_non_ascii_digits_are_parse_errors(demo_file, capsys):
    # str.isdigit accepts superscripts, which int() then rejects
    assert main(["act", demo_file, "({\u00b2},{1,2},{1},{1,3})",
                 "({3}|{2}|{1})"]) == EXIT_PARSE
    assert "bad element" in capsys.readouterr().err
    assert main(["act", demo_file, "({2},{1,2},{1},{1,3})",
                 "({\u00b3}|{2}|{1})"]) == EXIT_PARSE
    assert "bad element" in capsys.readouterr().err


def test_scalar_forms():
    for text, value in (("0.25", F(1, 4)), (".5", F(1, 2)), ("2.", 2),
                        ("+3", 3), (" -3/2 ", F(-3, 2)), ("\t7\n", 7)):
        assert parse_scalar(text) == value
    for text in ("1e3", "1E3", "-2.5e-1", "1_000", "\u0661", "3/", "/2",
                 ".", "3/-2", "inf", "0x10", ""):
        with pytest.raises(ParseFailure):
            parse_scalar(text)


def test_exponent_notation_fails_fast(demo_file, tmp_path, capsys):
    # Fraction would compute 10**999999999 exactly before any check ran
    start = time.perf_counter()
    assert main(["type-of-point", demo_file, "1e999999999,0,0"]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err
    assert main(["render", demo_file, "--viewport=0,1E999999999,0,1"]) \
        == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err
    path = write_matrix(tmp_path, [["1e999999999", "0"], ["0", "0"]])
    assert main(["enumerate", path]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err
    assert time.perf_counter() - start < 5
    # small exponents are refused too, not read as 1000
    assert main(["type-of-point", demo_file, "1e3,0,0"]) == EXIT_PARSE
    capsys.readouterr()


def test_matrix_file_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["enumerate", str(bad)]) == EXIT_PARSE
    capsys.readouterr()
    bad.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [["1", "2"]]}))
    assert main(["enumerate", str(bad)]) == EXIT_PARSE
    capsys.readouterr()
    bad.write_text(json.dumps({"rows": 1, "cols": 1, "entries": [[0.5]]}))
    assert main(["enumerate", str(bad)]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err
    bad.write_text(json.dumps({"rows": True, "cols": 2,
                               "entries": [["1", "2"]]}))
    assert main(["enumerate", str(bad)]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err
    bad.write_bytes(b"\xff\xfe{")  # not UTF-8
    assert main(["enumerate", str(bad)]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err
    bad.write_text('{"rows": 1, "cols": 1, "entries": [[%s]]}' % ("7" * 5000))
    assert main(["enumerate", str(bad)]) == EXIT_PARSE  # past int's digit cap
    assert "parse error" in capsys.readouterr().err


def test_deeply_nested_matrix_file_is_a_parse_error(tmp_path, capsys):
    # json raises RecursionError, a RuntimeError, on very deep nesting
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert main(["enumerate", str(deep)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "parse error" in err and "invariant" not in err
    assert main(["type-of-point", str(deep), "0,0,0"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "parse error" in err and "invariant" not in err


def test_report_layout_is_pinned(demo_file, tmp_path):
    # the report text is assembled by hand; it must stay exactly what
    # json.dumps(report, indent=2, sort_keys=True) + "\n" would write.  The
    # tie-heavy 6x4 and the generic 3x8 have many cells that share a
    # dimension and leading columns, so their order is decided deep in the
    # sort key.  The demo's SHA-256 was recorded from the json.dumps
    # encoder, the others from the report as it was before it sorted on
    # packed integer keys.
    rng = random.Random(61)
    generic = [[f"{rng.randint(-10**6, 10**6)}/{rng.choice((1, 7, 11))}"
                for _ in range(3)] for _ in range(8)]
    tie_heavy = [[rng.choice((-1, 0, 1)) for _ in range(4)] for _ in range(6)]
    wide = [[f"{rng.randint(-10**6, 10**6)}/{rng.choice((1, 7, 11))}"
             for _ in range(8)] for _ in range(3)]
    pinned = {
        demo_file:
            "cd623087e7eb2841c661489993305ea6d4fcde63c749f970503d084ad1dbdfce",
        write_matrix(tmp_path, generic, "generic.json"):
            "01b9b2766412c1dd8413fc6fc35bb0b9170c0ba658c446a007e656b85a72e905",
        write_matrix(tmp_path, tie_heavy, "tie_heavy.json"):
            "5aa076b307ac81d4192fe35fb50252ecaadeab81da2e3023ba2ff71acd526bad",
        write_matrix(tmp_path, wide, "wide.json"):
            "1b28315190b775d8c2a78055e6396bb3f4e48f1027b77176a0ddb6dc602a1dd1",
        write_matrix(tmp_path, [[5]], "one.json"): None,
    }
    out = tmp_path / "report.json"
    for path, digest in pinned.items():
        assert main(["enumerate", path, "--out", str(out)]) == EXIT_OK
        data = out.read_bytes()
        if digest is not None:
            assert hashlib.sha256(data).hexdigest() == digest
        text = data.decode("utf-8")
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        keys = [(-cell["dimension"], tuple(map(tuple, cell["type"])))
                for cell in doc["cells"]]
        assert keys == sorted(set(keys))
    assert len(doc["cells"]) == 1 and doc["summary"] == {"0": 1}


def test_rank_orders_row_sets_by_their_row_tuples():
    # the report's packed sort key relies on this rank, in n bits
    for n in range(1, 9):
        ordered = sorted(range(1 << n), key=lambda c: tuple(
            i + 1 for i in range(n) if c >> i & 1))
        assert [_rank(c, n) for c in ordered] == list(range(1 << n))


# Fuzzed command lines.
_NOISE = st.text(alphabet="0123456789-/,.(){}|\u00b2\u00b3xeE ", max_size=16)
_GOOD = st.sampled_from(["0", "-3", "7", "3/2", "-1/7", " 2 "])
_SCALAR = st.one_of(_GOOD, st.sampled_from(
    ["1/0", "x", "", "\u00b2", "1.5", "--1"]))
_ENTRY = st.one_of(st.integers(-3, 3), _SCALAR, st.none(), st.booleans(),
                   st.floats(allow_nan=False, width=16), st.just([]))
_ELEM = st.sampled_from(["1", "2", "3", "4", "0", "12", "", " ", "-1",
                         "\u00b2", "\u00b3", "a"])
_DEMO_FILE = json.dumps({"rows": 3, "cols": 4, "entries": [
    [str(v) for v in row] for row in DEMO_ROWS]}).encode()


def _join(scalars, low, high):
    return st.lists(scalars, min_size=low, max_size=high).map(",".join)


def _braced(sep, elems, min_blocks, max_blocks, min_elems=0):
    blocks = st.lists(elems, min_size=min_elems, max_size=3).map(
        lambda es: "{" + ",".join(es) + "}")
    return st.lists(blocks, min_size=min_blocks, max_size=max_blocks).map(
        lambda bs: "(" + sep.join(bs) + ")")


@st.composite
def _cli_cases(draw):
    """(matrix file bytes, command line without the file): mostly well
    formed, so that every command also runs to a result."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["valid"] * 3 + ["demo"] * 2
                                + ["malformed", "bytes", "noise"]))
    if kind == "valid":
        data = json.dumps({"rows": n, "cols": d, "entries": draw(st.lists(
            st.lists(_GOOD, min_size=d, max_size=d),
            min_size=n, max_size=n))}).encode()
    elif kind == "demo":
        n, d, data = 3, 4, _DEMO_FILE
    elif kind == "malformed":
        data = json.dumps({
            "rows": draw(st.sampled_from([n, n + 1, 0, True, "3"])),
            "cols": draw(st.sampled_from([d, 0, -1])),
            "entries": draw(st.lists(st.lists(_ENTRY, max_size=d + 1),
                                     max_size=n + 1))}).encode()
    elif kind == "bytes":
        data = draw(st.binary(max_size=24))
    else:
        data = draw(_NOISE).encode()
    rows = st.sampled_from([str(i) for i in range(1, n + 1)])
    command = draw(st.sampled_from(["type-of-point", "enumerate", "act",
                                    "render"]))
    if command == "type-of-point":
        args = [draw(st.one_of(_join(_GOOD, n, n), _join(_SCALAR, 0, 4),
                               _NOISE))]
    elif command == "enumerate":
        args = draw(st.lists(st.sampled_from(
            ["--check-geometric", "--cap=24", "--cap=0", "--cap=-3",
             "--cap=\u00b2", "--cap=x", "--cap="]), max_size=2))
    elif command == "act":
        order = draw(st.permutations([str(i) for i in range(1, n + 1)]))
        cuts = sorted(draw(st.sets(st.integers(1, n), max_size=n)) | {n})
        blocks = [order[a:b] for a, b in zip([0] + cuts, cuts)]
        partition = "(" + "|".join("{" + ",".join(b) + "}"
                                   for b in blocks) + ")"
        good_type = _braced(",", rows, d, d, min_elems=1)
        args = [draw(st.one_of(good_type, good_type,
                               _braced(",", _ELEM, 0, 5), _NOISE)),
                draw(st.one_of(st.just(partition), st.just(partition),
                               _braced("|", _ELEM, 0, 4), _NOISE))]
    else:
        args = [f"--viewport={v}" for v in draw(st.lists(st.one_of(
            _join(_GOOD, 4, 4), _join(_SCALAR, 0, 5), _NOISE),
            max_size=1))]
    return data, (command, *args)


def test_cli_fuzz_exit_codes(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.json"

    @settings(max_examples=300, derandomize=True, deadline=None,
              database=None)
    @given(_cli_cases())
    @example((_DEMO_FILE, ("act", "({\u00b2},{1,2},{1},{1,3})",
                           "({3}|{2}|{1})")))
    @example((_DEMO_FILE, ("act", "({2},{1,2},{1},{1,3})",
                           "({\u00b3}|{2}|{1})")))
    @example((_DEMO_FILE, ("render", "--viewport=0,0,0,0")))
    @example((_DEMO_FILE, ("render", "--viewport=1,0,0,1")))
    @example((b"\xff\xfe{", ("enumerate",)))
    def run(case):
        data, (command, *args) = case
        path.write_bytes(data)
        argv = [command, str(path), *args]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in {0, 1, 2, 3, 4, 5}, (argv, code)

    run()
