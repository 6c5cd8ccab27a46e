import json
import random

import pytest

from tropface import BoolMatrix, enumerate_types, is_type
from tropface.cli import (EXIT_CAP, EXIT_NOT_TYPE, EXIT_OK, EXIT_PARSE,
                          EXIT_RENDER_DIM, format_partition, format_scalar,
                          format_type, main, parse_partition, parse_scalar,
                          parse_type_matrix)

from demo_data import DEMO_ROWS, demo_arrangement, rand_boolmatrix


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
    assert format_scalar(parse_scalar("-8")) == "-8"
    assert format_scalar(parse_scalar("3/2")) == "3/2"
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
    assert format_partition(p) == "({1,3}|{2})"
    assert parse_partition(format_partition(p), 3) == p
    with pytest.raises(Exception):
        parse_partition("({1}|{1,2})", 3)  # overlap
    with pytest.raises(Exception):
        parse_partition("({1}|{2})", 3)  # misses 3


def test_cmd_type_of_point(demo_file, capsys):
    assert main(["type-of-point", demo_file, "0,0,0"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "({2},{1,2},{1},{1,3})"
    assert main(["type-of-point", demo_file, "5,5,5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "({2},{1,2},{1},{1,3})"


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
    for cap in ("0", "-1"):
        assert main(["enumerate", demo_file, "--cap", cap]) == EXIT_PARSE
        assert "--cap" in capsys.readouterr().err


def test_cmd_act(demo_file, capsys):
    assert main(["act", demo_file, "({2},{1,2},{1},{1,3})",
                 "({3}|{2}|{1})"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "({2},{1},{1},{1})"
    assert main(["act", demo_file, "({2},{1,2},{1},{1,3})",
                 "({1,2,3})"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "({2},{1,2},{1},{1,3})"


def test_cmd_act_rejects_non_type(demo_file, capsys):
    assert main(["act", demo_file, "({2},{2},{1,2},{1,3})",
                 "({3}|{2}|{1})"]) == EXIT_NOT_TYPE
    assert "not a type" in capsys.readouterr().err


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
