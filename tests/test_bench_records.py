"""The committed benchmark records ``BENCH_*.json`` at the repository root:
each names the two trees it compares and holds, for every workload and
every end-to-end metric that ``BENCHMARK.json`` declares, the medians and
quartiles of both sides, measured on runs in which no job failed."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _declared():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([w["name"] for w in bench["workloads"]],
            {m["name"]: m["better"] for m in bench["end_to_end"]})


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_is_complete(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    workloads, metrics = _declared()
    for side in ("parent", "change"):
        assert re.fullmatch(r"[0-9a-f]{40}", record[side]["commit"])
        assert re.fullmatch(r"[0-9a-f]{64}", record[side]["source_sha256"])
    assert record["parent"]["commit"] != record["change"]["commit"]
    for name in workloads:
        entry = record["workloads"][name]
        assert entry["failed"] == {"parent": 0, "change": 0}, name
        for metric, better in metrics.items():
            got = entry["metrics"][metric]
            assert got["better"] == better, (name, metric)
            for side in ("parent", "change"):
                q = got[side]
                assert q["q1"] <= q["median"] <= q["q3"], (name, metric, side)
