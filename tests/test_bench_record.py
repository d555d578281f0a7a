"""The committed benchmark trajectory: the ``BENCH_*.json`` files that
``.github/scripts/bench_record.py`` appends to.  Every entry parses and names
its commit and the machine it was measured on."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(ROOT.glob("BENCH_*.json"))
MACHINE = {"nproc", "python", "numpy", "python_c_pass_s", "import_numpy_s"}


def test_every_workload_has_a_trajectory():
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert {f"BENCH_{name}.json" for name in workloads} | {"BENCH_large.json"} <= {path.name for path in FILES}


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_entries_name_their_commit_and_machine(path):
    entries = json.loads(path.read_text())
    assert isinstance(entries, list) and entries
    for entry in entries:
        assert re.fullmatch(r"[0-9a-f]{40}", entry["commit"])
        assert isinstance(entry["modified"], bool)
        assert set(entry["machine"]) == MACHINE
        assert entry["machine"]["nproc"] >= 1
        assert all(entry["machine"][key] > 0 for key in ("python_c_pass_s", "import_numpy_s"))
        if path.name == "BENCH_large.json":
            assert entry["inputs"]
            for case in entry["inputs"]:
                assert case["argv"] and case["max_rss_mb"] > 0
                assert all(wall > 0 for sample in case["wall_s"] for wall in sample)
        else:
            assert set(entry["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
            assert isinstance(entry["seed"], int) and entry["seconds"] > 0
            assert entry["correct"] is True and entry["failed"] == 0
