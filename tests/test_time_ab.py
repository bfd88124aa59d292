"""Smoke test of scripts/time_ab.py, the interleaved A/B timing of the benchmark streams."""

import json
import os
import sys
from pathlib import Path

import pytest
from conftest import load_script

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def time_ab(monkeypatch):
    # perfbench/run.py pins the thread variables on import; keep them out of this process
    monkeypatch.setattr(os, "environ", dict(os.environ))
    yield load_script("time_ab")
    for name in [n for n in sys.modules if n.startswith("susy_fisheye_")]:  # both sides
        del sys.modules[name]


def test_the_same_tree_on_both_sides(time_ab, capsys, tmp_path):
    out = tmp_path / "ab.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "verify-all",
            "--rounds", "1", "--json", str(out)]
    assert time_ab.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("verify-all: 1 requests, change/parent median ")
    assert lines[0].endswith(", 0 gate failures") and lines[1:] == ["  verify: 0 outputs differ"]
    row = json.loads(out.read_text())["workloads"]["verify-all"]
    assert {"median", "q1", "q3", "change_faster", "sum_ratio"} <= row.keys()
    assert (row["failures"], row["differ"]) == ([], {})


def test_a_differing_output_is_reported_with_its_first_differing_line(time_ab, tmp_path):
    class Moved(time_ab.Client):
        """A change side whose output has its second line moved."""

        def call(self, req):
            latency, rc, data, error = super().call(req)
            lines = data.splitlines(keepends=True)
            lines[1] = lines[1].rstrip() + b" moved\n"
            self.output = b"".join(lines)
            return latency, rc, self.output, error

    clients = {"parent": time_ab.Client(ROOT, "parent", tmp_path),
               "change": Moved(ROOT, "change", tmp_path)}
    row = time_ab.compare(clients, "verify-all", rounds=1)
    assert row["failures"] == []
    [line] = row["differ"]["verify"]
    second = clients["parent"].output.decode().splitlines()[1]
    assert line == f"verify --suite all: line 2: {second!r} -> {second + ' moved'!r}"
