"""Tests of the benchmark itself.

    python3 -m pytest bench/selftest.py

The file name keeps it out of the package's own test collection: the
known-failing cell below fails because of a defect that a later fix
removes, and this test should then be updated together with the ladder.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _metrics(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_reduced_toda_runs_end_to_end_untraced_and_traced():
    cells = [("cmc1", 6, 0.05), ("equidistant", 6, 0.02)]
    result, meta, _, _ = harness.run_workload("toda_small", 1, 0, 0, cells=cells)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 and meta["cells"] == ["cmc1 n=6 t=0.05", "equidistant n=6 t=0.02"]
    assert result["metrics"]["faces_per_s"]["value"] > 0
    # the traced run also checks the decomposed pipeline against the composite call
    result, _, table, spans = harness.run_workload("toda_small", 1, 0, 1, cells=cells)
    assert result["correct"] and result["failed"] == 0
    assert table["cmc1.build"]["derived"] and table["toda.labeling"]["calls"] == 2
    assert result["metrics"]["cmc1.measure_ms"]["value"] > 0
    assert all(s["end"] >= s["start"] for s in spans)


def test_reduced_postprocess_and_lattice_run_end_to_end():
    cells = [("measure", 6), ("dual", 6), ("extract", 6), ("parallel", 6),
             ("obj", 6), ("ply", 6), ("report", 6), ("extract_equidistant", 6)]
    result, meta, _, _ = harness.run_workload("net_postprocess", 2, 0, 1, cells=cells)
    assert result["correct"] and result["failed"] == 0 and meta["passes"] == 1
    assert result["metrics"]["io.obj_bytes"]["value"] > 0
    cells = [("frame", (0.1, 0.05)), ("surface", (0.1, 0.05))]
    result, _, _, _ = harness.run_workload("lattice_convergence", 3, 0, 1, cells=cells)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["convergence.frame_order"]["value"] >= workloads.ORDER_MIN


def test_self_time_subtracts_children_and_stand_ins():
    tr = Tracer()
    with tr.span("op") as op:
        with tr.span("study") as study:
            pass
        with tr.span("solve", stands_in=study) as solve:
            pass
        with tr.span("part") as part:
            pass
        with tr.span("build", stands_in=study, stand_ins=[part]) as build:
            pass
    times = [(op, 0, 10), (study, 0, 6), (solve, 6, 7), (part, 7, 8), (build, 8, 10)]
    for rec, start, end in times:
        rec["start"], rec["end"] = start / 1e3, end / 1e3
    table = tr.self_times()
    assert table["op"]["median_ms"] == pytest.approx(0)  # its children cover it
    assert table["study"]["median_ms"] == pytest.approx(3)  # 6 - solve 1 - build 2
    assert table["build"]["median_ms"] == pytest.approx(1)  # 2 - part 1
    assert table["study"]["derived"] and table["build"]["derived"]
    assert not table["solve"]["derived"]


def test_known_failing_cell_is_recorded_by_code():
    cells = [("cmc1", 14, 0.05)]
    for trace in (0, 1):
        result, meta, _, _ = harness.run_workload("toda_large", 1, 0, trace, cells=cells)
        assert result["failed"] == result["attempted"] >= 1
        assert result["correct"]  # a typed failure is recorded, not a wrong output
        assert {(f["code"], f["stage"]) for f in meta["failures"]} == {
            ("NotShearMatched", "cmc1.build_cmc1")
        }
        assert meta["failure_share"] == 1.0
    assert result["metrics"]["pattern.shear_mismatch"]["value"] > 1e-9


def test_emitted_metric_names_match_benchmark_json():
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert end_to_end == harness.END_TO_END
    assert per_layer == harness.PER_LAYER
    for w in SPEC["workloads"]:
        assert w["name"] in workloads.WORKLOADS
    cells = [("cmc1", 6, 0.02)]
    for trace, expected in ((0, end_to_end), (1, per_layer)):
        result, _, _, _ = harness.run_workload("toda_small", 1, 0, trace, cells=cells)
        assert _metrics(result) == expected


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "toda_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
