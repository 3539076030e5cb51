import json
import math
from pathlib import Path

import pytest

from horonet import io as hio
from horonet.cli import main
from horonet.cmc1 import _net_from_frame, dual_surface
import numpy as np

from horonet.errors import DegenerateFace, HoronetError
from horonet.mesh import build_disk
from horonet.pattern import CirclePattern, cross_ratios_of
from horonet.toda import cmc1_from_toda, square_grid_toda
from scalar_reference import (
    from_poincare_ball,
    horospheres,
    moebius_maps,
    on_horosphere,
    sphere_points,
)


@pytest.fixture(scope="module")
def toda_net():
    cell, _, sol = square_grid_toda(4, 4)
    return cmc1_from_toda(cell, sol, 0.05)


@pytest.fixture
def pattern_files(tmp_path, toda_net):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(hio.dump_json(hio.save_pattern(toda_net.frame.source)))
    b.write_text(hio.dump_json(hio.save_pattern(toda_net.frame.target)))
    return str(a), str(b)


class TestJson:
    def test_complex_round_trip(self):
        z = 1.25 - 0.5j
        assert hio.complex_from_json(hio.complex_to_json(z)) == z
        # infinity is a position, written from the pair (1, 0), never a value
        assert hio.positions_to_json(np.array([(1, 0)], dtype=complex)) == ["inf"]
        with pytest.raises(HoronetError, match="only a position may be infinite"):
            hio.complex_from_json("inf")

    def test_pattern_round_trip(self, toda_net):
        doc = hio.save_pattern(toda_net.frame.source)
        text = hio.dump_json(doc)
        again = hio.load_pattern(json.loads(text))
        for p, q in zip(sphere_points(again.zh), sphere_points(toda_net.frame.source.zh)):
            assert p.chordal(q) < 1e-12

    def test_pattern_with_infinity(self):
        disk = build_disk([(0, 1, 2)])
        pattern = CirclePattern(disk, np.array([(0, 1), (1, 1), (1, 0)], dtype=complex))
        doc = hio.save_pattern(pattern)
        assert doc["positions"][2] == "inf"
        again = hio.load_pattern(doc)
        assert again.zh.tolist() == pattern.zh.tolist()

    def test_cross_ratio_round_trip(self, toda_net):
        x = cross_ratios_of(toda_net.frame.source)
        doc = hio.save_cross_ratios(x)
        again = hio.load_cross_ratios(toda_net.disk, doc)
        for e in toda_net.disk.interior_edges:
            assert abs(again.x(*e) - x.x(*e)) < 1e-15

    def test_cross_ratios_missing_an_edge(self, toda_net):
        doc = hio.save_cross_ratios(cross_ratios_of(toda_net.frame.source))
        gone = doc["edges"].pop(3)
        message = rf"missing cross ratios on edges \[\({gone['i']}, {gone['j']}\)\]"
        with pytest.raises(DegenerateFace, match=message):
            hio.load_cross_ratios(toda_net.disk, doc)

    def test_frame_round_trip(self, toda_net):
        doc = hio.save_frame(toda_net.frame)
        again = hio.load_frame(json.loads(hio.dump_json(doc)))
        for m, n in zip(moebius_maps(again.entries), moebius_maps(toda_net.frame.entries)):
            assert m.frobenius_distance(n) < 1e-12

    def test_toda_round_trip(self):
        _, _, sol = square_grid_toda(3, 3)
        doc = hio.save_toda(sol)
        q = hio.load_toda(doc)
        assert q == sol

    def test_manifest_round_trip(self):
        m = hio.RunManifest("check", {"a.json": "ff" * 32}, {"closure": 1e-10}, 0)
        text = m.to_json()
        assert hio.RunManifest.from_json(text).to_json() == text


class TestExport:
    def test_obj_deterministic(self, toda_net):
        assert hio.export_net_obj(toda_net) == hio.export_net_obj(toda_net)

    def test_obj_vertices_inside_ball(self, toda_net):
        for line in hio.export_net_obj(toda_net).splitlines():
            if line.startswith("v "):
                x, y, z = (float(s) for s in line.split()[1:])
                assert x * x + y * y + z * z < 1.0

    def test_straight_skeleton(self, toda_net):
        text = hio.export_net_obj(toda_net, arc_samples=1)
        polylines = [l for l in text.splitlines() if l.startswith("l ")]
        assert polylines
        assert all(len(l.split()) == 3 for l in polylines)

    def test_polylines_lie_on_net(self, toda_net):
        disk = toda_net.disk
        text = hio.export_net_obj(toda_net)
        vertices = [
            tuple(float(s) for s in line.split()[1:])
            for line in text.splitlines()
            if line.startswith("v ")
        ]
        polylines = [
            [int(s) - 1 for s in line.split()[1:]]
            for line in text.splitlines()
            if line.startswith("l ")
        ]
        edge_of = {
            frozenset((disk.left_face(i, j), disk.right_face(i, j))): (i, j)
            for (i, j) in disk.interior_edges
        }
        interior = set(disk.interior_vertices)
        assert all(ids[0] < disk.n_faces and ids[-1] < disk.n_faces for ids in polylines)
        ends = [frozenset((ids[0], ids[-1])) for ids in polylines]
        assert len(set(ends)) == len(ends)
        assert len(ends) == sum(1 for e in disk.edges if interior & set(e))
        horos, samples = horospheres(toda_net.horosphere_rows), 0
        for ids, end in zip(polylines, ends):
            i, j = edge_of[end]
            for k in ids[1:-1]:
                x = from_poincare_ball(vertices[k])
                for v in (i, j):
                    assert on_horosphere(x, horos[v])[1] <= 1e-9
                samples += 1
        assert samples > 0

    @pytest.mark.parametrize("n", [6, 12])
    def test_obj_and_ply_one_geometry(self, n):
        cell, _, sol = square_grid_toda(n, n)
        net = cmc1_from_toda(cell, sol, 0.05)
        obj = hio.export_net_obj(net).splitlines()
        ply = hio.export_net_ply(net).splitlines()
        body = ply[ply.index("end_header") + 1:]
        v_lines = [line[2:] for line in obj if line.startswith("v ")]
        f_lines = [
            [int(s) - 1 for s in line.split()[1:]] for line in obj if line.startswith("f ")
        ]
        assert body[: len(v_lines)] == v_lines
        faces = [[int(s) for s in line.split()] for line in body[len(v_lines):]]
        assert faces == [[3] + f for f in f_lines]

    def test_ply_header(self, toda_net):
        text = hio.export_net_ply(toda_net)
        assert text.startswith("ply\nformat ascii 1.0\n")

    def test_degenerate_net_single_point(self, hex_pattern):
        from horonet.cmc1 import build_cmc1

        net = build_cmc1(hex_pattern, hex_pattern)
        text = hio.export_net_obj(net)
        assert "degenerate" in text


class TestCli:
    def test_check_ok(self, tmp_path, pattern_files):
        a, _ = pattern_files
        assert main(["check", "--pattern", a]) == 0

    def test_cmc1_pipeline(self, tmp_path, pattern_files):
        a, b = pattern_files
        out = tmp_path / "net.obj"
        rep = tmp_path / "rep.json"
        frame = tmp_path / "frame.json"
        code = main(
            [
                "cmc1",
                "--a", a, "--b", b,
                "--out", str(out),
                "--report", str(rep),
                "--frame-out", str(frame),
            ]
        )
        assert code == 0
        doc = json.loads(rep.read_text())
        assert all(abs(f["ratio"] - 1) <= 1e-9 for f in doc["dual_faces"])
        assert out.read_text().startswith("#")

    def test_cmc1_determinism(self, tmp_path, pattern_files):
        a, b = pattern_files
        outs = []
        for tag in ("one", "two"):
            rep = tmp_path / f"rep_{tag}.json"
            main(["cmc1", "--a", a, "--b", b, "--report", str(rep)])
            outs.append(rep.read_text())
        assert outs[0] == outs[1]

    def test_toda_subcommand(self, tmp_path):
        rep = tmp_path / "toda.json"
        code = main(
            ["toda", "--grid", "6x6", "--t", "0.05", "--mode", "cmc1",
             "--report", str(rep)]
        )
        assert code == 0
        doc = json.loads(rep.read_text())
        assert all(abs(f["ratio"] - 1) <= 1e-9 for f in doc["dual_faces"])

    def test_toda_equidistant(self, tmp_path):
        rep = tmp_path / "eq.json"
        code = main(
            ["toda", "--grid", "5x5", "--t", "0.1", "--mode", "equidistant",
             "--report", str(rep)]
        )
        assert code == 0
        doc = json.loads(rep.read_text())
        assert doc["eigenvalue_residual"] <= 1e-8
        assert doc["cosphericity_residual"] <= 1e-8
        assert "degenerate" in doc

    def test_minimal_subcommand(self, tmp_path, pattern_files):
        a, _ = pattern_files
        doc = json.loads(Path(a).read_text())
        dot = tmp_path / "dot.json"
        n = len(doc["positions"])
        dot.write_text(json.dumps({"dot": [{"re": 0.1, "im": 0.0}] * n}))
        out = tmp_path / "surf.obj"
        assert main(["minimal", "--pattern", a, "--dot", str(dot), "--out", str(out)]) == 0
        assert out.read_text().count("v ") >= 1
        # one line per interior edge, between the faces left and right of it
        disk = hio.load_pattern(doc).disk
        lines = [ln.split() for ln in out.read_text().splitlines() if ln.startswith("l ")]
        assert [[int(a), int(b)] for _, a, b in lines] == (disk.edge_faces + 1).tolist()

    def test_minimal_rejects_an_infinite_velocity(self, tmp_path, capsys, pattern_files):
        a, _ = pattern_files
        n = len(json.loads(Path(a).read_text())["positions"])
        dot = tmp_path / "dot.json"
        dot.write_text(json.dumps({"dot": ["inf"] + [{"re": 0.1, "im": 0.0}] * (n - 1)}))
        out = tmp_path / "surf.obj"
        code = main(["minimal", "--pattern", a, "--dot", str(dot), "--out", str(out)])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "HoronetError",
            "message": "'inf' is not a complex value; only a position may be infinite",
        }
        assert not out.exists()

    def test_converge_subcommand(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            ["converge", "--case", "exp", "--eps", "0.2,0.1", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("eps,")
        assert len(lines) == 3

    def test_converge_critical_point_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["converge", "--case", "square", "--eps", "0.1", "--out", str(out)]
        )
        assert code == 42
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "CriticalPoint"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["converge", "--lattice", "1,1,1"],
            ["converge", "--eps", "0.1,abc"],
            ["toda", "--grid", "4x", "--t", "0.05"],
        ],
    )
    def test_malformed_option_is_a_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(argv + ["--out", str(out)])
        assert info.value.code == 2
        assert f"argument {argv[1]}: invalid" in capsys.readouterr().err
        assert not out.exists()

    def test_dual_subcommand(self, tmp_path, pattern_files):
        a, b = pattern_files
        frame = tmp_path / "frame.json"
        main(["cmc1", "--a", a, "--b", b, "--frame-out", str(frame)])
        out = tmp_path / "dual.obj"
        rep = tmp_path / "dual.json"
        code = main(
            ["dual", "--net-frame", str(frame), "--out", str(out),
             "--report", str(rep)]
        )
        assert code == 0
        # the dual of the primal net built from the same frame file: the
        # file's positions differ in the last bits from the pattern files'
        dual = dual_surface(_net_from_frame(hio.load_frame(json.loads(frame.read_text()))))
        assert out.read_text() == hio.export_net_obj(dual)
        doc = hio.net_report(dual, "cmc1-dual")
        doc["manifest"] = json.loads(
            hio.RunManifest("dual", {str(frame): hio.file_hash(frame)}).to_json()
        )
        assert rep.read_text() == hio.dump_json(doc)

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_dual_rejects_frame_of_wrong_size(self, tmp_path, capsys, toda_net, change):
        doc = hio.save_frame(toda_net.frame)
        if change == "drop":
            doc["matrices"].pop()
        else:
            doc["matrices"].append(doc["matrices"][0])
        frame = tmp_path / "frame.json"
        frame.write_text(hio.dump_json(doc))
        out = tmp_path / "dual.obj"
        code = main(["dual", "--net-frame", str(frame), "--out", str(out)])
        assert code == 41
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MeshMismatch"
        assert "frame entries" in err["message"]
        assert not out.exists()

    def test_dual_rejects_frame_matrix_missing_an_entry(self, tmp_path, capsys, toda_net):
        doc = hio.save_frame(toda_net.frame)
        doc["matrices"][2][1].pop()
        frame = tmp_path / "frame.json"
        frame.write_text(hio.dump_json(doc))
        out = tmp_path / "dual.obj"
        code = main(["dual", "--net-frame", str(frame), "--out", str(out)])
        assert code == 41
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "MeshMismatch"
        assert "frame matrix 2" in err["message"]
        assert not out.exists()

    def test_error_json_on_stderr(self, tmp_path, capsys, pattern_files):
        a, _ = pattern_files
        bad = tmp_path / "bad.json"
        doc = json.loads(Path(a).read_text())
        doc["positions"][0] = {"re": 50.0, "im": 0.0}  # wrecks Delaunay/shear
        bad.write_text(json.dumps(doc))
        code = main(["cmc1", "--a", a, "--b", str(bad)])
        assert code != 0
        err = json.loads(capsys.readouterr().err)
        assert "error" in err and "message" in err

    def test_check_failure_exit_code(self, tmp_path, capsys):
        # one perturbed vertex breaks closure
        disk_doc = {
            "faces": [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 5, 6], [0, 6, 1]],
            "positions": [
                {"re": 0.05, "im": 0.02},
            ] + [
                {"re": math.cos(k * math.pi / 3), "im": math.sin(k * math.pi / 3)}
                for k in range(6)
            ],
        }
        p = tmp_path / "p.json"
        p.write_text(json.dumps(disk_doc))
        code = main(["check", "--pattern", str(p)])
        assert code == 0  # still a realization, closure holds
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"]
