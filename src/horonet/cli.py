"""Command-line interface tying the modules into reproducible pipelines."""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import replace

from . import io as hio
from .cmc1 import TOL_SHEAR, _net_from_frame, build_cmc1
from .convergence import (
    JETS,
    frame_convergence,
    jet_identity,
    surface_convergence,
)
from .equidistant import TOL_ANGLE, build_equidistant, verify_equidistant
from .errors import HoronetError
from .mesh import LatticeSpec
from .minimal import minimal_surface, osculating_vector_field
from .pattern import TOL_CLOSURE, cross_ratios_of, verify_closure
from .toda import (
    cmc1_from_toda,
    equidistant_from_toda,
    square_grid_toda,
)


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def float_list(text):
    return [float(s) for s in text.split(",")]


def lattice_spec(text):
    """LatticeSpec of three comma-separated angles, at eps 1 on the unit square."""
    a, b, g = float_list(text)
    return LatticeSpec(a, b, g, 1.0, (0.0, 1.0, 0.0, 1.0))


def grid_size(text):
    n, m = (int(s) for s in text.lower().split("x"))
    return n, m


def _manifest(args, subcommand, inputs, tolerances, seed_face=None):
    manifest = hio.RunManifest(
        subcommand=subcommand,
        inputs={p: hio.file_hash(p) for p in inputs},
        tolerances=tolerances,
        seed_face=seed_face,
    )
    if getattr(args, "stamp", False):
        manifest.timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return manifest


def _emit_net(args, net, kind, manifest):
    if args.out:
        if args.out.endswith(".ply"):
            _write_text(args.out, hio.export_net_ply(net, args.arc_samples))
        else:
            _write_text(args.out, hio.export_net_obj(net, args.arc_samples))
    if args.report:
        doc = hio.net_report(net, kind)
        doc["manifest"] = json.loads(manifest.to_json())
        _write_text(args.report, hio.dump_json(doc))


def _emit_equidistant(args, net, manifest):
    report = verify_equidistant(net)
    doc = {
        "kind": "equidistant",
        "eigenvalue_residual": report.eigenvalue_residual,
        "cosphericity_residual": report.cosphericity_residual,
        "degenerate": net.degenerate,
        "manifest": json.loads(manifest.to_json()),
    }
    if args.report:
        _write_text(args.report, hio.dump_json(doc))
    else:
        sys.stdout.write(hio.dump_json(doc))


def cmd_check(args):
    pattern = hio.load_pattern(_read_json(args.pattern))
    report = verify_closure(cross_ratios_of(pattern))
    doc = {
        "product_residual": report.product_residual,
        "sum_residual": report.sum_residual,
        "branching_residual": report.branching_residual,
        "delaunay_violations": [list(e) for e in report.delaunay_violations],
        "ok": report.ok(args.tol_closure),
    }
    manifest = _manifest(args, "check", [args.pattern], {"closure": args.tol_closure})
    doc["manifest"] = json.loads(manifest.to_json())
    sys.stdout.write(hio.dump_json(doc))
    return 0 if report.ok(args.tol_closure) else 1


def cmd_cmc1(args):
    a = hio.load_pattern(_read_json(args.a))
    b = hio.load_pattern(_read_json(args.b))
    net = build_cmc1(a, b, shear_tol=args.tol_shear)
    manifest = _manifest(
        args, "cmc1", [args.a, args.b], {"shear": args.tol_shear}, seed_face=0
    )
    _emit_net(args, net, "cmc1", manifest)
    if args.frame_out:
        _write_text(args.frame_out, hio.dump_json(hio.save_frame(net.frame)))
    return 0


def cmd_equidistant(args):
    a = hio.load_pattern(_read_json(args.a))
    b = hio.load_pattern(_read_json(args.b))
    net = build_equidistant(a, b, angle_tol=args.tol_angle)
    manifest = _manifest(args, "equidistant", [args.a, args.b], {"angle": args.tol_angle})
    _emit_equidistant(args, net, manifest)
    if args.frame_out:
        _write_text(args.frame_out, hio.dump_json(hio.save_frame(net.frame)))
    return 0


def cmd_toda(args):
    cell, _, q = square_grid_toda(*args.grid)
    manifest = _manifest(args, "toda", [], {"t": args.t}, seed_face=0)
    if args.mode == "cmc1":
        _emit_net(args, cmc1_from_toda(cell, q, args.t), "cmc1", manifest)
    else:
        _emit_equidistant(args, equidistant_from_toda(cell, q, args.t), manifest)
    return 0


def cmd_minimal(args):
    pattern = hio.load_pattern(_read_json(args.pattern))
    dot_doc = _read_json(args.dot)
    zdot = [hio.complex_from_json(o) for o in dot_doc["dot"]]
    frame = osculating_vector_field(pattern, zdot)
    points = minimal_surface(frame)
    edges = pattern.disk.edge_faces.tolist()
    _write_text(args.out, hio.export_points_obj(points, edges))
    return 0


def cmd_converge(args):
    spec, eps_list = replace(args.lattice, rect=tuple(args.rect)), args.eps
    if args.case == "square-pair":
        report = surface_convergence(jet_identity(), JETS["square"](), spec, eps_list)
    elif args.case == "exp-pair":
        report = surface_convergence(jet_identity(), JETS["exp"](), spec, eps_list)
    else:
        jet = JETS[args.case]()
        report = frame_convergence(jet, spec, eps_list)
    _write_text(args.out, report.to_csv())
    return 0


def cmd_dual(args):
    frame = hio.load_frame(_read_json(args.net_frame))
    dual = _net_from_frame(frame.inverse())
    manifest = _manifest(args, "dual", [args.net_frame], {})
    _emit_net(args, dual, "cmc1-dual", manifest)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="horonet",
        description="Circle patterns and discrete CMC-1 surfaces in H^3",
    )
    parser.add_argument("--stamp", action="store_true", help="record a wall-clock timestamp in manifests")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify cross-ratio closure of a pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--tol-closure", type=float, default=TOL_CLOSURE)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("cmc1", help="build a discrete CMC-1 net from two patterns")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--frame-out", default=None)
    p.add_argument("--arc-samples", type=int, default=16)
    p.add_argument("--tol-shear", type=float, default=TOL_SHEAR)
    p.set_defaults(func=cmd_cmc1)

    p = sub.add_parser("equidistant", help="build an equidistant net from two patterns")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--frame-out", default=None)
    p.add_argument("--tol-angle", type=float, default=TOL_ANGLE)
    p.set_defaults(func=cmd_equidistant)

    p = sub.add_parser("toda", help="nets from the square-grid Toda family")
    p.add_argument("--grid", type=grid_size, required=True, help="NxM vertex counts")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--mode", choices=("cmc1", "equidistant"), default="cmc1")
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--arc-samples", type=int, default=16)
    p.set_defaults(func=cmd_toda)

    p = sub.add_parser("minimal", help="discrete minimal surface from a deformation")
    p.add_argument("--pattern", required=True)
    p.add_argument("--dot", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_minimal)

    p = sub.add_parser("converge", help="lattice convergence reports")
    p.add_argument("--case", choices=("exp", "square", "moebius", "exp-pair", "square-pair"), default="exp")
    p.add_argument("--eps", type=float_list, default="0.1,0.05,0.025")
    p.add_argument("--lattice", type=lattice_spec, default=f"{math.pi/3},{math.pi/3},{math.pi/3}")
    p.add_argument("--rect", type=float, nargs=4, default=(0.0, 1.0, 0.0, 1.0))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("dual", help="dual CMC-1 surface from a frame file")
    p.add_argument("--net-frame", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--arc-samples", type=int, default=16)
    p.set_defaults(func=cmd_dual)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HoronetError as exc:
        sys.stderr.write(
            json.dumps({"error": exc.code, "message": str(exc)}) + "\n"
        )
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
