"""File formats, exporters, and run manifests.

JSON conventions: complex numbers as {"re": x, "im": y}; the point at
infinity as the string "inf".  All writers emit deterministic bytes for
fixed inputs (sorted keys, fixed float formatting, no timestamp unless
explicitly requested).
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .cmc1 import HorosphericalNet
from .errors import DegenerateFace, HoronetError, MeshMismatch
from .mesh import TriangulatedDisk, _canon, build_disk
from .moebius import MoebiusMap, SpherePoint, chart_plane_to_ball, to_poincare_ball
from .osculating import MoebiusFrame
from .pattern import CirclePattern, CrossRatioSystem

VERSION = "0.1.0"


def complex_to_json(z) -> dict | str:
    if isinstance(z, SpherePoint):
        if z.is_infinity:
            return "inf"
        z = z.value()
    return {"re": z.real, "im": z.imag}


def complex_from_json(obj):
    if obj == "inf":
        return SpherePoint.infinity()
    return complex(obj["re"], obj["im"])


def save_mesh(disk: TriangulatedDisk, positions=None) -> dict:
    doc = {"faces": [list(f) for f in disk.faces]}
    if positions is not None:
        doc["positions"] = [complex_to_json(p) for p in positions]
    return doc


def load_mesh(doc: dict):
    disk = build_disk(doc["faces"])
    positions = None
    if "positions" in doc:
        positions = [complex_from_json(p) for p in doc["positions"]]
    return disk, positions


def save_pattern(pattern: CirclePattern) -> dict:
    return save_mesh(pattern.disk, pattern.z)


def load_pattern(doc: dict) -> CirclePattern:
    disk, positions = load_mesh(doc)
    if positions is None:
        raise HoronetError("pattern file has no positions")
    return CirclePattern(disk, positions)


def save_cross_ratios(x: CrossRatioSystem) -> dict:
    return {
        "edges": [
            {"i": i, "j": j, "re": v.real, "im": v.imag}
            for (i, j), v in zip(x.disk.interior_edges, x.array.tolist())
        ]
    }


def load_cross_ratios(disk: TriangulatedDisk, doc: dict) -> CrossRatioSystem:
    values = {
        (e["i"], e["j"]): complex(e["re"], e["im"]) for e in doc["edges"]
    }
    missing = [e for e in disk.interior_edges if e not in values]
    if missing:
        raise DegenerateFace(f"missing cross ratios on edges {missing[:4]}")
    return CrossRatioSystem(disk, [values[e] for e in disk.interior_edges])


def save_toda(q) -> dict:
    return {
        "edges": [
            {"i": i, "j": j, "q_re": q[(i, j)].real, "q_im": q[(i, j)].imag}
            for (i, j) in sorted(q)
        ]
    }


def load_toda(doc: dict) -> dict:
    return {
        (e["i"], e["j"]): complex(e["q_re"], e["q_im"]) for e in doc["edges"]
    }


def save_frame(frame: MoebiusFrame) -> dict:
    return {
        "mesh": {"faces": [list(f) for f in frame.disk.faces]},
        "source_positions": [complex_to_json(p) for p in frame.source.z],
        "target_positions": [complex_to_json(p) for p in frame.target.z],
        "matrices": [
            [[complex_to_json(a), complex_to_json(b)], [complex_to_json(c), complex_to_json(d)]]
            for a, b, c, d in frame.entries.tolist()
        ],
        "lift": frame.lift,
    }


def load_frame(doc: dict) -> MoebiusFrame:
    disk = build_disk(doc["mesh"]["faces"])

    def pts(key):
        return [complex_from_json(o) for o in doc[key]]

    source = CirclePattern(disk, pts("source_positions"))
    target = CirclePattern(disk, pts("target_positions"))
    for k, m in enumerate(doc["matrices"]):
        if [len(row) for row in m] != [2, 2]:
            raise MeshMismatch(
                f"frame matrix {k} has rows of {[len(row) for row in m]} entries, not 2 x 2"
            )
    rows = [[complex_from_json(e) for row in m for e in row] for m in doc["matrices"]]
    if any(isinstance(e, SpherePoint) for r in rows for e in r):
        raise HoronetError("matrix entries cannot be infinite")
    entries = np.array(rows, dtype=complex)
    return MoebiusFrame(source, target, entries, lift=doc.get("lift", "projective"))


def net_report(net: HorosphericalNet, kind: str = "cmc1") -> dict:
    edges = []
    for (i, j) in sorted(net.edge_measure):
        m = net.edge_measure[(i, j)]
        edges.append(
            {
                "i": i,
                "j": j,
                "ell": m.ell,
                "alpha": m.alpha,
                "theta": m.theta,
                "degenerate": m.degenerate,
            }
        )
    faces = []
    for v in sorted(net.area):
        faces.append(
            {
                "vertex": v,
                "area": net.area[v],
                "H": net.mean_curvature[v],
                "ratio": net.ratio.get(v, math.nan),
            }
        )
    return {
        "kind": kind,
        "degenerate": net.degenerate,
        "edges": edges,
        "dual_faces": faces,
        "incidence_residual": net.incidence_residual,
        "chart_residual": net.chart_residual,
    }


def _sampled_geometry(net: HorosphericalNet, arc_samples: int):
    """Ball-coordinate vertices, edge polylines and dual-face fan triangles.

    Indices are 0-based into the vertex list of (x, y, z) tuples, whose
    first entries are the face points in face order.  Each dual edge is
    sampled once along its arc, in the chart of its first interior end
    vertex; the chart of the other end reuses that polyline reversed.  The
    arc lies on the plane x3 = 1 of both charts, where the angle is
    proportional to hyperbolic arc length, so both charts place the same
    points; an edge that ``measure_net`` calls degenerate is just its two
    face points.  The dual face of each interior primal vertex becomes a
    fan of triangles around its chart centroid.  Charts and circles are the
    ones ``measure_net`` kept; a chart's new samples map to the ball in one
    array step.  A degenerate net has only face points.
    """
    disk = net.disk
    vertices = [to_poincare_ball(x) for x in net.f]
    polylines = []
    triangles = []
    if net.degenerate:
        return vertices, polylines, triangles

    _, nbr, left, right = disk.directed_edges().T.tolist()
    w = net.chart_w.ravel().tolist()
    centers = net.centers.tolist()
    arcs = {}  # primal edge -> polyline, in the chart that sampled it
    for v, ring in zip(disk.interior_vertices, disk.interior_rings().tolist()):
        ring = [row for row in ring if row >= 0]  # -1 past the end of the ring
        new_w = []
        boundary_ids = []
        # segment m joins faces m and m + 1 across v -> ring[m + 1]
        for row in ring[1:] + ring[:1]:
            a, b = right[row], left[row]
            edge = _canon(v, nbr[row])
            if edge in arcs:
                ids = arcs[edge][::-1]
            else:
                first = len(vertices) + len(new_w)
                if not net.edge_measure[edge].degenerate:
                    new_w += _arc_interior(centers[row], w[a], w[b], arc_samples)
                ids = [a // 3, *range(first, len(vertices) + len(new_w)), b // 3]
                arcs[edge] = ids
                polylines.append(ids)
            boundary_ids.extend(ids[:-1])
        cid = len(vertices) + len(new_w)
        new_w.append(sum(w[left[row]] for row in ring) / len(ring))
        chart = MoebiusMap(*net.charts[v].tolist()).inverse()
        vertices += map(tuple, chart_plane_to_ball(chart, new_w).tolist())
        triangles += [
            (cid, a, b) for a, b in zip(boundary_ids, boundary_ids[1:] + boundary_ids[:1])
        ]
    return vertices, polylines, triangles


def _arc_interior(center, w_a, w_b, count):
    """Chart points that cut the arc from w_a to w_b into count equal parts."""
    if count <= 1:
        return []
    if cmath.isnan(center):  # the neighbour is a plane: a straight segment
        return [w_a + (w_b - w_a) * m / count for m in range(1, count)]
    phi = cmath.phase((w_b - center) / (w_a - center))
    return [
        center + (w_a - center) * cmath.exp(1j * phi * m / count)
        for m in range(1, count)
    ]


def export_net_obj(net: HorosphericalNet, arc_samples: int = 16) -> str:
    """OBJ with vertices in Poincare ball coordinates.

    Each dual edge is written once, as an ``l`` polyline sampled along its
    arc; the dual face of each interior primal vertex becomes a fan of
    triangles sampled in its chart and mapped back.  Deterministic ordering
    throughout.
    """
    vertices, polylines, triangles = _sampled_geometry(net, arc_samples)
    lines = ["# horospherical net"]
    lines += ["v %.17g %.17g %.17g" % v for v in vertices]
    if net.degenerate:
        lines.append("# degenerate net: all dual vertices coincide")
    lines += ["l " + " ".join(str(i + 1) for i in ids) for ids in polylines]
    lines += ["f %d %d %d" % (a + 1, b + 1, c + 1) for (a, b, c) in triangles]
    return "\n".join(lines) + "\n"


def export_net_ply(net: HorosphericalNet, arc_samples: int = 16) -> str:
    """ASCII PLY of the same sampled geometry as the OBJ exporter."""
    vertices, _, triangles = _sampled_geometry(net, arc_samples)
    head = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(vertices)}",
        "property double x",
        "property double y",
        "property double z",
        f"element face {len(triangles)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    body = ["%.17g %.17g %.17g" % v for v in vertices]
    body += ["3 %d %d %d" % t for t in triangles]
    return "\n".join(head + body) + "\n"


def export_points_obj(points, edges=None) -> str:
    """OBJ of a point set in R^3 with optional straight edges."""
    lines = ["# trivalent surface"]
    for (x, y, z) in points:
        lines.append("v %.17g %.17g %.17g" % (x, y, z))
    for (a, b) in edges or []:
        lines.append(f"l {a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


@dataclass
class RunManifest:
    subcommand: str
    inputs: dict = field(default_factory=dict)  # path -> sha256
    tolerances: dict = field(default_factory=dict)
    seed_face: int | None = None
    version: str = VERSION
    timestamp: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "RunManifest":
        return RunManifest(**json.loads(text))


def file_hash(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
