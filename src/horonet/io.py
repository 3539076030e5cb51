"""File formats, exporters, and run manifests.

JSON conventions: complex numbers as {"re": x, "im": y}; the point at
infinity as the string "inf".  All writers emit deterministic bytes for
fixed inputs (sorted keys, fixed float formatting, no timestamp unless
explicitly requested).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .cmc1 import HorosphericalNet, _atan2
from .errors import DegenerateFace, HoronetError, MeshMismatch
from .mesh import TriangulatedDisk, build_disk
from .moebius import SpherePoint, _complex, ball_rows, cdiv, chart_plane_to_ball, cmul
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
    disk = net.disk  # its interior edges and vertices are in sorted order
    edges = [
        {"i": i, "j": j, "ell": ell, "alpha": alpha, "theta": theta, "degenerate": degenerate}
        for (i, j), (theta, ell, alpha, _, degenerate, _) in zip(
            disk.interior_edges, net.edge_rows.tolist()
        )
    ]
    faces = [
        {"vertex": v, "area": area, "H": h, "ratio": ratio}
        for v, (area, h), ratio in zip(
            disk.interior_vertices, net.dual_face_rows.tolist(), net.ratios().tolist()
        )
    ]
    return {
        "kind": kind,
        "degenerate": net.degenerate,
        "edges": edges,
        "dual_faces": faces,
        "incidence_residual": net.incidence_residual,
        "chart_residual": net.chart_residual,
    }


def _sampled_geometry(net: HorosphericalNet, arc_samples: int):
    """Ball coordinates (N, 3), edge polylines and dual-face fan triangles (T, 3).

    Row indices: the face points in face order, then per interior primal
    vertex the arc samples it takes and its chart centroid.  Rings are
    walked from their second entry, entry m joining faces m and m + 1.  A
    dual edge is sampled at its first entry, in that vertex's chart, and
    reused reversed at the other; in both charts the arc lies on x3 = 1 with
    angle proportional to arc length, so both place the same points.  An
    edge ``measure_net`` calls degenerate is just its two face points.  Each
    dual face is a fan around its centroid.  The chart points round as in
    the scalar loop; one ``chart_plane_to_ball`` call maps them all.
    """
    disk, (a, b, d) = net.disk, net.points.T
    vertices = ball_rows(a.real, b, d.real)
    rings = disk.interior_rings()
    if net.degenerate or not len(rings):
        return vertices, [], np.empty((0, 3), dtype=np.intp)

    n_f, n_e = disk.n_faces, len(disk.interior_edges)
    _, _, left, right = disk.directed_edges().T
    sizes = (rings >= 0).sum(axis=1)
    col = np.arange(rings.shape[1])
    row = np.take_along_axis(rings, (col + 1) % sizes[:, None], axis=1)[col < sizes[:, None]]
    owner = np.repeat(np.arange(len(rings)), sizes)
    # an edge is sampled at its first entry, its source
    _, first, inverse = np.unique(row % n_e, return_index=True, return_inverse=True)
    source = first[inverse]
    forward = source == np.arange(len(row))
    degenerate = net.edge_rows["degenerate"][row % n_e]
    count = np.where(forward & ~degenerate, max(arc_samples - 1, 0), 0)
    # each vertex adds its samples, then its centroid
    start = n_f + np.cumsum(count) - count + owner
    last = np.cumsum(sizes) - 1
    centroid = start[last] + count[last]

    w, k, m = net.chart_w.ravel(), np.flatnonzero(count), np.arange(1, arc_samples)
    w_a, w_b, c = w[right[row[k]], None], w[left[row[k]], None], net.centers[row[k], None]
    samples = np.empty((len(k), len(m)), dtype=complex)
    line = np.isnan(c[:, 0])  # the neighbour is a plane: a straight segment
    step = cmul(w_b[line] - w_a[line], m + 0j)
    samples[line] = w_a[line] + cdiv(step, complex(arc_samples))
    c, w_a, w_b = c[~line], w_a[~line], w_b[~line]
    angle = _atan2(cdiv(w_b - c, w_a - c)[:, 0])[:, None] * m / arc_samples
    samples[~line] = c + cmul(w_a - c, np.exp(_complex(np.zeros_like(angle), angle)))
    chart_w = np.empty(centroid[-1] + 1 - n_f, dtype=complex)
    chart_w[(start[k, None] + m - 1 - n_f).ravel()] = samples.ravel()
    ring_w = np.where(rings >= 0, w[left[rings]], 0.0)  # summed in ring order
    chart_w[centroid - n_f] = cdiv(sum(ring_w.T, 0j), sizes.astype(complex))
    inverse_charts = net.charts[list(disk.interior_vertices)][:, [3, 1, 2, 0]]
    inverse_charts[:, 1:3] = -inverse_charts[:, 1:3]
    blocks = np.diff(centroid, prepend=n_f - 1)
    ball = chart_plane_to_ball(np.repeat(inverse_charts, blocks, axis=0), chart_w)

    # entry k adds its right face, then its edge's samples from that face on
    n = count[source]
    entry = np.repeat(np.arange(len(row)), 1 + n)
    end = np.cumsum(1 + n)
    t = np.arange(end[-1]) - (end - 1 - n)[entry]  # 0 at the face
    ids = start[source][entry] + np.where(forward[entry], t - 1, n[entry] - t)
    ids = np.where(t == 0, right[row[entry]] // 3, ids)
    after = np.arange(1, end[-1] + 1)
    after[end[last] - 1] = (end - 1 - n)[last - sizes + 1]  # a ring closes on its first id
    triangles = np.column_stack((centroid[owner[entry]], ids, ids[after]))

    k = np.sort(first)
    ends = (right[row[k]] // 3, start[k], start[k] + count[k], left[row[k]] // 3)
    polylines = [[a, *range(s, e), b] for a, s, e, b in zip(*(x.tolist() for x in ends))]
    return np.vstack((vertices, ball)), polylines, triangles


def _block(line: str, rows) -> str:
    """One ``line`` per row of ``rows``, formatted with a single %."""
    rows = np.asarray(rows)
    return (line * len(rows)) % tuple(rows.ravel().tolist())


def export_net_obj(net: HorosphericalNet, arc_samples: int = 16) -> str:
    """OBJ with vertices in Poincare ball coordinates.

    Each dual edge is written once, as an ``l`` polyline sampled along its
    arc; the dual face of each interior primal vertex becomes a fan of
    triangles sampled in its chart and mapped back.  Deterministic ordering
    throughout.
    """
    vertices, polylines, triangles = _sampled_geometry(net, arc_samples)
    text = "# horospherical net\n" + _block("v %.17g %.17g %.17g\n", vertices)
    if net.degenerate:
        text += "# degenerate net: all dual vertices coincide\n"
    ids = [i + 1 for line in polylines for i in line]
    text += "".join(["l" + " %d" * len(line) + "\n" for line in polylines]) % tuple(ids)
    return text + _block("f %d %d %d\n", triangles + 1)


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
    body = _block("%.17g %.17g %.17g\n", vertices) + _block("3 %d %d %d\n", triangles)
    return "\n".join(head) + "\n" + body


def export_points_obj(points, edges=None) -> str:
    """OBJ of a point set in R^3 with optional straight edges."""
    text = "# trivalent surface\n" + _block("v %.17g %.17g %.17g\n", points)
    return text + _block("l %d %d\n", np.asarray(edges or [], dtype=np.intp) + 1)


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
