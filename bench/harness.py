"""Run loop and metrics of the benchmark; ``run.py`` is its command line."""

from __future__ import annotations

import gc
import os
import platform
import random
import resource
import statistics
import time
from pathlib import Path

import numpy
import scipy

import workloads
from horonet.errors import HoronetError
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5

END_TO_END = {
    "faces_per_s": "faces/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics of the traced run: median self time per call (ms),
# worst residual or order, or a count per pass.
STAGE_MS = (
    "mesh.build_disk", "mesh.lattice_subcomplex",
    "toda.labeling", "toda.triangulate", "toda.family_xt",
    "pattern.cross_ratios", "pattern.closure", "pattern.develop",
    "osculating.frame", "osculating.lift",
    "cmc1.build", "cmc1.measure", "cmc1.dual", "cmc1.extract", "cmc1.parallel",
    "equidistant.build", "equidistant.verify", "equidistant.extract",
    "convergence.solve", "convergence.study",
    "io.obj", "io.ply", "io.report",
)
WORST = (
    "pattern.shear_mismatch",
    "cmc1.ratio_residual", "cmc1.balance_residual",
    "cmc1.chart_residual", "cmc1.incidence_residual",
    "equidistant.cosphericity_residual",
    "convergence.frame_order", "convergence.surface_order",
)
COUNTS = ("mesh.faces", "pattern.failed", "cmc1.failed", "io.obj_bytes")
PER_LAYER = {
    **{f"{name}_ms": "ms" for name in STAGE_MS},
    **{name: "ratio" for name in WORST},
    **{name: "count" for name in COUNTS},
    "trace.overhead_frac": "ratio",
}


def _git_commit() -> str | None:
    """Commit of the checkout, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_phase(ops, seed, seconds, tracer):
    """Whole passes over ``ops`` until ``seconds`` have elapsed.

    Returns one record per op run: cell, faces, duration (s), failure.
    """
    rng = random.Random(seed)
    records = []
    passes = 0
    begin = time.perf_counter()
    while passes == 0 or time.perf_counter() - begin < seconds:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            gc.collect()  # each op starts from the same collector state
            rec = {"cell": op.cell, "faces": op.faces, "failure": None}
            if tracer is not None:
                tracer.cell = op.cell
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.span("op"):
                        out = op.traced(tracer)
            except HoronetError as exc:
                rec["duration"] = time.perf_counter() - t0
                rec["failure"] = {"code": exc.code, "stage": workloads.raise_site(exc)}
            else:
                rec["duration"] = time.perf_counter() - t0
                reason = op.check(out, tracer is not None)
                if reason is not None:
                    rec["failure"] = {"code": "CheckFailed", "stage": reason}
            records.append(rec)
        passes += 1
    return records, passes


def best_times(records) -> dict:
    """Per cell: faces, least wall time over the run, share of ops passed.

    Other processes on the machine only ever slow an op down, so a cell's
    least time over the run's passes is its steadiest cost estimate.
    """
    cells: dict = {}
    for r in records:
        faces, best, runs, passed = cells.get(r["cell"], (r["faces"], r["duration"], 0, 0))
        cells[r["cell"]] = (
            faces,
            min(best, r["duration"]),
            runs + 1,
            passed + (r["failure"] is None),
        )
    return cells


def faces_per_s(records) -> float:
    """Faces of the ops that passed their check over the wall time of all
    ops, failed ones included, each cell taken at its least time."""
    cells = best_times(records).values()
    done = sum(faces * passed / runs for faces, _, runs, passed in cells)
    return done / sum(best for _, best, _, _ in cells)


def failure_summary(records) -> list:
    """Distinct (cell, code, stage) failures with their counts."""
    seen: dict = {}
    for r in records:
        if r["failure"] is not None:
            key = (r["cell"], r["failure"]["code"], r["failure"]["stage"])
            seen[key] = seen.get(key, 0) + 1
    return [
        {"cell": c, "code": code, "stage": stage, "count": n}
        for (c, code, stage), n in sorted(seen.items())
    ]


def op_percentiles(records):
    """Median over cells of the cell's least op time, 95th percentile of all
    op times (ms), and the number of ops slower than that percentile."""
    p50 = 1e3 * statistics.median(best for _, best, _, _ in best_times(records).values())
    ms = sorted(1e3 * r["duration"] for r in records)
    if len(ms) == 1:
        return p50, ms[0], 0
    p95 = statistics.quantiles(ms, n=20, method="inclusive")[18]
    return p50, p95, sum(d > p95 for d in ms)


def end_to_end_metrics(records, setup_s) -> dict:
    p50, p95, _ = op_percentiles(records)
    metrics = {
        "faces_per_s": faces_per_s(records),
        "op_p50_ms": p50,
        "op_p95_ms": p95,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if any(r["failure"] is not None for r in records):
        # a failing cell that gets fixed would read as a slower p95
        del metrics["op_p95_ms"]
    return metrics


def per_layer_metrics(tracer, records, passes, untraced_fps) -> dict:
    table = tracer.self_times()
    out = {}
    for name in STAGE_MS:
        out[f"{name}_ms"] = table[name]["median_ms"] if name in table else 0.0
    for name in WORST:
        out[name] = tracer.worst_values.get(name, 0.0)
    failures = [r["failure"]["stage"] for r in records if r["failure"] is not None]
    out["mesh.faces"] = sum(r["faces"] for r in records) / passes
    out["pattern.failed"] = sum(s.startswith("pattern.") for s in failures) / passes
    out["cmc1.failed"] = sum(s.startswith("cmc1.") for s in failures) / passes
    out["io.obj_bytes"] = tracer.counts.get("io.obj_bytes", 0) / passes
    out["trace.overhead_frac"] = 1.0 - faces_per_s(records) / untraced_fps if untraced_fps else 0.0
    return out, table


def run_workload(name, seed, seconds, trace, cells=None, import_s=0.0):
    """Run one workload with its full cell list, or with ``cells``.

    Returns the result line, the run metadata, and for a traced run the
    self-time table and the spans (else ``None`` for both).
    """
    workload = workloads.WORKLOADS[name]
    cells = tuple(cells) if cells is not None else workload.cells
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(cells)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)
    ops = workload.ops(state, cells)
    gc.collect()
    gc.freeze()  # inputs built in set-up are not rescanned by the collector

    # a traced run splits its time between an untraced and a traced phase
    phase_s = seconds / 2 if trace else seconds
    records, passes = run_phase(ops, seed, phase_s, None)
    table = None
    if trace:
        tracer = Tracer()
        traced, traced_passes = run_phase(ops, seed, phase_s, tracer)
        untraced_fps = faces_per_s(records)
        metrics, table = per_layer_metrics(tracer, traced, traced_passes, untraced_fps)
        units = PER_LAYER
        all_records = records + traced
        spans = tracer.spans
    else:
        metrics = end_to_end_metrics(records, setup_s)
        units = END_TO_END
        all_records = records
        spans = None

    failed = sum(r["failure"] is not None for r in all_records)
    checks_ok = not any(
        r["failure"] is not None and r["failure"]["code"] == "CheckFailed"
        for r in all_records
    )
    gc.unfreeze()
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "cells": [op.cell for op in ops],
        "passes": passes,
        "op_samples": len(records),
        "op_p95_samples_beyond": op_percentiles(records)[2],
        "failure_share": failed / len(all_records),
        "failures": failure_summary(all_records),
        "setup_repeats_s": setup_times,
        "import_s": import_s,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    result = {
        "correct": checks_ok,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, meta, table, spans


