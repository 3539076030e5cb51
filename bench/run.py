"""Benchmark of the horonet pipelines.

    python3 bench/run.py --workload toda_small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Each workload is a closed loop on one thread: ops run one after another in
passes over the workload's fixed cell list, the seed only shuffling the cell
order within a pass.  Whole passes run until ``--seconds`` have elapsed.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics.  With ``--trace 1`` the workload runs for half of ``--seconds``
without spans, then for the other half traced; the last line holds the
per-layer metrics, the self-time table goes to standard error, and the
spans are written to ``bench/out/``.  The line before the last holds the run metadata.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # one thread, set before numpy loads its BLAS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(BENCH)]
    try:
        import horonet
        import harness
        import spans
    except ImportError as exc:
        print(f"cannot import the package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(horonet.__file__).resolve().parent != SRC / "horonet":
        print(f"horonet was imported from {horonet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in harness.workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START

    result, meta, table, span_list = harness.run_workload(
        args.workload, args.seed, args.seconds, args.trace, import_s=import_s
    )
    if args.trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"meta": meta, "self_times": table, "spans": span_list}))
        print(spans.format_table(table), file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
