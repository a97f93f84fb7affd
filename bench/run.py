"""citevec benchmark: one workload per process, one JSON result line.

    python3 bench/run.py --workload serve-50k --seed 1 --seconds 45 --trace 0

Each workload does a fixed amount of work, sized to take about
``run_seconds`` of BENCHMARK.json; ``--seconds`` is recorded in the report
but does not change the work, so a faster program is not timed on more
samples than a slower one.  Run from anywhere; the package is imported
from ``src/`` next to this directory.  With ``--trace 0`` the result carries the end-to-end metrics
declared in BENCHMARK.json, measured with tracing off; with ``--trace 1``
it carries the per-layer metrics from a traced run.  The lines before the
JSON give provenance, every metric with its sample count (per-layer ones
not exercised by the workload are marked absent) and the error rate; the
same report, with the spans of a traced run, is written under
``.bench_out/``.  Exit status: 0 when every output check passed, 1 when a
check failed, 2 when the package or BENCHMARK.json is missing.
"""

import os

# BLAS must see these before NumPy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def import_citevec():
    """Import citevec from this checkout's src/, or return None."""
    if not (SRC / "citevec" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import citevec

    if Path(citevec.__file__).resolve().parent != (SRC / "citevec").resolve():
        return None
    return citevec


def provenance() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="recorded only: the work per run is fixed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or import_citevec() is None:
        print(f"bench: needs {spec_path} and the citevec package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    run = workloads.Run(seed=args.seed, trace=bool(args.trace), work=work)
    try:
        with run.tracer.tracing(run.trace):
            workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "samples": {**{name: len(values) for name, values in run.samples.items()},
                    "queries": len(run.query_s), "i4i_queries": len(run.i4i_s)},
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / max(run.attempted, 1),
        "recall_at_10": run.recall,
        "problems": run.problems,
    }
    if args.trace:
        layers = tracing.layer_metrics(run.tracer, run.facts, run.recall,
                                        run.overhead_pct("query"), run.overhead_pct("train"))
        report["per_layer"] = layers
        report["missing_hooks"] = sorted(run.tracer.missing)
        declared = spec["per_layer"]
        values = layers
    else:
        report["end_to_end"] = values = workloads.end_to_end(run)
        declared = spec["end_to_end"]

    metrics = {}
    for entry in declared:
        value = values.get(entry["name"])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if value is None:
            metrics[entry["name"]]["absent"] = True

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        report["spans"] = run.tracer.dump()
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} report={out_path}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print("samples " + json.dumps(report["samples"], sort_keys=True))
    units = {**tracing.LAYER_UNITS, **{e["name"]: e["unit"] for e in spec["end_to_end"]}}
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"  {name:<34} {shown:>12} {units.get(name, '')}")
    if run.tracer.missing:
        print("missing hooks: " + ", ".join(sorted(run.tracer.missing)))
    print("recall_at_10 " + " ".join(f"case{c}={r:.6g}" for c, r in sorted(run.recall.items())))
    print(f"error_rate={report['error_rate']:.6g} ({run.failed}/{run.attempted})")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
