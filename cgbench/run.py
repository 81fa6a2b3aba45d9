"""cgnet benchmark: one command per workload run.

    python3 cgbench/run.py --workload {train,infer_pruned,eval_open} \
        --seed N --seconds S --trace {0,1}

``train`` and ``infer_pruned`` are the workloads BENCHMARK.json gates.
``eval_open`` (one ``cg eval`` call on resnet_cg) runs and checks the same
way, but its throughput spreads 8-10% between runs on the reference host,
more than a third of the 20% bound that the gated workloads stay within, so
it is a diagnostic for changes to the collecting evaluation, not a gate.

Run it from the root of a source tree; it imports ``cgnet`` from ``src/``
and needs nothing built. It sets up the workload from the seed, measures
closed-loop operations for ``--seconds``, checks every output, and prints
the run manifest and then, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones; the traced run also writes its spans and the per-layer
report to ``.cgbench_runs/trace-<workload>-<seed>.json``.

BLAS runs single-threaded: one thread is within every machine's core count
and keeps timings steady on a shared host. The thread variables are set
here, before numpy is imported.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "infer_pruned", "eval_open")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "cgnet" / "__init__.py").is_file():
        print(f"cgbench: no cgnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    from workloads import Size

    runs = ROOT / ".cgbench_runs"
    runs.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        result, extras, report = bench.run(args.workload, args.seed, args.seconds,
                                           bool(args.trace), Size(), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = bench.manifest(args.workload, args.seed, extras, ROOT)
    if report is not None:
        trace_path = runs / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({"manifest": info, **report}))
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        print("layers " + json.dumps(report["layers"], sort_keys=True))
    print("manifest " + json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
