"""Run one benchmark workload and print its metrics as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload train-lightgcn --seed 1 \
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run that wraps each layer's entry points
and reports the per-layer breakdown, including the tracing overhead,
and writes every span to ``.perfbench_out/``.  The last stdout line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: One BLAS thread: the request generator, the serving worker and the
#: shard fan-out already share the machine's cores, and competing BLAS
#: threads make run-to-run timings far less steady.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for name in BLAS_ENV:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline
    if args.workload not in pipeline.PROFILES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(pipeline.PROFILES)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        import workload
        result = workload.run(pipeline.PROFILES[args.workload], args.seed,
                              args.seconds, bool(args.trace), work, OUT_DIR)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
