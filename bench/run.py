"""Benchmark entry point.

    python3 bench/run.py --workload train --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout. With ``--trace 0`` it prints the
end-to-end metrics declared in BENCHMARK.json; with ``--trace 1`` the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. See
bench/README.md for what every metric and workload means.
"""

import os

# BLAS threads are pinned before NumPy is first imported, in this process only.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The process is pinned to one of its CPUs: moved between CPUs by the
# scheduler, it runs from cold caches and its times spread far wider.
CPUS = sorted(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPUS[-1]})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(CPUS),
        "pinned_cpu": CPUS[-1],
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "grouptopo" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}/grouptopo", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    # Import the package from cached bytecode, as an installed one is,
    # whatever PYTHONDONTWRITEBYTECODE says, so set-up does not compile it.
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=workdir,
        spans_path=OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(outcome.metrics) != set(units):
        print(f"bench: metrics {sorted(set(outcome.metrics) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 3
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "machine": machine_info(),
                      "notes": outcome.notes}, sort_keys=True))
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}")
    width = max(len(name) for name in units)
    for name in units:
        print(f"{name:<{width}}  {outcome.metrics[name]:.6g} {units[name]}")
    for name, (value, unit) in outcome.figures.items():
        print(f"{name:<{width}}  {value!r} {unit}")
    print(f"{'failed/attempted':<{width}}  {outcome.failed}/{outcome.attempted}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
