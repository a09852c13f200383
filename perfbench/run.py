"""gazedet benchmark: run one workload once and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Workloads: compare64, eval128, gaze512 (see README.md); ``all`` runs the
three in turn and prints one line for each. Each run makes its
inputs from ``--seed`` in a child process, then measures set-up in fresh
interpreters and the timed phase in one workload process. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, whose spans are also written to perfbench/.traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compare64", "eval128", "gaze512")
SETUP_PROBES = 6  # extra set-ups in fresh interpreters; setup_s is the median
# One BLAS/OpenMP thread: default OpenBLAS threading spins a second core for
# no wall-time gain. Fixed malloc thresholds: with glibc's adaptive ones,
# large numpy temporaries alternate between reused heap and fresh pages, and
# heatmap rendering time flips between two modes about 3x apart.
ENV_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "MALLOC_MMAP_THRESHOLD_": str(256 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20),
}


def _child(args: list[str], env: dict, timeout: float) -> None:
    """Run a benchmark script to completion; its output goes to stderr."""
    subprocess.run([sys.executable, *args], env=env, cwd=ROOT, stdout=sys.stderr,
                   check=True, timeout=timeout)


def _read(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload: the result object the last line prints."""
    env = dict(os.environ, **ENV_PINS,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), HERE]))
    work = os.path.join(HERE, ".work", f"{workload}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    wl = ["--workload", workload, "--work", work]
    try:
        _child([os.path.join(HERE, "gen.py"), "--workload", workload,
                "--seed", str(seed), "--out", work], env, 120)
        if workload == "eval128":
            _child([os.path.join(HERE, "workload.py"), *wl, "--prep"], env, 300)
        setups = []
        if not trace:
            for _ in range(SETUP_PROBES):
                _child([os.path.join(HERE, "workload.py"), *wl, "--setup-only"], env, 60)
                setups.append(_read(os.path.join(work, "setup.json"))["setup_s"])
        _child([os.path.join(HERE, "workload.py"), *wl, "--seconds", str(seconds),
                "--trace", str(trace)], env, seconds + 150)
        result = _read(os.path.join(work, "result.json"))
        if trace:
            traces = os.path.join(HERE, ".traces")
            os.makedirs(traces, exist_ok=True)
            shutil.copy(os.path.join(work, "trace.json"),
                        os.path.join(traces, f"{workload}-seed{seed}.json"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result["problems"][:20]:
        print(f"check failed: {workload}: {problem}", file=sys.stderr)
    wall_s = statistics.median(result["wall_s"])
    if trace:
        metrics = dict(result["layers"])
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
    else:
        # mean of per-group medians: compare64's two arms form clusters
        # about 15% apart, and a pooled median would jump between them
        op_p50 = statistics.fmean(statistics.median(v) for v in result["op_ms"].values())
        metrics = {
            "setup_s": {"value": statistics.median(setups + [result["setup_s"]]), "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "op_ms_p50": {"value": op_p50, "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gazedet", "__init__.py")):
        print(f"run.py: no gazedet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload == "all":  # one line per workload, each naming it
        for name in WORKLOADS:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            print(json.dumps({"workload": name, **result}), flush=True)
    else:
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
