"""gaugewalk benchmark: one workload, one seed, a fixed measuring time.

    python3 gwbench/run.py --workload sweep|walk|audit --seed N --seconds S --trace 0|1

Every pass of the workload runs in a fresh worker process (workloads.py),
and passes repeat until the next one would overrun --seconds.  --trace 0
prints the end-to-end metrics, medians over the passes; --trace 1
alternates untraced and traced passes and prints the traced per-layer
metrics.  The last stdout line is the result object; the line before it
records the environment and every pass.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from workloads import OPS, ROOT, SRC

WORKER = Path(__file__).resolve().parent / "workloads.py"
# set-up-only workers run before and after the passes, so the samples
# span the run rather than one moment of it
SETUP_SAMPLES_EACH_SIDE = 3
# every worker is stopped by then, so a run ends within 180 s
HARD_LIMIT_S = 170.0


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": git_sha(),
        "workload_seed": seed,
        "machine": platform.machine(),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    # the sweep runs its default single-threaded path
    env.pop("GAUGEWALK_THREADS", None)
    return env


def run_worker(workdir: Path, args, traced: bool, setup_only: bool, deadline: float) -> dict | None:
    workdir.mkdir(parents=True)
    timeout = max(1.0, deadline - time.perf_counter())
    result = workdir / "result.json"
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=worker_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f}s in {workdir}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.is_file():
        print(f"worker failed (exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def summarize(workload: str, passes: list[dict | None], setups: list[float], trace: bool) -> dict:
    """The result object from every pass; a pass that returned nothing
    counts all of the workload's operations as failed."""
    attempted = failed = 0
    for p in passes:
        # a wrapper left in place after a pass fails the pass: tracing cost
        # must never reach a timed pass
        ok = [op["ok"] and not p["wrapped"] for op in p["ops"]] if p else [False] * len(OPS[workload])
        attempted += len(ok)
        failed += ok.count(False)
    plain = [p for p in passes if p and not p["traced"]]
    traced = [p for p in passes if p and p["traced"]]
    if not plain or (trace and not traced):
        raise RuntimeError("no pass of the workload completed")
    if trace:
        values = {n: median([p["layers"][n] for p in traced]) for n in traced[0]["layers"]}
        values["trace.overhead_s"] = (median([p["raw_wall_s"] for p in traced])
                                      - median([p["raw_wall_s"] for p in plain]))
    else:
        values = {
            "wall_s": median([p["wall_s"] for p in plain]),
            "cpu_s": median([p["cpu_s"] for p in plain]),
            "setup_s": median(setups + [p["setup_s"] for p in plain]),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
            "ok_ratio": (attempted - failed) / attempted,
        }
    units = declared_units(trace)
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "gaugewalk" / "__init__.py").is_file():
        print(f"no gaugewalk source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    workdir = ROOT / ".gwbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    setups: list[float] = []
    setup_runs = 0

    def sample_setup():
        nonlocal setup_runs
        for _ in range(0 if args.trace else SETUP_SAMPLES_EACH_SIDE):
            setup_runs += 1
            r = run_worker(workdir / f"setup{setup_runs}", args, False, True, deadline)
            if r:
                setups.append(r["setup_s"])

    sample_setup()
    reserve = time.perf_counter() - start  # for the set-up samples after the passes
    passes: list[dict | None] = []
    durations: list[float] = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        elapsed = time.perf_counter() - start
        need_more = len(passes) < (2 if args.trace else 1)
        if not need_more and elapsed + median(durations) + reserve > args.seconds:
            break
        t0 = time.perf_counter()
        r = run_worker(workdir / f"pass{len(passes)}", args, traced, False, deadline)
        durations.append(time.perf_counter() - t0)
        if r:
            r["traced"] = traced
        passes.append(r)
    sample_setup()

    try:
        result = summarize(args.workload, passes, setups, bool(args.trace))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(args.seed),
              "fail_ratio": result["failed"] / result["attempted"],
              "setup_samples": setups, "passes": passes}
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
