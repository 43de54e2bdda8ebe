"""The benchmark's workloads, and the worker process that runs one pass.

Each workload is a list of operations driven through the package's public
entry points: `cli.main` in-process, plus `walker.evolve` for the long-run
legs.  Every operation checks its output against the package's own gates
and re-hashes its artifacts against `manifest.json`; a nonzero exit, an
exception or a failed check counts the operation as failed.

Run as a script, this file is the worker: it imports gaugewalk from the
checkout's `src/` and builds the workload's inputs (timed as set-up, after
numpy is loaded), runs every operation once (timed as the workload) and
writes one JSON result.

    python3 gwbench/workloads.py --workload walk --seed 1 --trace 0 --result r.json
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io as _io
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SWEEP_ARGS = ["--epsilon", "0.4", "--epsilon", "0.2", "--epsilon", "0.1", "--epsilon", "0.05",
              "--x-max", "30", "--t-max", "10"]
WALK_ARGS = ["--epsilon", "0.025", "--x-max", "35", "--t-max", "20", "--k0", "1",
             "--sigma", "0.5", "--e-ym", "0.05"]
WALK_STEPS = 800
LONG_RUN_STEPS = 10_000
DIMS = (1, 2, 3)

# Operation names per workload; the parent process reads these without
# importing gaugewalk, to count the attempts of a worker that died.
OPS = {
    "sweep": ("convergence",),
    "walk": ("trajectory", "evolve"),
    "audit": tuple(f"gauge-check-{n}" for n in DIMS) + ("curvature-check",)
    + tuple(f"long-run-{n}" for n in DIMS),
}


class CheckFailed(Exception):
    """An operation's output missed one of the package's gates."""


@dataclass
class Op:
    name: str
    run: Callable[[object], None]  # takes the tracer; raises on failure


def use_checkout_source() -> None:
    """Import gaugewalk from this checkout's src/, never from elsewhere."""
    if not (SRC / "gaugewalk" / "__init__.py").is_file():
        raise FileNotFoundError(f"no gaugewalk package under {SRC}")
    sys.path.insert(0, str(SRC))


def gaugewalk_modules() -> dict:
    import gaugewalk
    from gaugewalk import analysis, classical, cli, dirac, experiments, io, lattice, unitary, walker

    if Path(gaugewalk.__file__).resolve().parent != (SRC / "gaugewalk").resolve():
        raise ImportError(f"gaugewalk imported from {gaugewalk.__file__}, not {SRC}")
    return {"analysis": analysis, "classical": classical, "cli": cli, "dirac": dirac,
            "experiments": experiments, "io": io, "lattice": lattice, "unitary": unitary,
            "walker": walker}


class SpeedProbe:
    """Samples the speed of the core the worker runs on.

    Every INTERVAL_S a SIGALRM handler times a fixed kernel on the main
    thread: a Python loop, an FFT and a batched 2x2 matrix product, the
    three kinds of work the workloads do.  On a shared host the core slows
    down for seconds at a time and the kernel slows with it, so
    REFERENCE_S / kernel time is the core's speed relative to a fast one."""

    INTERVAL_S = 0.005
    REFERENCE_S = 100e-6  # kernel time on a fast 2-vCPU x86_64 VM core

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._fft = np.fft.fft
        self._signal = rng.standard_normal((512, 4)) + 0j
        self._matrices = rng.standard_normal((1024, 2, 2)) + 0j
        self._vectors = rng.standard_normal((1024, 2, 1)) + 0j
        self.samples: list[float] = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300):
            acc += i * i
        self._fft(self._signal, axis=0)
        self._matrices @ self._vectors
        self.samples.append(time.perf_counter() - t0)

    def scale(self, start: int, **elapsed: float) -> dict:
        """raw_<name>: each elapsed time less the probe's own time since
        samples[start]; <name>: that raw time at the reference speed."""
        window = self.samples[start:]
        spent = sum(window)
        speed = statistics.fmean(self.REFERENCE_S / t for t in window) if window else 1.0
        out = {"speed": speed, "probe_samples": len(window)}
        for name, value in elapsed.items():
            out[f"raw_{name}"] = value - spent
            out[name] = (value - spent) * speed
        return out


class NoTracer:
    def span(self, name, value=None):
        return contextlib.nullcontext()


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def rehash(gw, out: Path) -> None:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    _check(bool(manifest["artifacts"]), f"{out}: manifest lists no artifacts")
    for name, digest in manifest["artifacts"].items():
        _check(gw["io"].sha256_file(out / name) == digest, f"{out / name}: checksum mismatch")


def cli_op(gw, name: str, argv: list[str], check) -> Op:
    """An experiment run through cli.main; check(summary, out) gates it."""
    cli = gw["cli"]
    cfg = cli.build_config(cli.make_parser().parse_args(argv))  # validated during set-up
    out = Path(cfg.output_dir)

    def run(tracer):
        stdout = _io.StringIO()
        with tracer.span("experiments"), contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        _check(code == 0, f"{name}: exit code {code}")
        check(json.loads(stdout.getvalue().strip().splitlines()[-1]), out)
        rehash(gw, out)

    return Op(name, run)


def _read_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {h: [r[i] for r in rows[1:]] for i, h in enumerate(rows[0])}


def check_convergence(summary: dict, out: Path) -> None:
    for part in ("re", "im"):
        slope, r2 = summary[f"slope_{part}"], summary[f"r2_{part}"]
        _check(abs(slope - 1.0) <= 0.15, f"convergence: slope_{part} {slope:.3f} outside 1 +- 0.15")
        _check(r2 >= 0.98, f"convergence: r2_{part} {r2:.4f} < 0.98")


def check_trajectory(summary: dict, out: Path) -> None:
    cols = _read_columns(out / "trajectory.csv")
    xw = [float(v) for v in cols["xbar_walk"]]
    xc = [float(v) for v in cols["x_classical"]]
    _check(len(xw) == WALK_STEPS + 1, f"trajectory: {len(xw)} rows, expected {WALK_STEPS + 1}")
    deviation = max(abs(a - b) for a, b in zip(xw, xc))
    traversed = abs(xc[-1] - xc[0])
    _check(deviation <= 0.05 * traversed,
           f"trajectory: deviation {deviation:.3f} exceeds 5% of {traversed:.3f} traversed")


def checkpoint_matches_csv(gw, out: Path, steps: int) -> None:
    """The checkpoint read back holds, bit for bit, the state in state.csv
    (written with repr floats, which round-trip exactly)."""
    import numpy as np

    state = gw["io"].read_checkpoint(out / "state.ckpt")
    cols = _read_columns(out / "state.csv")
    ncomp = state.amplitudes.shape[1]
    written = np.array([[complex(float(re), float(im)) for re, im in
                         zip(cols[f"re_{c}"], cols[f"im_{c}"])] for c in range(ncomp)]).T.copy()
    _check(state.j == steps, f"evolve: checkpoint at j={state.j}, expected {steps}")
    _check(written.shape == state.amplitudes.shape,
           f"evolve: checkpoint shape {state.amplitudes.shape} vs csv {written.shape}")
    _check(np.array_equal(written.view(np.uint64), state.amplitudes.view(np.uint64)),
           "evolve: checkpoint amplitudes differ from the written state")


def check_evolve(gw):
    def check(summary: dict, out: Path) -> None:
        drift = summary["probability_drift"]
        _check(summary["steps"] == WALK_STEPS, f"evolve: {summary['steps']} steps")
        _check(drift <= 1e-10, f"evolve: probability drift {drift:.2e} > 1e-10")
        checkpoint_matches_csv(gw, out, WALK_STEPS)

    return check


def check_gauge(summary: dict, out: Path) -> None:
    report = json.loads((out / "gauge_check.json").read_text(encoding="utf-8"))
    _check(summary["passed"] is True and report["passed"] is True,
           f"gauge-check: residuals {report['residuals']}")


def check_curvature(summary: dict, out: Path) -> None:
    order = summary["observed_order"]
    _check(order >= 2.5, f"curvature-check: observed order {order:.2f} < 2.5")


def long_run_op(gw, dim: int, seed: int) -> Op:
    """Criterion 01: 1e4 steps on 17 sites of a random U(N) field."""
    import numpy as np

    lat, wk = gw["lattice"], gw["walker"]
    spec = lat.LatticeSpec(0.1, 8, LONG_RUN_STEPS)
    field = lat.GaugeField.random(spec, dim, seed=seed * 10 + dim, scale=0.8)
    rng = np.random.default_rng([seed, dim])
    amps = rng.standard_normal((spec.n_sites, 2 * dim)) + 1j * rng.standard_normal((spec.n_sites, 2 * dim))
    state = wk.WalkState(spec, dim, 0, amps / np.linalg.norm(amps))
    config = wk.WalkConfig(dim, 0.37)

    def run(tracer):
        before = wk.total_probability(state)
        final = wk.evolve(state, field, config, LONG_RUN_STEPS)
        drift = abs(wk.total_probability(final) - before)
        _check(final.j == LONG_RUN_STEPS, f"long-run-{dim}: stopped at j={final.j}")
        _check(drift <= 1e-10, f"long-run-{dim}: probability drift {drift:.2e} > 1e-10")

    return Op(f"long-run-{dim}", run)


def build(gw, workload: str, seed: int) -> list[Op]:
    """Set-up: parse and validate every config and build every input.
    Relative output directories keep the artifacts byte-identical wherever
    the checkout lives."""
    if workload == "sweep":
        return [cli_op(gw, "convergence", ["convergence", *SWEEP_ARGS, "--out", "sweep"],
                       check_convergence)]
    if workload == "walk":
        return [cli_op(gw, "trajectory", ["trajectory", *WALK_ARGS, "--out", "trajectory"],
                       check_trajectory),
                cli_op(gw, "evolve", ["evolve", *WALK_ARGS, "--out", "evolve"], check_evolve(gw))]
    if workload == "audit":
        ops = [cli_op(gw, f"gauge-check-{n}",
                      ["gauge-check", "--dim", str(n), "--seed", str(seed), "--out", f"gauge{n}"],
                      check_gauge) for n in DIMS]
        ops.append(cli_op(gw, "curvature-check",
                          ["curvature-check", "--seed", str(seed), "--out", "curvature"],
                          check_curvature))
        ops += [long_run_op(gw, n, seed) for n in DIMS]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def run_ops(ops: list[Op], tracer) -> list[dict]:
    """Run every operation in order; one failure does not stop the rest."""
    results = []
    for op in ops:
        t0 = time.perf_counter()
        error = None
        try:
            with tracer.span(f"op:{op.name}"):
                op.run(tracer)
        except Exception as exc:  # any failure of one operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        results.append({"name": op.name, "ok": error is None, "error": error,
                        "wall_s": time.perf_counter() - t0})
    return results


def run_pass(gw, ops: list[Op], traced: bool, probe: SpeedProbe, spans_path: Path) -> dict:
    from tracer import Tracer, install, layer_metrics, wrapped_targets

    tracer = Tracer() if traced else NoTracer()
    if traced:
        install(tracer, gw)
    mark = len(probe.samples)
    cpu0, t0 = time.process_time(), time.perf_counter()
    result = {"ops": run_ops(ops, tracer)}
    result.update(probe.scale(mark, wall_s=time.perf_counter() - t0,
                              cpu_s=time.process_time() - cpu0))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced:
        tracer.restore()
        result["layers"] = layer_metrics(tracer.spans)
        tracer.write(spans_path)
    # a wrapper left behind would put tracing cost into the timed runs
    result["wrapped"] = wrapped_targets(gw)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one pass of a benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(OPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True, help="where to write the JSON result")
    args = ap.parse_args(argv)

    # numpy is loaded before set-up is timed.  Its import is a third-party
    # cost no change here can move, and its BLAS thread start-up waits on the
    # other core, which made set-up time bimodal on a shared host.
    import numpy  # noqa: F401

    # Traced passes run without the probe, so their times are raw only.
    probe = SpeedProbe()
    with contextlib.nullcontext() if args.trace else probe:
        t0 = time.perf_counter()
        use_checkout_source()
        gw = gaugewalk_modules()
        ops = build(gw, args.workload, args.seed)
        result = probe.scale(0, setup_s=time.perf_counter() - t0)
        if not args.setup_only:
            result.update(run_pass(gw, ops, bool(args.trace), probe,
                                   Path(args.result).with_suffix(".spans.csv")))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
