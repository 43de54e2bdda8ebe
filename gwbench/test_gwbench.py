"""Tests of the benchmark's own code on tiny in-test workloads.

    python3 -m pytest gwbench/test_gwbench.py -q
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer as tr
import workloads as wl

wl.use_checkout_source()
GW = wl.gaugewalk_modules()


@pytest.fixture
def traced():
    t = tr.Tracer()
    tr.install(t, GW)
    yield t
    t.restore()


def test_workloads_build_the_declared_operations():
    for workload, names in wl.OPS.items():
        assert tuple(op.name for op in wl.build(GW, workload, seed=7)) == names


def test_self_time_excludes_nested_children():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 5.5, 6.5, 7.0, 10.0])
    t = tr.Tracer(clock=lambda: next(ticks))
    with t.span("a"):
        with t.span("b"):
            pass
        with t.span("c"):
            with t.span("d"):
                pass
    assert [s.parent for s in t.spans] == [-1, 0, 0, 2]
    assert tr.self_times(t.spans) == [5.0, 3.0, 1.0, 1.0]


def test_tracing_leaves_no_wrapper_behind():
    assert tr.wrapped_targets(GW) == []
    t = tr.Tracer()
    tr.install(t, GW)
    try:
        assert len(tr.wrapped_targets(GW)) == len(tr.targets(GW))
    finally:
        t.restore()
    assert tr.wrapped_targets(GW) == []


def test_slice_builds_are_requests_that_validate_their_own_slice(traced):
    lat = GW["lattice"]
    spec = lat.LatticeSpec(0.1, 2, 4)
    field = lat.GaugeField.random(spec, 2, seed=0)
    g = lat.GaugeTransformation.random(spec, 2, seed=1)
    moved = lat.transform_potentials(field, g)
    field.P(0)  # builds P and Q of slice 0
    field.Q(0)  # hit
    field.P(0)  # hit
    # builds moved slice 1 from G(2), G(1) and field slice 1, each a build
    # nested in it; field.Q(1) inside is a hit
    moved.P(1)
    m = tr.layer_metrics(traced.spans)
    assert m["lattice.slice.requests"] == 8
    assert m["lattice.slice.builds"] == 5
    assert m["lattice.slice.hit_ratio"] == pytest.approx(3 / 8)
    assert m["unitary.unitarity_defect.calls"] == 8
    assert m["unitary.unitarity_defect.matrices"] == 8 * spec.n_sites
    assert m["unitary.exp_map.matrices"] == 2 * 2 * spec.n_sites + 2 * spec.n_sites


def test_sweep_legs_keyed_by_epsilon_account_for_the_run(traced, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["convergence", "--epsilon", "0.4", "--epsilon", "0.2", "--epsilon", "0.1",
            "--x-max", "15", "--t-max", "0.4", "--out", "conv"]
    results = wl.run_ops([wl.cli_op(GW, "convergence", argv, lambda summary, out: None)], traced)
    assert results[0]["ok"], results[0]["error"]

    spans = traced.spans
    legs = tr.sweep_legs(spans)
    assert sorted(legs) == sorted(f"sweep.{kind}.eps{eps}" for kind in ("walk_s", "ref_s")
                                  for eps in ("0.4", "0.2", "0.1"))
    assert all(v > 0 for v in legs.values())
    # the experiment span is the legs plus io and metric calls plus its own self time
    (exp,) = [i for i, s in enumerate(spans) if s.name == "experiments"]
    children = [s for s in spans if s.parent == exp]
    assert {s.name for s in children} == {"walker.evolve", "dirac.solve", "io.write",
                                          "analysis.relative_difference"}
    m = tr.layer_metrics(spans)
    other = sum(s.end - s.start for s in children
                if s.name in ("io.write", "analysis.relative_difference"))
    total = spans[exp].end - spans[exp].start
    assert sum(legs.values()) + other + m["experiments.self_s"] == pytest.approx(total, abs=1e-9)
    assert m["dirac.rk2_step.calls"] == 3 * 200
    assert m["dirac.spectral_derivative.calls"] == m["dirac.potential_matrices.calls"] == 2 * 600
    # only the convergence operation's legs are keyed, not other evolve calls
    with traced.span("op:elsewhere"):
        GW["walker"].evolve(*_tiny_walk(0.1), 2)
    assert tr.sweep_legs(traced.spans) == legs


def _tiny_walk(eps):
    import numpy as np

    lat, wk = GW["lattice"], GW["walker"]
    spec = lat.LatticeSpec(eps, 4, 4)
    amps = np.zeros((spec.n_sites, 2), dtype=complex)
    amps[0, 0] = 1.0
    return wk.WalkState(spec, 1, 0, amps), lat.GaugeField.identity(spec, 1), wk.WalkConfig(1, 0.3)


def _tamper(summary, out):
    with open(out / "curvature_check.json", "a", encoding="utf-8") as fh:
        fh.write(" ")


def test_failed_checks_count_in_fail_ratio(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    ops = [
        wl.cli_op(GW, "passes", ["curvature-check", "--out", "a"], wl.check_curvature),
        wl.cli_op(GW, "gate", ["curvature-check", "--out", "b"],
                  lambda summary, out: wl._check(summary["observed_order"] >= 99, "forced")),
        wl.cli_op(GW, "tampered", ["curvature-check", "--out", "c"], _tamper),
        wl.cli_op(GW, "exit-1", ["trajectory", "--mass", "0", "--out", "d"], wl.check_trajectory),
    ]
    results = wl.run_ops(ops, wl.NoTracer())
    assert [r["ok"] for r in results] == [True, False, False, False]
    assert "checksum mismatch" in results[2]["error"]
    assert "exit code 1" in results[3]["error"]

    done = {"ops": results, "wall_s": 1.0, "cpu_s": 1.0, "setup_s": 0.2, "peak_rss_mb": 40.0,
            "wrapped": [], "traced": False}
    summary = run.summarize("walk", [done, None], [0.3], trace=False)
    # a pass that returned nothing fails every operation of the workload
    assert (summary["attempted"], summary["failed"]) == (6, 5)
    assert summary["metrics"]["ok_ratio"]["value"] == pytest.approx(1 / 6)
    assert not summary["correct"]
    leaked = dict(done, ops=[results[0]], wrapped=["walker.step"])
    assert run.summarize("walk", [leaked], [], trace=False)["failed"] == 1


def test_checkpoint_read_back_must_match_written_state(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["evolve", "--epsilon", "0.1", "--x-max", "15", "--t-max", "0.5", "--out", "e"]
    assert GW["cli"].main(argv) == 0
    out = tmp_path / "e"
    wl.checkpoint_matches_csv(GW, out, steps=5)
    data = bytearray((out / "state.ckpt").read_bytes())
    data[-1] ^= 1
    (out / "state.ckpt").write_bytes(bytes(data))
    with pytest.raises(wl.CheckFailed, match="differ"):
        wl.checkpoint_matches_csv(GW, out, steps=5)


def test_speed_probe_scales_to_the_reference_speed():
    probe = wl.SpeedProbe()
    probe.samples = [1.0, 2 * probe.REFERENCE_S, 2 * probe.REFERENCE_S]
    scaled = probe.scale(1, wall_s=3.0)
    # the probe's own time is taken out, and a core at half speed halves the time
    assert scaled["raw_wall_s"] == pytest.approx(3.0 - 4 * probe.REFERENCE_S)
    assert scaled["wall_s"] == pytest.approx(scaled["raw_wall_s"] / 2)
    with probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
    assert len(probe.samples) > 3 + 5


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "gwbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "gwbench/run.py", "--workload", "walk", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
