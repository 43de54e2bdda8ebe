"""Experiment configs and the command-line entry point, including exit codes:
0 success, 1 config error, 2 invariant violation, 3 numerical abort."""

import argparse
import csv
import dataclasses
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugewalk import cli
from gaugewalk import dirac as dr
from gaugewalk import experiments as ex
from gaugewalk import lattice as lat
from gaugewalk import unitary as un
from gaugewalk import walker as wk
from references import constant_field

# the experiments that walk the SU(2) electric field, and a small valid walk
WALKS = ("convergence", "trajectory", "evolve")
WALK_FLAGS = ["--epsilon", "0.2", "--x-max", "4", "--t-max", "0.4", "--sigma", "1.6"]


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ex.ExperimentConfig(experiment="evolve")
        assert cfg.dim == 2
        # a walk experiment's own lattice steps: one for a single walk, a sweep for convergence
        assert cfg.epsilons == ex.ExperimentConfig(experiment="trajectory").epsilons == (0.4,)
        assert ex.ExperimentConfig().epsilons == (0.4, 0.2, 0.1, 0.05)
        assert ex.ExperimentConfig(experiment="gauge-check").epsilons is None

    def test_unknown_experiment(self):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(experiment="nope")

    def test_bad_epsilon(self):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(experiment="evolve", epsilons=(0.1, -0.2))

    def test_nonfinite_rejected(self):
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig(experiment="evolve", mass=float("inf"))

    def test_from_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": "evolve", "t_max": 2.0}))
        cfg = ex.ExperimentConfig.from_json(path)
        assert cfg.t_max == 2.0
        path.write_text(json.dumps({"experiment": "evolve", "bogus": 1}))
        with pytest.raises(ex.ConfigError):
            ex.ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("data", [[1, 2], 0.1, "evolve", None], ids=["list", "number", "string", "null"])
    def test_from_json_needs_an_object(self, tmp_path, data):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ex.ConfigError, match="must hold a JSON object"):
            ex.ExperimentConfig.from_json(path)

    def test_from_json_overrides(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"experiment": "evolve", "t_max": 2.0, "mass": 0.3}))
        cfg = ex.ExperimentConfig.from_json(path, t_max=3.0)
        assert (cfg.t_max, cfg.mass) == (3.0, 0.3)
        assert ex.ExperimentConfig.from_json(None, experiment="evolve") == ex.ExperimentConfig(experiment="evolve")

    @pytest.mark.parametrize("epsilons", [0.1, "0.1", {}])
    def test_epsilons_must_be_a_list(self, epsilons):
        with pytest.raises(ex.ConfigError, match="^epsilons must be a list of positive finite numbers$"):
            ex.ExperimentConfig(experiment="evolve", epsilons=epsilons)


class TestPotentialLibraries:
    def test_electric_field_coordinates(self):
        b0, b1 = ex.su2_electric_potentials(0.3)
        assert np.allclose(b0(2.0, 0.0), 0.0)
        assert np.allclose(b1(2.0, 0.0), [0.0, 0.6, 0.0, 0.0])

    def test_generic_field_is_noncommuting(self):
        b0, b1 = ex.generic_su2_potentials()
        gens = un.generators_u(2)
        m0 = gens.assemble(np.asarray(b0(0.5, 0.0)))
        m1 = gens.assemble(np.asarray(b1(0.5, 0.0)))
        assert np.max(np.abs(m0 @ m1 - m1 @ m0)) > 1e-3


class TestGaugeCheckInternals:
    def test_residuals_tiny_on_random_draw(self):
        spec = lat.LatticeSpec(0.1, 6, 20)
        res = ex.gauge_check_residuals(2, spec, seed=123, steps=15)
        assert res["commuting_square"] <= 1e-12
        assert res["curvature_covariance"] <= 1e-12
        assert res["curvature_factorization"] <= 1e-12
        assert res["probability_drift"] <= 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 10_000), st.integers(1, 12))
    def test_lockstep_square_equals_sequential_walks(self, dim, seed, steps):
        spec = lat.LatticeSpec(0.1, 4, 14)
        got = ex.gauge_check_residuals(dim, spec, seed, steps)["commuting_square"]
        # the same draws, with the plain walk run to the end before the primed one
        rng = np.random.default_rng(seed)
        field_ = lat.GaugeField.random(spec, dim, seed, scale=0.5)
        g = lat.GaugeTransformation.random(spec, dim, seed + 1, scale=0.5)
        shape = (spec.n_sites, 2 * dim)
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        psi = wk.WalkState(spec, dim, 0, amps / np.linalg.norm(amps))
        cfg = wk.WalkConfig(dim, 0.3)
        plain = wk.evolve(psi, field_, cfg, steps)
        primed = wk.evolve(wk.gauge_transform_state(psi, g), lat.transform_potentials(field_, g), cfg, steps)
        assert got == np.max(np.abs(primed.amplitudes - wk.gauge_transform_state(plain, g).amplitudes))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_check_lattice_builds_each_slice_once(self, monkeypatch, dim, seed):
        # the curvature samples at random j must find every slice the walks
        # built still memoised: no field, G or transformed slice is rebuilt.
        # Every slice built passes one unitarity check per kind, so a slice
        # built twice would show as the same links checked twice.
        checked = []

        def recording(links, _fn=lat.unitarity_defect):
            checked.extend(m.tobytes() for m in links)
            return _fn(links)

        monkeypatch.setattr(lat, "unitarity_defect", recording)
        ex.gauge_check_residuals(dim, lat.LatticeSpec(0.1, 8, 52), seed)
        assert len(set(checked)) == len(checked)
        # both walks read P and Q of slices 0..49, the primed one G 0..50 too
        assert len(checked) >= 2 * 2 * 50 + 51

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_a_trial_builds_g_in_runs(self, monkeypatch, dim, seed):
        # a transformed run asks G for its slices as one run, so a trial makes a
        # handful of exp_map calls, where G in runs of one made about 54
        calls = []

        def counting(coords, gens, _fn=lat.exp_map):
            calls.append(len(coords))
            return _fn(coords, gens)

        monkeypatch.setattr(lat, "exp_map", counting)
        ex.gauge_check_residuals(dim, lat.LatticeSpec(0.1, 8, 52), seed)
        assert len(calls) <= 10

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_g_is_first_built_as_the_transformed_field_first_run(self, monkeypatch, dim):
        # the primed start reads G(0) and the transformed field's first run
        # G 0 .. RUN - 1: one exp_map call builds them all, not G(0) alone first
        runs = []

        def recording(coords, gens, _fn=lat.exp_map):
            runs.append(np.shape(coords)[:2])
            return _fn(coords, gens)

        monkeypatch.setattr(lat, "exp_map", recording)
        ex.gauge_check_residuals(dim, lat.LatticeSpec(0.1, 8, 52), 3)
        # a field's run draws two kinds of link (P and Q), G's one
        assert [count for count, kinds in runs if kinds == 1][0] == lat.RUN

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_residuals_equal_those_with_g_built_one_slice_at_a_time(self, monkeypatch, dim):
        spec = lat.LatticeSpec(0.1, 8, 52)
        in_runs = ex.gauge_check_residuals(dim, spec, 7)
        one_at_a_time = lat.GaugeTransformation.G
        monkeypatch.setattr(lat.GaugeTransformation, "G", lambda self, j, ahead=1: one_at_a_time(self, j))
        assert ex.gauge_check_residuals(dim, spec, 7) == in_runs

    def test_seeds_draw_disjoint_trials(self, monkeypatch, tmp_path):
        drawn = []

        def recording(dim, spec, seed):
            drawn.append(seed)
            return {"commuting_square": 0.0}

        monkeypatch.setattr(ex, "gauge_check_residuals", recording)
        for seed in (1, 2):
            ex.run_gauge_check(ex.ExperimentConfig(experiment="gauge-check", seed=seed,
                                                   output_dir=str(tmp_path / str(seed))))
        # 20 trials per seed, no draw made twice
        assert len(drawn) == len(set(drawn)) == 40

    def test_abelian_consistency(self):
        assert ex.abelian_consistency_residual(seed=7) <= 1e-12


class TestCliExitCodes:
    def test_success_and_artifacts(self, tmp_path, capsys):
        rc = cli.main(["evolve", "--epsilon", "0.2", "--x-max", "4", "--t-max", "1",
                       "--sigma", "1.6", "--out", str(tmp_path / "run")])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["experiment"] == "evolve"
        assert summary["probability_drift"] <= 1e-10
        out = tmp_path / "run"
        assert (out / "state.csv").exists()
        assert (out / "state.ckpt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["artifacts"]) == {"state.csv", "state.ckpt"}
        assert manifest["config"]["t_max"] == 1.0

    def test_config_error_is_exit_1(self, no_compute, tmp_path, capsys):
        rc = cli.main(["evolve", "--epsilon", "-0.1"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err
        rc = cli.main(["convergence", "--epsilon", "-0.1", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: epsilons")
        assert not (tmp_path / "run").exists()

    def test_missing_config_file_is_exit_1(self, capsys):
        rc = cli.main(["evolve", "--config", "/nonexistent/c.json"])
        assert rc == 1

    def test_malformed_json_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = cli.main(["evolve", "--config", str(path)])
        assert rc == 1

    def test_numerical_abort_is_exit_3(self, tmp_path, capsys):
        # x_max = 6 leaves almost no safety margin beyond the packet width,
        # so the drifting mean position trips the boundary abort quickly
        rc = cli.main(["trajectory", "--epsilon", "0.2", "--x-max", "6",
                       "--sigma", "1.1", "--k0", "1.0", "--t-max", "2",
                       "--e-ym", "0.05", "--out", str(tmp_path / "run")])
        assert rc == 3
        assert "numerical abort" in capsys.readouterr().err

    def test_boundary_exit_names_the_safe_zone(self, tmp_path):
        cfg = ex.ExperimentConfig(experiment="trajectory", epsilons=(0.2,), x_max=6.0, sigma=1.1,
                                  k0=1.0, t_max=2.0, e_ym=0.05, output_dir=str(tmp_path / "run"))
        with pytest.raises(dr.NumericalAbort) as info:
            ex.run_trajectory(cfg)
        message = str(info.value)
        assert "safe zone |x| <= 0.363636" in message and "at t = " in message
        assert "non-finite" not in message

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"t_max": 1.0, "x_max": 4.0, "sigma": 1.6,
                                    "epsilons": [0.2]}))
        rc = cli.main(["evolve", "--config", str(path), "--t-max", "0.4",
                       "--out", str(tmp_path / "run")])
        assert rc == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["t_max"] == 0.4  # flag wins
        assert manifest["config"]["x_max"] == 4.0  # file value kept

    def test_gauge_check_passes(self, tmp_path, capsys):
        rc = cli.main(["gauge-check", "--seed", "5", "--out", str(tmp_path / "run")])
        assert rc == 0
        report = json.loads((tmp_path / "run" / "gauge_check.json").read_text())
        assert report["passed"]
        assert all(v <= 1e-10 for v in report["residuals"].values())

    @pytest.mark.parametrize("argv, message", [
        (["gauge-check", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
        (["evolve", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
        ([], "the following arguments are required: experiment"),
        (["nope"], "argument experiment: invalid choice: 'nope'"),
        # an unknown flag before the experiment, whose value argparse would take for the experiment
        (["--bogus", "1"], "unrecognized arguments: --bogus 1\n"),
        (["-x", "1"], "unrecognized arguments: -x 1\n"),
        (["--bogus=1"], "unrecognized arguments: --bogus=1\n"),
    ], ids=["seed-not-int", "unknown-flag", "no-experiment", "unknown-experiment",
            "flag-before-experiment", "short-flag-before-experiment", "flag-with-value-before-experiment"])
    def test_malformed_flags_are_exit_1(self, no_compute, capsys, argv, message):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["gauge-check", "--help"]], ids=["top", "experiment"])
    def test_help_is_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: gaugewalk")

    @pytest.mark.parametrize("experiment", list(ex.EXPERIMENTS))
    def test_every_experiment_answers_help(self, no_compute, capsys, experiment):
        # README's paper runs name these subcommands; each prints its own usage
        with pytest.raises(SystemExit) as info:
            cli.main([experiment, "--help"])
        assert info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: gaugewalk {experiment} ")
        assert captured.err == ""

    def test_convergence_under_resolution_is_exit_1(self, no_compute, capsys):
        # k0 + 4 sigma beyond the lattice Nyquist must be refused up front:
        # 4 sigma = 12 exceeds pi / 0.4 ~ 7.9 on the coarsest leg
        rc = cli.main(["convergence", "--epsilon", "0.4", "--epsilon", "0.2",
                       "--epsilon", "0.1", "--sigma", "3.0"])
        assert rc == 1
        assert "under-resolved at eps=0.4" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code, prefix", [
    (ex.ConfigError("bad"), 1, "config error: bad"),
    (ex.InvariantViolation("drift"), 2, "invariant violation: drift"),
    (dr.NumericalAbort(0.5), 3, "numerical abort: non-finite field at t = 0.5"),
    (un.UnitarityError("P slice j=3 not unitary (defect 1.0e+00)"), 2,
     "invariant violation: P slice j=3 not unitary (defect 1.0e+00)"),
    (un.DimensionError("shape"), 1, "config error: shape"),
])
def test_report_failures_maps_cause_to_exit_code(exc, code, prefix, capsys):
    def run():
        raise exc

    assert cli.report_failures(run) == code
    assert capsys.readouterr().err == prefix + "\n"


def test_non_finite_slice_is_an_invariant_violation(capsys):
    spec = lat.LatticeSpec(0.1, 5, 8)
    good = np.broadcast_to(np.eye(2, dtype=complex), (spec.n_sites, 2, 2))
    nan = np.array(good)
    nan[1, 0, 0] = np.nan
    f = constant_field(spec, nan, good)
    assert cli.report_failures(lambda: f.P(0)) == 2
    assert capsys.readouterr().err == f"invariant violation: non-finite P entry at j=0, p={1 - spec.p_max}\n"


@pytest.fixture
def no_compute(monkeypatch):
    """Make any walk step, Dirac solve, packet build, curvature table or
    random field draw fail the test: a refused config must be refused before
    any of them runs."""
    def called(*args, **kwargs):
        raise AssertionError("computation started for an invalid config")

    monkeypatch.setattr(wk, "step", called)
    monkeypatch.setattr(dr, "solve", called)
    monkeypatch.setattr(dr, "gaussian_packet", called)
    monkeypatch.setattr(ex, "curvature_order_table", called)
    monkeypatch.setattr(lat.GaugeField, "random", called)


class TestValidationBeforeCompute:
    @pytest.mark.parametrize("epsilons", [("0.2", "0.1"), ("0.2", "0.1", "0.1"), ()],
                             ids=["two", "duplicate", "none"])
    def test_convergence_epsilon_list(self, no_compute, tmp_path, capsys, epsilons):
        argv = ["convergence", "--x-max", "4", "--t-max", "0.2", "--out", str(tmp_path / "run")]
        for eps in epsilons:
            argv += ["--epsilon", eps]
        if not epsilons:
            argv += ["--config", str(tmp_path / "c.json")]
            (tmp_path / "c.json").write_text(json.dumps({"epsilons": []}))
        assert cli.main(argv) == 1
        assert "3 distinct epsilons" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("experiment", ["evolve", "trajectory"])
    def test_walk_needs_an_epsilon(self, no_compute, tmp_path, capsys, experiment):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"epsilons": []}))
        rc = cli.main([experiment, "--config", str(path), "--x-max", "30", "--t-max", "2",
                       "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "epsilons must hold one, not 0" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("experiment", ["evolve", "trajectory"])
    @pytest.mark.parametrize("route", ["flag", "file"])
    def test_walk_refuses_a_second_epsilon(self, no_compute, tmp_path, capsys, experiment, route):
        # a single walk takes one lattice step: a second is refused, not ignored
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"epsilons": [0.2, 0.1]}))
        given = ["--epsilon", "0.2", "--epsilon", "0.1"] if route == "flag" else ["--config", str(path)]
        rc = cli.main([experiment, *given, "--x-max", "4", "--t-max", "0.4", "--sigma", "1.6",
                       "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == (f"config error: the {experiment} experiment walks one lattice step: "
                                           "epsilons must hold one, not 2\n")
        assert not (tmp_path / "run").exists()

    def test_trajectory_without_safe_zone(self, no_compute, tmp_path, capsys):
        # 4 / sigma = 400 leaves no room on a domain of half-width 30
        rc = cli.main(["trajectory", "--epsilon", "0.2", "--x-max", "30", "--sigma", "0.01",
                       "--t-max", "2", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "no room for the packet" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["trajectory", "evolve"])
    def test_walk_under_resolution(self, no_compute, tmp_path, capsys, experiment):
        # 4 sigma = 4 exceeds pi / 1.0 at the one lattice step the run uses
        rc = cli.main([experiment, "--epsilon", "1.0", "--sigma", "1.0", "--x-max", "20",
                       "--t-max", "2", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "under-resolved at eps=1.0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("experiment, data", [
        ("gauge-check", {"dim": 1.5}), ("gauge-check", {"dim": True}), ("gauge-check", {"seed": 0.5}),
        ("evolve", {"dim": 1.5}), ("evolve", {"output_dir": 5}), ("evolve", {"mass": True}),
        ("trajectory", {"k0": False}),
    ], ids=["dim-float", "dim-bool", "seed-float", "evolve-dim-float", "output-dir-int", "mass-bool",
            "k0-bool"])
    def test_malformed_config_value(self, no_compute, tmp_path, capsys, experiment, data):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"output_dir": str(tmp_path / "run"), **data}))
        rc = cli.main([experiment, "--config", str(path), *(WALK_FLAGS if experiment in WALKS else [])])
        assert rc == 1
        assert f"config error: {next(iter(data))} must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("epsilons", [[True], [0.2, True], ["0.2"]], ids=["bool", "bool-second", "str"])
    def test_malformed_epsilons(self, no_compute, tmp_path, capsys, epsilons):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"epsilons": epsilons, "output_dir": str(tmp_path / "run")}))
        rc = cli.main(["evolve", "--config", str(path), "--x-max", "4", "--t-max", "0.4", "--sigma", "1.6"])
        assert rc == 1
        assert "config error: epsilons must be positive finite numbers" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("experiment, data, message", [
        ("evolve", [1, 2], "must hold a JSON object, not list"),
        ("gauge-check", "x", "must hold a JSON object, not str"),
        ("evolve", {"epsilons": 0.1}, "epsilons must be a list of positive finite numbers"),
        ("convergence", {"epsilons": 0.1}, "epsilons must be a list of positive finite numbers"),
        # no config field without a flag: the coin angle is -eps*mass, the
        # Dirac step experiments.DIRAC_DT
        ("evolve", {"theta": 0.3}, "unexpected keyword argument 'theta'"),
        ("convergence", {"dirac_dt": 0.001}, "unexpected keyword argument 'dirac_dt'"),
    ], ids=["list", "string", "evolve-epsilons-number", "convergence-epsilons-number", "theta", "dirac-dt"])
    def test_config_file_shape(self, no_compute, tmp_path, capsys, experiment, data, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(data))
        rc = cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("experiment", ["convergence", "trajectory", "evolve", "curvature-check"])
    @pytest.mark.parametrize("route", ["flag", "file"])
    def test_su2_runs_refuse_dim(self, no_compute, tmp_path, capsys, experiment, route):
        # they run on the N = 2 fields of su2_electric_potentials and
        # generic_su2_potentials; only gauge-check reads dim
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"dim": 3}))
        given = ["--dim", "3"] if route == "flag" else ["--config", str(path)]
        rc = cli.main([experiment, *given, "--e-ym", "0.5", *(WALK_FLAGS if experiment in WALKS else []),
                       "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == {"flag": "config error: unrecognized arguments: --dim 3\n",
                       "file": f"config error: {experiment} does not read dim: keep its default 2\n"}[route]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("experiment", ["gauge-check", "curvature-check"])
    def test_checks_refuse_an_epsilon_list(self, no_compute, tmp_path, capsys, experiment):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"epsilons": []}))
        rc = cli.main([experiment, "--config", str(path), "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == (f"config error: {experiment} does not read epsilons: "
                                           "keep its default None\n")
        assert not (tmp_path / "run").exists()

    def test_unread_flags_are_refused(self, no_compute, tmp_path, capsys):
        rc = cli.main(["gauge-check", "--epsilon", "0.05", "--mass", "3", "--sigma", "9",
                       "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == "config error: unrecognized arguments: --epsilon 0.05 --mass 3 --sigma 9\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("experiment, seed", [("gauge-check", "-1"), ("curvature-check", "-3")])
    def test_negative_seed(self, no_compute, tmp_path, capsys, experiment, seed):
        rc = cli.main([experiment, "--seed", seed, "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "config error: seed must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("experiment, flags, message", [
        ("convergence", ["--t-max", "0"], "t_max = 0 is too small at eps=0.4: round(t_max / eps) = 0"),
        ("convergence", ["--t-max", "-1"], "t_max = -1 is too small at eps=0.4"),
        ("evolve", ["--t-max", "-1"], "t_max = -1 is too small at eps=0.4"),
        ("trajectory", ["--epsilon", "0.2", "--t-max", "0.05"], "t_max = 0.05 is too small at eps=0.2"),
        ("convergence", ["--x-max", "0.5"], "x_max = 0.5 is too small at eps=0.4: round(x_max / eps) = 1"),
        ("evolve", ["--epsilon", "0.2", "--x-max", "0.2"], "x_max = 0.2 is too small at eps=0.2"),
        ("convergence", ["--mass", "0"], "mass must be positive: the convergence packet needs m > 0"),
        ("evolve", ["--mass", "-0.5"], "mass must be positive: the evolve packet needs m > 0"),
    ], ids=["convergence-t-zero", "convergence-t-negative", "evolve-t-negative", "trajectory-no-step",
            "convergence-x-small", "evolve-x-small", "convergence-massless", "evolve-negative-mass"])
    def test_lattice_and_mass(self, no_compute, tmp_path, capsys, experiment, flags, message):
        rc = cli.main([experiment, *flags, "--out", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "run").exists()

    def test_trajectory_mass_checked_before_compute(self, no_compute, tmp_path, capsys):
        rc = cli.main(["trajectory", "--mass", "0", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "config error: mass must be positive" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_nonpositive_sigma(self, no_compute, tmp_path, capsys):
        rc = cli.main(["trajectory", "--sigma", "0", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "sigma must be positive" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("experiment", list(ex.EXPERIMENTS))
    def test_unusable_out_is_refused_before_compute(self, no_compute, tmp_path, capsys, experiment):
        blocker = tmp_path / "file"
        blocker.write_text("")
        domain = ["--x-max", "15", "--t-max", "2"] if experiment in WALKS else []
        rc = cli.main([experiment, *domain, "--out", str(blocker / "sub")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Not a directory" in err


def test_trajectory_summary_gives_the_deviation_and_the_distance(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["trajectory", "--epsilon", "0.2", "--x-max", "15", "--t-max", "2", "--k0", "1",
                   "--e-ym", "0.05", "--out", str(out)])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    with open(out / "trajectory.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    xw, xc = (np.array([float(r[k]) for r in rows]) for k in ("xbar_walk", "x_classical"))
    # recomputed from the written columns, bit for bit
    assert summary["max_deviation"] == float(np.max(np.abs(xw - xc))) > 0
    assert summary["traversed"] == abs(xc[-1] - xc[0]) > 0


def test_readme_commands_parse():
    """Every `gaugewalk` line in README's sh blocks, the paper runs among
    them, is a valid config; none is run."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()
             if line.startswith("gaugewalk ")]
    assert {argv[1] for argv in lines} == set(ex.EXPERIMENTS)
    for argv in lines:
        try:
            cli.build_config(cli.make_parser().parse_args(argv[1:]))
        except ex.ConfigError as exc:
            pytest.fail(f"{shlex.join(argv)}: {exc}")


def test_subcommands_are_the_experiments():
    subs = next(a for a in cli.make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subs.choices) == list(ex.EXPERIMENTS)


@pytest.mark.parametrize("experiment", list(ex.EXPERIMENTS))
def test_every_option_of_an_experiment_reaches_the_config(monkeypatch, experiment):
    # only the flags' route into the config is under test, not their values
    monkeypatch.setattr(ex.ExperimentConfig, "__post_init__", lambda self: None)
    parser = cli.make_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[experiment]
    _, reads = ex.EXPERIMENTS[experiment]
    options = [a for a in sub._actions if a.option_strings and a.dest not in ("help", "config")]
    # a flag for each field the run reads, and no other
    assert [a.dest for a in options] == list(reads)
    flags = {a.option_strings[0] for a in options}
    assert set(re.findall(r"--[a-z0-9-]+", sub.format_help())) == flags | {"--help", "--config"}
    default = ex.ExperimentConfig()
    for action in options:
        value = {int: "3", float: "0.375", None: "elsewhere"}[action.type]
        args = parser.parse_args([experiment, action.option_strings[0], value])
        cfg = cli.build_config(args)
        assert getattr(cfg, action.dest) == getattr(args, action.dest) != getattr(default, action.dest)


# a valid non-default value of every config field but the experiment
OTHER_VALUES = {"dim": 3, "mass": 0.3, "e_ym": 0.05, "epsilons": (0.2,), "sigma": 0.8, "k0": 0.5,
                "x_max": 20.0, "t_max": 2.0, "seed": 4, "output_dir": "elsewhere"}


def test_other_values_cover_every_field():
    fields = {f.name: f.default for f in dataclasses.fields(ex.ExperimentConfig)}
    assert set(OTHER_VALUES) == set(fields) - {"experiment"}
    assert all(OTHER_VALUES[name] != fields[name] for name in OTHER_VALUES)


@pytest.mark.parametrize("experiment, field", [(name, field) for name, (_, reads) in ex.EXPERIMENTS.items()
                                               for field in OTHER_VALUES if field not in reads])
def test_unread_field_is_refused(experiment, field):
    # the 20 fields no run reads, set through the constructor; a flag or
    # config file key reaches the same check
    with pytest.raises(ex.ConfigError, match=f"^{experiment} does not read {field}: keep its default "):
        ex.ExperimentConfig(experiment=experiment, **{field: OTHER_VALUES[field]})


# a tiny run of each experiment
TINY = {
    "convergence": dict(epsilons=(0.4, 0.2, 0.1), x_max=4.0, t_max=0.4, sigma=1.6),
    "trajectory": dict(epsilons=(0.2,), x_max=6.0, t_max=0.4, sigma=1.6),
    "gauge-check": dict(dim=1),
    "curvature-check": {},
    "evolve": dict(epsilons=(0.2,), x_max=4.0, t_max=0.4, sigma=1.6),
}


@pytest.mark.parametrize("experiment", list(ex.EXPERIMENTS))
def test_runner_reads_exactly_its_fields(tmp_path, experiment):
    """The config fields a run reads, outside __post_init__ and to_dict, are
    those its EXPERIMENTS entry names, and the manifest echoes just them."""
    runner, reads = ex.EXPERIMENTS[experiment]
    cfg = ex.ExperimentConfig(experiment=experiment, output_dir=str(tmp_path / "run"), **TINY[experiment])
    names = {f.name for f in dataclasses.fields(cfg)}
    read, echoing = set(), []

    class Recording(ex.ExperimentConfig):
        def __getattribute__(self, name):
            if name in names and not echoing:
                read.add(name)
            return super().__getattribute__(name)

        def to_dict(self):
            echoing.append(True)
            try:
                return super().to_dict()
            finally:
                echoing.pop()

    cfg.__class__ = Recording  # after __post_init__, so its reads are not recorded
    runner(cfg)
    assert read == set(reads)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert set(manifest["config"]) == {"experiment", *reads}


def test_readme_cli_table_matches_the_parser():
    """README's CLI table lists each experiment with its flags, --config
    aside, as make_parser builds them."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|") for line in section.splitlines() if line.startswith("| `")]
    table = {re.fullmatch(r" `([a-z-]+)` ", row[1]).group(1): re.findall(r"`(--[a-z0-9-]+)`", row[-2])
             for row in rows}
    subs = next(a for a in cli.make_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parser = {name: [s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help", "--config")]
              for name, sub in subs.choices.items()}
    assert table == parser
    assert list(table) == list(parser)
