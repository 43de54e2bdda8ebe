"""Experiment configs and the command-line entry point, including exit codes:
0 success, 1 config error, 2 invariant violation, 3 numerical abort."""

import json

import numpy as np
import pytest

from gaugewalk import cli
from gaugewalk import dirac as dr
from gaugewalk import experiments as ex
from gaugewalk import lattice as lat
from gaugewalk import unitary as un
from gaugewalk import walker as wk


class TestExperimentConfig:
    def test_defaults_valid(self):
        cfg = ex.ExperimentConfig(experiment="evolve")
        assert cfg.dim == 2
        assert cfg.epsilons == (0.4, 0.2, 0.1, 0.05)

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


class TestPotentialLibraries:
    def test_electric_field_coordinates(self):
        b_p, b_q, b0, b1 = ex.su2_electric_potentials(0.3)
        assert np.allclose(b0(2.0, 0.0), 0.0)
        assert np.allclose(b1(2.0, 0.0), [0.0, 0.6, 0.0, 0.0])
        assert np.allclose(np.asarray(b_p(2.0, 0.0)) + np.asarray(b_q(2.0, 0.0)), 0.0)

    def test_generic_field_is_noncommuting(self):
        _, _, b0, b1 = ex.generic_su2_potentials()
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

    def test_config_error_is_exit_1(self, capsys):
        rc = cli.main(["evolve", "--epsilon", "-0.1"])
        assert rc == 1
        assert "config error" in capsys.readouterr().err

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

    def test_convergence_under_resolution_is_exit_1(self, no_compute, capsys):
        # k0 + 4 sigma beyond the lattice Nyquist must be refused up front:
        # 4 sigma = 12 exceeds pi / 0.4 ~ 7.9 on the coarsest leg
        rc = cli.main(["convergence", "--epsilon", "0.4", "--epsilon", "0.2",
                       "--epsilon", "0.1", "--sigma", "3.0"])
        assert rc == 1
        assert "under-resolved at eps=0.4" in capsys.readouterr().err


@pytest.fixture
def no_compute(monkeypatch):
    """Make any walk step or Dirac solve fail the test: a refused config must
    be refused before either runs."""
    def called(*args, **kwargs):
        raise AssertionError("computation started for an invalid config")

    monkeypatch.setattr(wk, "step", called)
    monkeypatch.setattr(dr, "solve", called)


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

    def test_nonpositive_sigma(self, no_compute, tmp_path, capsys):
        rc = cli.main(["trajectory", "--sigma", "0", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert "sigma must be positive" in capsys.readouterr().err
