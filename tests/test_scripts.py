"""The command-line scripts under scripts/ load, answer --help, and report a
refused config or a malformed flag as gaugewalk does: one "config error:"
line, exit 1, before any compute."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_present():
    assert [p.name for p in SCRIPTS] == ["convergence_sweep.py", "invariance_audit.py",
                                         "trajectory_comparison.py"]


def load(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_help_exits_0(path, capsys):
    module = load(path)
    with pytest.raises(SystemExit) as info:
        module.main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")


# script, its experiment runners, and arguments with one invalid value
REFUSED = [
    ("invariance_audit", ("run_gauge_check", "run_curvature_check"), ["--seed", "-1"], "seed"),
    ("trajectory_comparison", ("run_trajectory",), ["--sigma", "0"], "sigma"),
    ("convergence_sweep", ("run_convergence",), ["--epsilon", "-0.1"], "epsilons"),
]


@pytest.mark.parametrize("name, runners, argv, field", REFUSED, ids=[r[0] for r in REFUSED])
def test_config_error_is_one_line_and_exit_1(name, runners, argv, field, monkeypatch, tmp_path, capsys):
    module = load(next(p for p in SCRIPTS if p.stem == name))

    def called(*args, **kwargs):
        raise AssertionError("computation started for an invalid config")

    for runner in runners:
        monkeypatch.setattr(module, runner, called)
    assert module.main([*argv, "--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("config error: ") and field in captured.err
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_malformed_flag_is_one_line_and_exit_1(path, capsys):
    module = load(path)
    assert module.main(["--bogus", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: unrecognized arguments: --bogus 1\n"
