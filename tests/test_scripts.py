"""The command-line scripts under scripts/ load and answer --help."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_present():
    assert [p.name for p in SCRIPTS] == ["convergence_sweep.py", "invariance_audit.py",
                                         "trajectory_comparison.py"]


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_help_exits_0(path, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    with pytest.raises(SystemExit) as info:
        module.main(["--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage:")
