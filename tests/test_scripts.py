"""The scripts under scripts/ against the program they call.

scripts/bench_step.py replays the first step call of a real estimate, so a
change to fit_sigma's loss contract that the script does not follow fails
here rather than only when someone next runs the script.
"""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_step_runs(capsys):
    _load("bench_step").main(["tiny-resnet", "stem", "sid", "--seconds", "0.05"])
    out = capsys.readouterr().out
    assert "tiny-resnet/stem sid:" in out and "2 tape nodes per step" in out
    assert "80 steps, conformant True" in out
    for phase in ("jacobian probe", "baseline", "dead-unit probe", "steps", "certification"):
        assert f"  {phase} " in out
