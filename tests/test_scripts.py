"""The scripts under scripts/ against the program they call.

Each script is run small, so a change to the program that a script does not
follow (fit_sigma's loss contract and the estimators' function names for
scripts/bench_step.py, the conv kernels' private formulations for
scripts/bench_conv.py, SidConfig for the coherency demo, the data writers for
the dataset script) fails here rather than only when someone next runs the
script. The damage demo is acceptance criterion 8's run, and the coherency
demo's two runs are criterion 5's.
"""

import re
import runpy
import sys

import pytest

from layerlens import cli
from layerlens import data as D

from conftest import SCRIPTS, load_script


@pytest.mark.parametrize(
    "argv,records,steps,phases",
    [
        pytest.param("tiny-resnet stem sid --shape 2,6,6", 1, 80, (), id="sid"),
        # the wrappers on ru.ru_loss and ru.pixel_ru; 240 steps under both
        # the SkylakeX and the Haswell OpenBLAS kernels
        pytest.param("tiny-cnn conv1 ru --shape 1,6,6", 5, 240, ("pixel_ru",), id="ru"),
    ],
)
def test_bench_step_runs(argv, records, steps, phases, capsys):
    preset, layer, estimator, _, shape = argv.split()
    load_script("bench_step").main(argv.split() + ["--seconds", "0.05"])
    out = capsys.readouterr().out
    assert f"{preset}/{layer} {estimator}:" in out and f"{records} tape record(s) per step" in out
    assert f"{steps} steps, conformant True" in out
    timed, traced = out.split(f"traced peak of one more estimate, {shape.replace(',', 'x')} input:")
    for phase in ("jacobian probe", "baseline", "dead-unit probe", "steps", "certification", *phases, "rest"):
        # each timed phase has its minor page faults, a count, next to its time
        assert re.search(rf"^  {phase} +[0-9.]+ s +[0-9.]+% +[0-9]+ minor faults$", timed, re.M)
        assert f"  {phase} " in traced


def test_bench_conv_runs(capsys):
    bench = load_script("bench_conv")
    bench.main(["--seconds", "0.01"])
    rows = capsys.readouterr().out.splitlines()[2:]
    assert len(rows) == len(bench.SHAPES)
    for row in rows:
        forward, scatter, flipped, columns = row.split("|")[-1].split(",")
        # the forward and the gathered columns equal the strided reference's
        # exactly, and both input gradients agree with the loop to rounding
        assert forward.strip() == "0.0" and columns.strip() == "0.0"
        assert max(float(scatter), float(flipped)) < 1e-12


def test_coherency_demo_runs(capsys):
    load_script("run_coherency_demo").main(["--steps", "10"])
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2
    assert out[0].strip().startswith("normalized:") and out[0].endswith("PASS")
    assert out[1].strip().startswith("diagnostic (no normalization):")


@pytest.mark.parametrize("code", [2, 0])
def test_damage_demo_exits_with_the_cli_code(tmp_path, monkeypatch, capsys, code):
    # the CLI is stubbed: criterion 8 runs the demo itself
    monkeypatch.setattr(cli, "main", lambda argv: code)
    monkeypatch.setattr(sys, "argv", ["run_damage_demo.py", "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_path(str(SCRIPTS / "run_damage_demo.py"), run_name="__main__")
    assert exit_.value.code == code
    assert f"(exit {code})" in capsys.readouterr().out


def test_make_synthetic_data_runs(tmp_path, capsys):
    load_script("make_synthetic_data").main(["--out", str(tmp_path), "--n", "8", "--channels", "3"])
    images, labels = D.load_lltn_pair(tmp_path / "fourclass_images.lltn", tmp_path / "fourclass_labels.lltn")
    assert images.shape == (8, 3, 8, 8) and labels.shape == (8,)
    images, labels = D.load_lltn_pair(tmp_path / "blobs_images.lltn", tmp_path / "blobs_labels.lltn")
    assert images.shape == (8, 2) and labels.shape == (8,)
