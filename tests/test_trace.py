"""The benchmark's tracer (perfbench/tracer.py) against the program it wraps.

Installing the tracer wraps every trace point by module attribute, so it fails
on a name the program no longer has; counting the traced step calls checks that
the estimators look their step function up where the tracer wrapped it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from layerlens import data as D
from layerlens import model as M
from layerlens import ru as R
from layerlens import sid as S
from layerlens.train import TrainConfig

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_traced_steps_are_the_steps_used(tracer):
    images, _ = D.make_fourclass_images(n=8, shape=(1, 8, 8), seed=3)
    x = images[0]
    model = M.tiny_cnn((1, 8, 8), 4, seed=3)
    decoder = R.train_decoder(model, "conv2", images, TrainConfig(epochs=1, seed=3))
    cfg = S.SidConfig(seed=3, max_steps=10, max_rounds=2, baseline_samples=64, certify_samples=64)
    sid = S.estimate_sid(model, "conv2", x, cfg)
    ru = R.estimate_ru(model, decoder, x, cfg)
    calls = tracer.summary()["calls"]
    assert calls["sid.estimate_sid"] == 1 and calls["ru.estimate_ru"] == 1
    assert calls["sid.sid_loss"] == sid.steps_used
    assert calls["ru.ru_loss"] == ru.steps_used
    assert np.isfinite(sid.H_total) and np.isfinite(ru.H_hat_total)
