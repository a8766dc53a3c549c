import hashlib
import tracemalloc

import numpy as np
import pytest

from layerlens import data as D
from layerlens import model as M
from layerlens import ru as R
from layerlens.rng import RngStream, derive_seed
from layerlens.train import TrainConfig, TrainingDiverged, _batch_step, train

from conftest import pinned_by_core


def make_linear_regression(n: int = 64, slope: float = 2.0, seed: int = 0):
    """Noiseless y = slope * x pairs, each a length-1 feature vector."""
    x = RngStream(derive_seed(seed, "linreg")).normal((n, 1))
    return x, slope * x


def accuracy(model: M.ModelGraph, images: np.ndarray, labels: np.ndarray) -> float:
    logits = model.forward(images)
    return float((logits.argmax(axis=1) == labels).mean())


class TestTrain:
    def test_linear_regression_recovers_slope(self):
        # closed-form least squares on noiseless y=2x gives exactly 2
        x, y = make_linear_regression(n=64, slope=2.0, seed=1)
        w_star = float(np.linalg.lstsq(x, y, rcond=None)[0][0, 0])
        assert w_star == pytest.approx(2.0, abs=1e-12)

        g = M.build([M.dense("w", 1)], (1,), seed=3)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=200, loss="mse")
        trained, trace = train(g, (x, y), cfg)
        assert abs(float(trained.params["w"]["weight"][0, 0]) - w_star) <= 1e-3
        assert trace[-1] < trace[0]

    def test_separable_blobs_reach_high_accuracy(self):
        x, y = D.make_blobs(n=200, seed=2)
        g = M.build([M.dense("head", 2)], (2,), seed=1)
        cfg = TrainConfig(learning_rate=0.05, batch_size=32, epochs=30, loss="cross_entropy")
        trained, _ = train(g, (x, y), cfg)
        assert accuracy(trained, x, y) >= 0.99

    def test_zero_epochs_leaves_parameters_unchanged(self):
        x, y = make_linear_regression(n=8)
        g = M.build([M.dense("w", 1)], (1,), seed=3)
        trained, trace = train(g, (x, y), TrainConfig(epochs=0, loss="mse"))
        assert trace == []
        assert (trained.params["w"]["weight"] == g.params["w"]["weight"]).all()

    def test_divergence_aborts_with_diagnostic(self):
        x, y = make_linear_regression(n=32)
        g = M.build([M.dense("w", 1)], (1,), seed=3)
        # Adam's step is bounded by the rate, so only a huge rate overflows
        cfg = TrainConfig(learning_rate=1e200, epochs=10, loss="mse")
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(g, (x, y), cfg)

    def test_determinism_same_seed_same_weights(self):
        x, y = D.make_blobs(n=64, seed=5)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=5)
        a, _ = train(M.build([M.dense("h", 2)], (2,), seed=1), (x, y), cfg)
        b, _ = train(M.build([M.dense("h", 2)], (2,), seed=1), (x, y), cfg)
        assert (a.params["h"]["weight"] == b.params["h"]["weight"]).all()

    def test_checkpoints_emitted_per_epoch(self, tmp_path):
        x, y = make_linear_regression(n=16)
        g = M.build([M.dense("w", 1)], (1,), seed=0)
        train(g, (x, y), TrainConfig(epochs=3, loss="mse"), checkpoint_dir=tmp_path)
        dirs = sorted(p.name for p in tmp_path.iterdir())
        assert dirs == ["epoch_000", "epoch_001", "epoch_002"]
        _, meta = M.load_checkpoint(tmp_path / "epoch_002")
        assert meta["epoch"] == 2

    def test_resume_continues_epoch_numbering(self, tmp_path):
        x, y = make_linear_regression(n=16)
        g = M.build([M.dense("w", 1)], (1,), seed=0)
        trained, _ = train(g, (x, y), TrainConfig(epochs=2, loss="mse"), checkpoint_dir=tmp_path)
        train(trained, (x, y), TrainConfig(epochs=2, loss="mse"), checkpoint_dir=tmp_path, start_epoch=2)
        assert (tmp_path / "epoch_003").exists()

    def test_empty_dataset_rejected(self):
        g = M.build([M.dense("w", 1)], (1,), seed=0)
        with pytest.raises(ValueError, match="empty"):
            train(g, (np.zeros((0, 1)), np.zeros((0, 1))), TrainConfig(loss="mse"))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestCnnTraining:
    def test_tiny_cnn_learns_fourclass(self):
        x, y = D.make_fourclass_images(n=96, shape=(1, 8, 8), seed=3)
        g = M.tiny_cnn(input_shape=(1, 8, 8), classes=4, seed=1)
        cfg = TrainConfig(learning_rate=0.02, batch_size=16, epochs=8)
        trained, trace = train(g, (x, y), cfg)
        assert accuracy(trained, x, y) >= 0.95
        assert trace[-1] < trace[0]

    def test_one_epoch_parameters_pinned(self):
        # every parameter's bits after one epoch of tiny-cnn on the four-class set
        x, y = D.make_fourclass_images(n=32, seed=3)
        g = M.tiny_cnn(input_shape=(1, 8, 8), seed=3)
        trained, _ = train(g, (x, y), TrainConfig(epochs=1, batch_size=16, seed=3))
        h = hashlib.sha256()
        for layer in sorted(trained.params):
            for name in sorted(trained.params[layer]):
                h.update(f"{layer}/{name}".encode())
                h.update(np.ascontiguousarray(trained.params[layer][name]).tobytes())
        assert h.hexdigest() == pinned_by_core({
            "SkylakeX": "2edab8af1848dd5c5ac6764beedc7972bab9dddfd6c8e689a5842ca0d2be667a",
            "Haswell": "19a6562999d981396fd4d39dbc2ae56106faea8b16b9739f3af64c6560723c64",
        })

    def test_batch_step_keeps_no_column_matrix(self, np_rng):
        # a conv record keeps its input and gathers the columns in its VJP,
        # so one decoder step traces 1.6 MiB; holding every conv's 3x3
        # columns until the backward sweep instead takes 4.6 MiB
        decoder = R.make_decoder((8, 8, 8), (1, 8, 8), seed=0)
        xb, yb = np_rng.normal(size=(16, 8, 8, 8)), np_rng.normal(size=(16, 1, 8, 8))
        _batch_step(decoder, xb, yb, "mse")  # builds the cached gather indices
        tracemalloc.start()
        try:
            _batch_step(decoder, xb, yb, "mse")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 2**20


class TestDatasets:
    def test_cifar10_binary_round_trip(self, tmp_path, np_rng):
        # synthesize two records in the official binary layout
        recs = []
        for label in (3, 7):
            pixels = np_rng.integers(0, 256, size=3072, dtype=np.uint8)
            recs.append(bytes([label]) + pixels.tobytes())
        p = tmp_path / "batch.bin"
        p.write_bytes(b"".join(recs))
        images, labels = D.load_cifar10(p)
        assert images.shape == (2, 3, 32, 32)
        assert labels.tolist() == [3, 7]
        assert images.max() <= 1.0 and images.min() >= 0.0

    def test_cifar10_bad_size_rejected(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"\x00" * 100)
        with pytest.raises(D.DatasetError):
            D.load_cifar10(tmp_path / "bad.bin")

    def test_lltn_pair_round_trip(self, tmp_path, np_rng):
        images = np_rng.normal(size=(5, 1, 4, 4))
        labels = np.array([0, 1, 2, 3, 0])
        ip, lp = D.save_lltn_pair(tmp_path / "toy", images, labels)
        xi, yl = D.load_lltn_pair(ip, lp)
        assert (xi == images).all()
        assert yl.dtype == np.int64 and (yl == labels).all()

    def test_lltn_pair_length_mismatch(self, tmp_path, np_rng):
        ip, _ = D.save_lltn_pair(tmp_path / "a", np_rng.normal(size=(3, 2)), np.zeros(3))
        _, lp = D.save_lltn_pair(tmp_path / "b", np_rng.normal(size=(4, 2)), np.zeros(4))
        with pytest.raises(D.DatasetError):
            D.load_lltn_pair(ip, lp)

    def test_split_deterministic(self):
        a = D.train_val_split(20, 0.1, seed=3)
        b = D.train_val_split(20, 0.1, seed=3)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
        assert len(a[1]) == 2
