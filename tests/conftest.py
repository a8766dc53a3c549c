import ctypes
import functools
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from layerlens import data as D
from layerlens import model as M
from layerlens import ru as R
from layerlens import sid as S
from layerlens.train import TrainConfig


@functools.cache
def _openblas_core() -> str:
    """The OpenBLAS core in force, asked of the scipy-openblas library that
    numpy's wheel bundles; "unknown" when there is none to ask."""
    here = Path(np.__file__).parent
    libs = sorted(here.parent.glob("numpy.libs/*openblas*")) + sorted(here.glob(".dylibs/*openblas*"))
    for lib in libs:
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pinned_by_core(values: dict):
    """The pinned value of `values` (by OpenBLAS core) for the core in force.
    A GEMM's last bits depend on the kernel that sums its products, so bytes
    that pass through one are pinned per core. Each value was taken with
    numpy 2.4.6 and scipy-openblas 0.3.31 (the Python 3.10 job's older numpy
    is unverified). A core with no measured value fails the test."""
    core = _openblas_core()
    if core not in values:
        pytest.fail(f"no value measured under OpenBLAS core {core} (measured: {', '.join(values)})")
    return values[core]


def pytest_report_header(config):
    """numpy, its BLAS and the OpenBLAS core: the kernel that runs a GEMM
    sets the last bits the pinned digests hash, so a failing pin is read
    against this line."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}, OpenBLAS core {_openblas_core()}"


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    """scripts/<name>.py, loaded as a module so a test can call its functions."""
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def identity_model(n: int, name: str = "id") -> M.ModelGraph:
    """One dense layer, `name`, with weight I and bias 0 on an (n,) input."""
    g = M.build([M.dense(name, n)], (n,), seed=0)
    g.params[name]["weight"] = np.eye(n)
    g.params[name]["bias"] = np.zeros(n)
    return g


def linear_model(A: np.ndarray) -> M.ModelGraph:
    """One dense layer, "lin", computing A x."""
    n, m = A.shape[1], A.shape[0]
    g = M.build([M.dense("lin", m)], (n,), seed=0)
    g.params["lin"]["weight"] = A.T.copy()
    g.params["lin"]["bias"] = np.zeros(m)
    return g


def sum_model(n: int) -> M.ModelGraph:
    """One dense layer, "sum", adding up its n inputs."""
    g = M.build([M.dense("sum", 1)], (n,), seed=0)
    g.params["sum"]["weight"] = np.ones((n, 1))
    g.params["sum"]["bias"] = np.zeros(1)
    return g


def random_conditioned_matrix(n: int, cond: float, seed) -> np.ndarray:
    """U diag(geomspace(1, cond, n)) V^T with random orthogonal U and V, so
    its condition number is `cond`. `seed` is anything np.random.default_rng
    takes; a Generator is drawn from, and a caller can go on drawing from it."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return u @ np.diag(np.geomspace(1.0, cond, n)) @ v.T


def lagrange_sigma_sq(A: np.ndarray, eps: float) -> np.ndarray:
    """Independent oracle: the sigma_i^2 maximizing sum(ln sigma_i) subject to
    sum(sigma_i^2 |A e_i|^2) = eps."""
    col_sq = (A * A).sum(axis=0)
    return eps / (A.shape[1] * col_sq)


def finite_diff(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function at x (relative step)."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat, gflat = x.ravel(), grad.ravel()
    for i in range(flat.size):
        step = h * max(1.0, abs(flat[i]))
        orig = flat[i]
        flat[i] = orig + step
        fp = fn(x)
        flat[i] = orig - step
        fm = fn(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * step)
    return grad


def zero_surrogate(model, layer, x) -> S.Surrogate:
    """The layer's linearisation at x with G = 0: the clean feature, and a
    control variate that subtracts and adds back nothing, so a Monte Carlo
    term given it is the plain estimate, bit for bit."""
    n = np.size(x)
    return S.Surrogate(model, layer, x, S.clean_feature(model, layer, x), np.zeros((n, n)))


def result_digest(res) -> str:
    """sha256 of an estimate's sorted-key result JSON followed by its entropy map."""
    h = hashlib.sha256(json.dumps(res.to_json(), sort_keys=True).encode())
    h.update(res.entropy_map.tobytes())
    return h.hexdigest()


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    denom = max(float(np.linalg.norm(want)), 1e-300)
    return float(np.linalg.norm(got - want)) / denom


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def pool_recorder(monkeypatch):
    """Replaces the process pool with an in-process stand-in; returns the list
    of (max_workers, submitted items) of every pool created."""
    import concurrent.futures

    pools = []

    class Recorder:
        def __init__(self, max_workers):
            self.items = []
            pools.append((max_workers, self.items))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            self.items.extend(items)
            return map(fn, self.items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return pools


@pytest.fixture(scope="session")
def ru_loss_site():
    """tiny-cnn/conv2 at the first four-class image with a one-epoch decoder
    and the non-uniform sigma of test_sid's stem site: (model, decoder graph,
    x, sigma)."""
    images, _ = D.make_fourclass_images(n=8, shape=(1, 8, 8), seed=3)
    x = images[0]
    sigma = S.SigmaField(np.log(0.02) + 0.1 * np.sin(np.arange(x.size)).reshape(x.shape))
    model = M.tiny_cnn((1, 8, 8), 4, seed=3)
    decoder = R.train_decoder(model, "conv2", images, TrainConfig(epochs=1, seed=3))
    return model, decoder.graph, x, sigma
