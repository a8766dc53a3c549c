"""Strict information discarding: how much input information a layer ignores.

Per-unit Gaussian perturbation scales sigma are learned by maximum-entropy
optimization: widen every sigma_i as far as possible while the layer's feature
stays within a variance budget. The budget is epsilon = alpha * delta_f^2,
where delta_f^2 is the feature's response to a small isotropic probe of std
tau; dividing the feature-deviation term by delta_f^2 is what makes the
numbers comparable across layers and across reparameterized networks. The
entropy of the learned Gaussian decomposes per input unit as
H_i = log(sigma_i) + C with C = 0.5*log(2*pi*e).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import lltn
from . import tensor as T
from .model import ModelGraph
from .rng import RngStream, gaussian
from .tensor import Tensor

GAUSSIAN_ENTROPY_CONST = 0.5 * math.log(2.0 * math.pi * math.e)

_CERT_CHUNK = 128  # forward batch bound for held-out evaluation


class DegenerateLayerError(RuntimeError):
    """The layer's feature does not respond to input noise; SID is undefined."""


@dataclass
class SigmaField:
    """Per-input-unit perturbation scales, log-parameterized so sigma > 0."""

    log_sigma: np.ndarray

    @classmethod
    def constant(cls, shape, value: float) -> "SigmaField":
        if value <= 0:
            raise ValueError("sigma must be positive")
        return cls(np.full(shape, math.log(value)))

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma)

    def copy(self) -> "SigmaField":
        return SigmaField(self.log_sigma.copy())


@dataclass
class SidConfig:
    alpha: float = 1.5
    tau: float = 0.01
    samples_per_step: int = 32
    max_steps: int = 200  # inner Adam steps per lambda round
    sigma_lr: float = 0.05
    lambda_init: float = 1.0
    lambda_tolerance: float = 0.05  # relative epsilon tolerance for conformance
    sigma_cap: float | None = None  # None -> 10x input dynamic range
    seed: int = 0
    max_rounds: int = 20  # lambda adaptation budget
    baseline_samples: int = 1024
    certify_samples: int = 1024  # held-out draws for reported epsilon / H_hat
    # Diagnostic only. False drops the delta_f^2 divisor AND pins lambda at
    # lambda_init for a single round (no adaptation, no constraint projection):
    # adaptation would partially re-absorb the missing normalization, hiding
    # exactly the scale-dependence this mode exists to expose.
    normalize: bool = True

    def __post_init__(self):
        if self.alpha <= 0 or self.tau <= 0:
            raise ValueError("alpha and tau must be positive")
        if self.samples_per_step < 1:
            raise ValueError("samples_per_step must be >= 1")
        if not 0.0 < self.lambda_tolerance < 1.0:
            raise ValueError("lambda_tolerance must be in (0, 1)")
        if self.lambda_init <= 0:
            raise ValueError("lambda_init must be positive")


class _SavedResult:
    """Persistence shared by SidResult and RuResult: every field except the
    arrays goes to {stem}.json, the per-unit entropy map to {stem}_{map}.lltn."""

    _map = ""  # name of the per-unit entropy field

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name not in ("sigma", self._map):
                out[f.name] = list(map(int, value)) if isinstance(value, list) else value
        return out

    def save(self, directory, stem: str) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        lltn.write_json(directory / f"{stem}.json", self.to_json())
        lltn.write(directory / f"{stem}_{self._map}.lltn", getattr(self, self._map))


@dataclass
class SidResult(_SavedResult):
    H_i: np.ndarray  # per-unit entropies (nats), shaped like the input
    H_total: float
    epsilon_achieved: float
    delta_f_sq: float
    lambda_final: float
    steps_used: int
    capped_units: list[int]  # flat indices that hit the sigma cap
    conformant: bool
    seed: int
    sigma: np.ndarray = field(repr=False, default=None)

    _map = "H_i"


def pixel_entropy(sigma_i: float) -> float:
    """Differential entropy of one Gaussian unit: ln(sigma_i) + 0.5*ln(2*pi*e)."""
    if sigma_i <= 0:
        raise ValueError(f"sigma must be positive, got {sigma_i}")
    return math.log(sigma_i) + GAUSSIAN_ENTROPY_CONST


def entropy_field(sigma: SigmaField) -> np.ndarray:
    return sigma.log_sigma + GAUSSIAN_ENTROPY_CONST


def clean_feature(model: ModelGraph, layer: str, x: np.ndarray) -> np.ndarray:
    """The layer's feature f0 at the unperturbed input (no graph recorded)."""
    with T.no_grad():
        return model.forward(Tensor(x), to_layer=layer).data


def _forward_chunked(model: ModelGraph, xs: np.ndarray, layer: str) -> np.ndarray:
    outs = []
    with T.no_grad():
        for lo in range(0, len(xs), _CERT_CHUNK):
            outs.append(model.forward(Tensor(xs[lo : lo + _CERT_CHUNK]), to_layer=layer).data)
    return np.concatenate(outs)


def feature_baseline(
    model: ModelGraph,
    layer: str,
    x: np.ndarray,
    tau: float,
    samples: int = 1024,
    rng: RngStream | None = None,
) -> float:
    """delta_f^2: mean squared feature deviation under isotropic noise std tau."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    x = np.asarray(x, dtype=np.float64)
    rng = rng if rng is not None else RngStream(0)
    f0 = clean_feature(model, layer, x)
    noise = rng.normal((samples,) + x.shape)
    fp = _forward_chunked(model, x[None] + tau * noise, layer)
    diff = (fp - f0).reshape(samples, -1)
    value = float((diff * diff).sum() / samples)
    if value <= 0.0:
        raise DegenerateLayerError(
            f"layer {layer!r} feature is constant under input noise; SID undefined"
        )
    return value


def _entropy_loss(
    model: ModelGraph,
    layer: str,
    x: np.ndarray,
    sigma: SigmaField,
    lam: float,
    delta_f_sq: float,
    samples: int,
    rng: RngStream,
    normalize: bool,
    entropy: Callable[[np.ndarray, Tensor, Tensor], Tensor],
    f0: np.ndarray | None,
) -> tuple[float, np.ndarray]:
    """fit - lam * entropy and its gradient w.r.t. log_sigma, from `samples`
    fresh reparameterized draws. The fit term is the mean squared deviation
    from the clean feature f0 (computed here when None) over delta_f_sq;
    `entropy(x, log_sigma, fp)` builds the entropy being maximized from the
    perturbed feature fp."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    if delta_f_sq <= 0:
        raise ValueError("delta_f_sq must be positive")
    x = np.asarray(x, dtype=np.float64)
    if f0 is None:
        f0 = clean_feature(model, layer, x)
    log_sigma = Tensor(sigma.log_sigma, requires_grad=True)
    sig = T.exp(log_sigma)
    noise = gaussian(rng, (samples,) + x.shape)
    fp = model.forward(T.add(Tensor(x), T.mul(sig, noise)), to_layer=layer)
    diff = T.sub(fp, Tensor(f0))
    denom = delta_f_sq if normalize else 1.0
    fit = T.mul(T.reduce_sum(T.mul(diff, diff)), Tensor(1.0 / (samples * denom)))
    loss = T.sub(fit, T.mul(entropy(x, log_sigma, fp), Tensor(lam)))
    grads = T.backward(loss)
    return loss.item(), grads[log_sigma]


def sid_loss(
    model: ModelGraph,
    layer: str,
    x: np.ndarray,
    sigma: SigmaField,
    lam: float,
    delta_f_sq: float,
    samples: int,
    rng: RngStream,
    normalize: bool = True,
    f0: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """One stochastic evaluation of the maximum-entropy loss and its gradient
    w.r.t. log_sigma, using `samples` fresh reparameterized draws from rng.
    `f0`, the clean feature, is computed when not given."""

    def entropy(x, log_sigma, fp):
        return T.reduce_sum(T.add(log_sigma, Tensor(GAUSSIAN_ENTROPY_CONST)))

    return _entropy_loss(
        model, layer, x, sigma, lam, delta_f_sq, samples, rng, normalize, entropy, f0
    )


def certify_epsilon(
    model: ModelGraph,
    layer: str,
    x: np.ndarray,
    sigma: SigmaField,
    samples: int,
    rng: RngStream,
) -> float:
    """Low-variance epsilon estimate from held-out draws (no gradient)."""
    x = np.asarray(x, dtype=np.float64)
    f0 = clean_feature(model, layer, x)
    noise = rng.normal((samples,) + x.shape)
    fp = _forward_chunked(model, x[None] + sigma.sigma * noise, layer)
    diff = (fp - f0).reshape(samples, -1)
    return float((diff * diff).sum() / samples)


def lambda_adapt(lam: float, epsilon_achieved: float, target: float) -> float:
    """Single multiplicative step: scale lambda by a factor in [0.5, 2] that
    moves the achieved feature deviation toward the target."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if target <= 0:
        raise ValueError("target must be positive")
    if epsilon_achieved <= 0:
        return lam * 2.0
    factor = min(2.0, max(0.5, target / epsilon_achieved))
    return lam * factor


class LambdaSearch:
    """Multiplicative search that switches to geometric bisection once the
    target is straddled. epsilon(lambda) is monotone increasing: more entropy
    pressure widens sigma and with it the feature deviation."""

    def __init__(self):
        self.below: float | None = None  # largest lambda seen with eps < target
        self.above: float | None = None  # smallest lambda seen with eps > target

    def update(self, lam: float, epsilon_achieved: float, target: float) -> float:
        if epsilon_achieved == target:
            return lam
        if epsilon_achieved < target:
            self.below = lam if self.below is None else max(self.below, lam)
        else:
            self.above = lam if self.above is None else min(self.above, lam)
        if self.below is not None and self.above is not None and self.below < self.above:
            return math.sqrt(self.below * self.above)
        return lambda_adapt(lam, epsilon_achieved, target)


class _AdamState:
    """Adam on a single array, with a linear late-stage lr decay to damp the
    stochastic equilibrium jitter of sigma."""

    def __init__(self, shape, lr: float, steps: int):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0
        self.lr = lr
        self.steps = max(steps, 1)

    def step(self, value: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * grad * grad
        mhat = self.m / (1 - 0.9**self.t)
        vhat = self.v / (1 - 0.999**self.t)
        frac = min(1.0, self.t / self.steps)
        lr = self.lr * (1.0 - 0.98 * frac)
        return value - lr * mhat / (np.sqrt(vhat) + 1e-8)


def default_sigma_cap(x: np.ndarray) -> float:
    span = float(np.max(x) - np.min(x))
    return 10.0 * (span if span > 0 else 1.0)


def find_dead_units(model: ModelGraph, layer: str, x: np.ndarray, scale: float) -> np.ndarray:
    """Flat indices of input units whose +-scale perturbation leaves the
    feature unchanged. For such units the fit term can never push back, so
    the max-entropy optimum is the sigma cap itself.

    The unperturbed input rides along in the probe batch so everything goes
    through the same batched kernels; a dust tolerance absorbs the float
    reassociation noise of whatever BLAS happens to run underneath.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    probes = np.repeat(x[None], 2 * n + 1, axis=0).reshape(2 * n + 1, -1)
    idx = np.arange(n)
    probes[2 * idx, idx] += scale
    probes[2 * idx + 1, idx] -= scale
    fp = _forward_chunked(model, probes.reshape((2 * n + 1,) + x.shape), layer)
    f0 = fp[-1]
    diff = np.abs(fp[:-1] - f0).reshape(2 * n, -1).max(axis=1).reshape(n, 2)
    tol = 1e-9 * max(1.0, float(np.abs(f0).max()))
    return np.flatnonzero(diff.max(axis=1) <= tol)


@dataclass
class SigmaFit:
    """Outcome of fit_sigma: the learned scales and their certified budget."""

    sigma: SigmaField
    log_cap: float
    epsilon: float  # held-out feature deviation at the final sigma
    delta_f_sq: float
    lam: float
    steps: int
    conformant: bool

    @property
    def capped_units(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.sigma.log_sigma >= self.log_cap - 1e-12)]


def fit_sigma(
    model: ModelGraph,
    layer: str,
    x: np.ndarray,
    cfg: SidConfig,
    loss: Callable[[SigmaField, float, float, RngStream], tuple[float, np.ndarray]],
) -> SigmaFit:
    """The sigma fit both estimators share. Learn sigma by gradient descent at
    fixed lambda, adapting lambda between rounds until the held-out feature
    deviation hits alpha * delta_f^2 within tolerance. Dead units run away to
    the sigma cap. `loss(sigma, lam, delta_f_sq, rng)` returns one stochastic
    (value, gradient w.r.t. log_sigma) of the objective; it is all that
    differs between the estimators."""
    x = np.asarray(x, dtype=np.float64)
    root = RngStream(cfg.seed)
    delta_f_sq = feature_baseline(
        model, layer, x, cfg.tau, cfg.baseline_samples, root.spawn("est/baseline")
    )
    target = cfg.alpha * delta_f_sq
    cap = cfg.sigma_cap if cfg.sigma_cap is not None else default_sigma_cap(x)
    log_cap = math.log(cap)
    sigma = SigmaField.constant(x.shape, cfg.tau)  # start at the probe scale: near-feasible
    dead = find_dead_units(model, layer, x, cap)
    sigma.log_sigma.reshape(-1)[dead] = log_cap  # their optimum; the clamp keeps them there
    lam = cfg.lambda_init
    search = LambdaSearch()
    step_rng = root.spawn("est/steps")
    steps_used = 0
    conformant = False
    epsilon = math.nan
    tail_from = cfg.max_steps // 2
    rounds = cfg.max_rounds if cfg.normalize else 1
    for _ in range(rounds):
        adam = _AdamState(sigma.log_sigma.shape, cfg.sigma_lr, cfg.max_steps)
        tail_sum = np.zeros_like(sigma.log_sigma)
        tail_count = 0
        for step in range(cfg.max_steps):
            _, grad = loss(sigma, lam, delta_f_sq, step_rng)
            sigma.log_sigma = np.minimum(adam.step(sigma.log_sigma, grad), log_cap)
            steps_used += 1
            if step >= tail_from:
                tail_sum += sigma.log_sigma
                tail_count += 1
        if tail_count:
            # Polyak tail average damps the stochastic equilibrium jitter
            sigma.log_sigma = np.minimum(tail_sum / tail_count, log_cap)
        epsilon = certify_epsilon(
            model, layer, x, sigma, cfg.certify_samples, root.spawn("est/heldout")
        )
        if abs(epsilon - target) <= cfg.lambda_tolerance * target:
            conformant = True
            break
        if cfg.normalize:
            lam = search.update(lam, epsilon, target)
    if cfg.normalize and epsilon > 0:
        # project the non-capped units onto the constraint surface along the
        # uniform scaling direction (capped units contribute nothing to
        # epsilon); exact for locally-linear features, then re-certified
        live = sigma.log_sigma < log_cap - 1e-12
        sigma.log_sigma = np.where(
            live,
            np.minimum(sigma.log_sigma + 0.5 * math.log(target / epsilon), log_cap),
            sigma.log_sigma,
        )
        epsilon = certify_epsilon(
            model, layer, x, sigma, cfg.certify_samples, root.spawn("est/heldout")
        )
        conformant = abs(epsilon - target) <= cfg.lambda_tolerance * target
    return SigmaFit(sigma, log_cap, epsilon, delta_f_sq, lam, steps_used, conformant)


def estimate_sid(model: ModelGraph, layer: str, x, cfg: SidConfig) -> SidResult:
    """Strict information discarding: fit_sigma maximizing the entropy of the
    input perturbation itself."""
    x = np.asarray(x, dtype=np.float64)
    f0 = clean_feature(model, layer, x)  # once, not at every step

    def loss(sigma, lam, delta_f_sq, rng):
        return sid_loss(
            model, layer, x, sigma, lam, delta_f_sq, cfg.samples_per_step, rng, cfg.normalize, f0
        )

    fit = fit_sigma(model, layer, x, cfg, loss)
    H_i = entropy_field(fit.sigma)
    return SidResult(
        H_i=H_i,
        H_total=float(H_i.sum()),
        epsilon_achieved=fit.epsilon,
        delta_f_sq=fit.delta_f_sq,
        lambda_final=fit.lam,
        steps_used=fit.steps,
        capped_units=fit.capped_units,
        conformant=fit.conformant,
        seed=cfg.seed,
        sigma=fit.sigma.sigma,
    )
