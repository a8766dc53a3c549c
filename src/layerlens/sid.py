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
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import lltn
from . import tensor as T
from .checks import check_field_types
from .model import ModelGraph
from .rng import RngStream
from .tensor import Tensor, _check_finite
from .train import Adam

GAUSSIAN_ENTROPY_CONST = 0.5 * math.log(2.0 * math.pi * math.e)

_CERT_CHUNK = 128  # row bound for every batched forward and surrogate product


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


@dataclass
class SidConfig:
    alpha: float = 1.5
    tau: float = 0.01
    samples_per_step: int = 32
    max_steps: int = 80  # inner Adam steps per lambda round
    sigma_lr: float = 0.1
    lambda_tolerance: float = 0.05  # relative epsilon tolerance for conformance
    sigma_cap: float | None = None  # None -> 10x input dynamic range
    seed: int = 0
    max_rounds: int = 20  # lambda adaptation budget
    baseline_samples: int = 1024
    certify_samples: int = 1024  # held-out draws for reported epsilon / H_hat
    # Diagnostic only, set by coherency_check's caller (the CLI's
    # coherency.diagnostic). False divides the fit term by 1 instead of
    # delta_f^2 AND fits one round at lambda 1.0 (no adaptation, no constraint
    # projection): adaptation would partially re-absorb the missing
    # normalization, hiding exactly the scale-dependence this mode exists to
    # expose.
    normalize: bool = True

    def __post_init__(self):
        check_field_types(self)
        for name in ("alpha", "tau", "sigma_lr", "sigma_cap"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in (
            "samples_per_step", "max_steps", "max_rounds", "baseline_samples", "certify_samples"
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)!r}")
        if not 0.0 < self.lambda_tolerance < 1.0:
            raise ValueError("lambda_tolerance must be in (0, 1)")


@dataclass(kw_only=True)
class EstimateResult:
    """What fit_sigma certifies, shared by SidResult and RuResult. Every field
    except the arrays goes to {stem}.json, the per-unit entropy map to
    {stem}_{map}.lltn."""

    epsilon_achieved: float  # held-out feature deviation at the final sigma
    delta_f_sq: float
    lambda_final: float
    steps_used: int
    capped_units: list[int]  # flat indices that hit the sigma cap
    conformant: bool
    seed: int
    sigma: np.ndarray = field(repr=False, default=None)

    _map = ""  # name of the per-unit entropy field

    @property
    def entropy_map(self) -> np.ndarray:
        return getattr(self, self._map)

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
        lltn.write(directory / f"{stem}_{self._map}.lltn", self.entropy_map)


@dataclass(kw_only=True)
class SidResult(EstimateResult):
    H_i: np.ndarray  # per-unit entropies (nats), shaped like the input
    H_total: float

    _map = "H_i"


def pixel_entropy(sigma_i: float) -> float:
    """Differential entropy of one Gaussian unit: ln(sigma_i) + 0.5*ln(2*pi*e)."""
    if sigma_i <= 0:
        raise ValueError(f"sigma must be positive, got {sigma_i}")
    return math.log(sigma_i) + GAUSSIAN_ENTROPY_CONST


def entropy_field(sigma: SigmaField) -> np.ndarray:
    return sigma.log_sigma + GAUSSIAN_ENTROPY_CONST


class Surrogate:
    """The feature linearised at x, f(x + z) ~ f0 + J z: the clean feature f0
    that every Monte Carlo term of the fit measures its deviation from, and
    G = J^T J, whose l(z) = z^T G z is that deviation's control variate
    (Miller et al., "Reducing Reparameterization Gradient Variance", NeurIPS
    2017). For z = sigma * noise its mean is exactly sum(sigma_i^2 * c_i),
    c = diag G. Every term subtracts l on its own draws and adds that mean
    back, so it stays unbiased for any symmetric G; the closer l tracks the
    deviation, the smaller its variance, down to none on a linear feature."""

    def __init__(self, f0: np.ndarray, gram: np.ndarray):
        self.f0 = f0  # the clean feature f(x), unbatched
        self.gram = np.ascontiguousarray(gram)  # G, (n, n), symmetric
        self.c = np.diagonal(self.gram).copy()

    def mean(self, scale) -> float:
        """E l(scale * noise): sum(scale_i^2 * c_i), for a scalar or per-unit scale."""
        with np.errstate(all="ignore"):  # a non-finite value raises NumericalError
            return float((np.square(np.ravel(scale)) * self.c).sum())

    def apply(self, z: np.ndarray) -> np.ndarray:
        """G z_b for each row z_b of a (draws, n) batch, _CERT_CHUNK rows per
        product: l(z_b) = z_b . G z_b and its gradient is 2 G z_b."""
        out = np.empty_like(z)
        for lo in range(0, len(z), _CERT_CHUNK):
            np.matmul(z[lo : lo + _CERT_CHUNK], self.gram, out=out[lo : lo + _CERT_CHUNK])
        return out

    def total(self, z: np.ndarray) -> float:
        """sum_b l(z_b) over the rows of a (draws, n) batch, without keeping G z."""
        chunks = (z[lo : lo + _CERT_CHUNK] for lo in range(0, len(z), _CERT_CHUNK))
        return sum(float(np.vdot(chunk, chunk @ self.gram)) for chunk in chunks)


def clean_feature(model: ModelGraph, layer: str, x: np.ndarray) -> np.ndarray:
    """The layer's feature f0 at the unperturbed input, unbatched."""
    return model.forward(Tensor(x[None]), to_layer=layer).data[0]


def _forward_chunked(model: ModelGraph, xs: np.ndarray, layer: str) -> np.ndarray:
    """The layer's features of a batch, forwarded _CERT_CHUNK rows at a time
    into one array."""
    out = None
    for lo in range(0, len(xs), _CERT_CHUNK):
        f = model.forward(Tensor(xs[lo : lo + _CERT_CHUNK]), to_layer=layer).data
        if out is None:
            if len(f) == len(xs):
                return f
            out = np.empty((len(xs),) + f.shape[1:])
        out[lo : lo + len(f)] = f
    if out is None:
        raise ValueError("no rows to forward")
    return out


def _mean_sq_deviation(
    model: ModelGraph,
    layer: str,
    x,
    scale,
    samples: int,
    rng: RngStream,
    surrogate: Surrogate,
) -> float:
    """Monte Carlo mean squared deviation of the layer's feature from the clean
    feature surrogate.f0 under input noise scale * N(0, I), from `samples`
    draws of rng, with `surrogate` as control variate."""
    x = np.asarray(x, dtype=np.float64)
    xs = rng.normal((samples,) + x.shape)
    with np.errstate(all="ignore"):  # a non-finite value raises NumericalError
        xs *= scale
        ell = surrogate.total(xs.reshape(samples, -1))  # sum_b l(z_b)
        xs += x
        dev = _forward_chunked(model, xs, layer)
        dev -= surrogate.f0
        dev *= dev
        return float((dev.sum() - ell) / samples + surrogate.mean(scale))


def feature_baseline(
    model: ModelGraph,
    layer: str,
    x: np.ndarray,
    tau: float,
    samples: int,
    rng: RngStream,
    surrogate: Surrogate,
) -> float:
    """delta_f^2: mean squared feature deviation under isotropic noise std tau,
    with `surrogate` as control variate."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    value = _mean_sq_deviation(model, layer, x, tau, samples, rng, surrogate)
    if value <= 0.0:
        raise DegenerateLayerError(
            f"layer {layer!r} feature is constant under input noise; SID undefined"
        )
    return value


def _checked(value, op: str):
    """`value`, after checking that it is finite as the result of `op`."""
    _check_finite(value, op)
    return value


def _entropy_loss(
    model: ModelGraph,
    layer: str,
    x: np.ndarray,
    sigma: SigmaField,
    lam: float,
    fit_scale: float,
    samples: int,
    rng: RngStream,
    entropy: Callable[[np.ndarray, Tensor], Tensor] | None,
    surrogate: Surrogate,
) -> tuple[float, np.ndarray]:
    """fit - lam * entropy and its gradient w.r.t. log_sigma, from `samples`
    fresh reparameterized draws x' = x + sigma * noise. The fit term is the
    mean squared deviation from the clean feature surrogate.f0 over fit_scale.
    `entropy(x, fp)` builds the entropy being maximized from the perturbed
    feature fp; None leaves the fit term alone.

    The tape starts at x': it records the network and what `entropy` builds.
    The sigma chain is computed here with the arithmetic its tape nodes would
    do, each value checked under that node's name, and the pathwise gradient
    is sigma * sum_b(dL/dx'_b * noise_b).

    `surrogate` is the fit term's control variate, off the tape: its draws'
    mean l(z_b) / fit_scale leaves the value and dL/dx'_b loses
    2 G z_b / (samples * fit_scale); its exact mean sum(sigma^2 c) / fit_scale
    comes back, with gradient 2 sigma^2 c / fit_scale."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    if fit_scale <= 0:
        raise ValueError("fit_scale must be positive")
    x = np.asarray(x, dtype=np.float64)
    log_sigma = sigma.log_sigma
    _check_finite(log_sigma, "tensor")
    noise = rng.normal((samples,) + x.shape)
    with np.errstate(all="ignore"):  # non-finite values raise NumericalError
        sig = _checked(np.exp(log_sigma), "exp")
        xp = _checked(sig * noise, "mul")
        z = xp.reshape(samples, -1)
        gz = surrogate.apply(z)
        ell = np.vdot(z, gz)  # sum_b l(z_b), before z becomes x'
        xp += x
    # x' is the tape's one leaf that takes a gradient; f0 is wrapped, not copied
    xp = Tensor.wrap(_checked(xp, "add"), requires_grad=True)
    fp = model.forward(xp, to_layer=layer)
    scale = 1.0 / (samples * fit_scale)
    loss = T.sum_sq_diff(fp, Tensor.wrap(surrogate.f0), scale)
    if entropy is not None:
        loss = T.sub(loss, T.mul(entropy(x, fp), Tensor.wrap(lam)))
    grad_xp = T.backward(loss)[xp]
    value = loss.data - ell * scale + surrogate.mean(sig) / fit_scale
    gz *= 2.0 * scale
    grad_xp = grad_xp - gz.reshape(grad_xp.shape)
    grad = _checked((grad_xp * noise).sum(axis=0), "backward") * sig
    _check_finite(grad, "backward")
    grad += 2.0 * sig * sig * surrogate.c.reshape(sig.shape) / fit_scale
    return float(value), grad


def sid_loss(
    model: ModelGraph,
    layer: str,
    x: np.ndarray,
    sigma: SigmaField,
    lam: float,
    fit_scale: float,
    samples: int,
    rng: RngStream,
    surrogate: Surrogate,
) -> tuple[float, np.ndarray]:
    """One stochastic evaluation of the maximum-entropy loss and its gradient
    w.r.t. log_sigma, using `samples` fresh reparameterized draws from rng
    (fit_sigma's loss contract). The entropy is the perturbation's own,
    sum(entropy_field(sigma)), off the tape; its gradient is 1 per unit."""
    fit, grad = _entropy_loss(model, layer, x, sigma, lam, fit_scale, samples, rng, None, surrogate)
    with np.errstate(all="ignore"):  # a non-finite value raises NumericalError
        value = fit - entropy_field(sigma).sum() * lam
    return float(_checked(value, "sid_loss")), grad - lam


def certify_epsilon(
    model: ModelGraph,
    layer: str,
    x: np.ndarray,
    sigma: SigmaField,
    samples: int,
    rng: RngStream,
    surrogate: Surrogate | None = None,
) -> float:
    """Low-variance epsilon estimate from held-out draws (no gradient), with
    `surrogate` as control variate. None is plain Monte Carlo: the zero-G
    linearisation at the clean feature, which subtracts and adds back nothing."""
    if surrogate is None:
        n = sigma.log_sigma.size
        surrogate = Surrogate(clean_feature(model, layer, x), np.zeros((n, n)))
    return _mean_sq_deviation(model, layer, x, sigma.sigma, samples, rng, surrogate)


class LambdaSearch:
    """The one rule for the entropy weight lambda, from the first round's
    lambda on. Multiplicative steps until the target is straddled, then
    geometric bisection. epsilon(lambda) is monotone increasing: more entropy
    pressure widens sigma and with it the feature deviation."""

    def __init__(self, lam: float):
        self.lam = lam  # the lambda last handed out
        self.below: float | None = None  # largest lambda seen with eps < target
        self.above: float | None = None  # smallest lambda seen with eps > target

    def update(self, epsilon_achieved: float, target: float) -> float:
        """The next lambda, given the deviation achieved at the current one:
        sqrt(below * above) once bracketed, else the current lambda times
        target/epsilon clamped to [0.5, 2] (2 when epsilon <= 0)."""
        lam = self.lam
        if epsilon_achieved == target:
            return lam
        if epsilon_achieved < target:
            self.below = lam if self.below is None else max(self.below, lam)
        else:
            self.above = lam if self.above is None else min(self.above, lam)
        if self.below is not None and self.above is not None and self.below < self.above:
            self.lam = math.sqrt(self.below * self.above)
        elif epsilon_achieved <= 0:
            self.lam = lam * 2.0
        else:
            self.lam = lam * min(2.0, max(0.5, target / epsilon_achieved))
        return self.lam


def default_sigma_cap(x: np.ndarray) -> float:
    span = float(np.max(x) - np.min(x))
    return 10.0 * (span if span > 0 else 1.0)


def _probe(model: ModelGraph, layer: str, x: np.ndarray, scale: float, units: np.ndarray):
    """The layer's flattened features at the probe rows x +- scale * e_i of the
    flat indices i in `units` (units[j] up in row 2j, down in row 2j+1), built
    and forwarded _CERT_CHUNK rows at a time: yields (first row, features) per
    chunk, so memory does not grow with n^2."""
    n = x.size
    for lo in range(0, 2 * len(units), _CERT_CHUNK):
        rows = np.arange(lo, min(lo + _CERT_CHUNK, 2 * len(units)))
        m = len(rows)
        probes = np.repeat(x.reshape(1, n), m, axis=0)
        probes[np.arange(m), units[rows // 2]] += np.where(rows % 2, -scale, scale)
        f = model.forward(Tensor(probes.reshape((m,) + x.shape)), to_layer=layer).data
        yield lo, f.reshape(m, -1)


def find_dead_units(
    model: ModelGraph, layer: str, x: np.ndarray, scale: float, surrogate: Surrogate
) -> np.ndarray:
    """Flat indices of input units that do not move the feature: the fit term
    never pushes back on them, so their max-entropy optimum is the sigma cap.
    A unit with a non-zero column of J (surrogate.c_i > 0) moves it at +-tau,
    so only the flat ones (c_i == 0) are probed, at +-scale, against surrogate.f0.

    Keeps only each probe row's largest absolute feature deviation. A dust
    tolerance absorbs the float reassociation noise between the batched
    probes and the clean forward, whatever BLAS happens to run underneath.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = np.flatnonzero(surrogate.c == 0)
    f0 = np.reshape(surrogate.f0, -1)
    dev = np.empty(2 * flat.size)
    for lo, f in _probe(model, layer, x, scale, flat):
        d = f - f0
        np.abs(d, out=d)
        dev[lo : lo + len(d)] = d.max(axis=1)
    tol = 1e-9 * max(1.0, float(np.abs(f0).max()))
    return flat[dev.reshape(-1, 2).max(axis=1) <= tol]


def linear_surrogate(model: ModelGraph, layer: str, x: np.ndarray, h: float) -> Surrogate:
    """The feature linearised at x: f0 from the one clean forward of an
    estimate, J by central differences (f(x + h e_i) - f(x - h e_i)) / 2h over
    the 2n probe rows, and G = J^T J summed over blocks of _CERT_CHUNK feature
    rows. Each block keeps only the columns of J it depends on (a conv
    feature's rows see a patch of the input), which sets both the memory and
    the cost."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    blocks = None  # per feature block: its units' indices and rows of J^T
    for lo, f in _probe(model, layer, x, h, np.arange(n)):
        jt = (f[0::2] - f[1::2]) / (2.0 * h)  # J^T rows of units lo/2, lo/2 + 1, ...
        units = np.arange(lo // 2, lo // 2 + len(jt))
        if blocks is None:
            blocks = [([], []) for _ in range(0, jt.shape[1], _CERT_CHUNK)]
        for k, (index, rows) in enumerate(blocks):
            part = jt[:, k * _CERT_CHUNK : (k + 1) * _CERT_CHUNK]
            live = part.any(axis=1)
            index.append(units[live])
            rows.append(part[live])
    gram = np.zeros((n, n))
    while blocks:
        index, rows = map(np.concatenate, blocks.pop())
        with np.errstate(all="ignore"):  # a non-finite G raises NumericalError
            gram[np.ix_(index, index)] += rows @ rows.T  # one rank-k update
    return Surrogate(clean_feature(model, layer, x), gram)


def fit_sigma(
    model: ModelGraph,
    layer: str,
    x: np.ndarray,
    cfg: SidConfig,
    loss: Callable[[SigmaField, float, float, int, RngStream, Surrogate], tuple[float, np.ndarray]],
    lambda_start: float | None = None,
) -> tuple[SigmaField, dict]:
    """The sigma fit both estimators share. Learn sigma by gradient descent at
    fixed lambda, adapting lambda between rounds until the held-out feature
    deviation hits alpha * delta_f^2 within tolerance. Dead units run away to
    the sigma cap. The feature's linearisation at x (linear_surrogate, at
    h = tau) is the estimate's one probe: its zero columns of J name the only
    units find_dead_units forwards at the cap, its f0 is what that probe, the
    baseline, every certification and every step compare against, and its
    G = J^T J their control variate. Returns sigma and the EstimateResult fields.

    The loss is all that differs between the estimators, and every decision
    about it is made here: `loss(sigma, lam, fit_scale, samples, rng,
    surrogate)` returns one stochastic (value, gradient w.r.t. log_sigma) of
    fit / fit_scale - lam * entropy from `samples` fresh draws of rng, where
    fit is the mean squared deviation of the perturbed feature from
    surrogate.f0, with `surrogate` as its control variate. fit_scale is the
    measured delta_f^2, or 1.0 when cfg.normalize is False.

    LambdaSearch moves lambda between rounds, from lambda_start when the
    caller gives one (estimate_ru: 1.0). Otherwise lambda starts at
    2*alpha/n_live, n_live being the units not found dead: for a locally
    linear feature with c_i = |J e_i|^2 the optimum of
    fit/delta_f^2 - lambda*sum(ln sigma_i) has sigma_i^2*c_i = lambda*delta_f^2/2,
    so the budget sum(sigma_i^2*c_i) = alpha*delta_f^2 holds at that lambda for
    any network, layer or input scale. With normalize=False the fit term has
    no delta_f^2 and the rule does not apply; lambda starts at 1.0."""
    x = np.asarray(x, dtype=np.float64)
    root = RngStream(cfg.seed)
    surrogate = linear_surrogate(model, layer, x, cfg.tau)
    delta_f_sq = feature_baseline(
        model, layer, x, cfg.tau, cfg.baseline_samples, root.spawn("est/baseline"), surrogate
    )
    fit_scale = delta_f_sq if cfg.normalize else 1.0
    target = cfg.alpha * delta_f_sq
    cap = cfg.sigma_cap if cfg.sigma_cap is not None else default_sigma_cap(x)
    log_cap = math.log(cap)
    sigma = SigmaField.constant(x.shape, cfg.tau)  # start at the probe scale: near-feasible
    dead = find_dead_units(model, layer, x, cap, surrogate)
    sigma.log_sigma.reshape(-1)[dead] = log_cap  # their optimum; the clamp keeps them there
    if lambda_start is None:
        lambda_start = 2.0 * cfg.alpha / max(x.size - dead.size, 1) if cfg.normalize else 1.0
    search = LambdaSearch(lambda_start)
    step_rng = root.spawn("est/steps")
    steps_used = 0
    tail_from = cfg.max_steps // 2
    rounds = cfg.max_rounds if cfg.normalize else 1
    for round_ in range(rounds):
        if round_:  # moved only when a round is fit at it: lambda_final is what was fit
            search.update(epsilon, target)
        adam = Adam()
        tail_sum = np.zeros_like(sigma.log_sigma)
        for step in range(cfg.max_steps):
            _, grad = loss(sigma, search.lam, fit_scale, cfg.samples_per_step, step_rng, surrogate)
            # a linear decay to 2% of the step size damps sigma's stochastic jitter
            lr = cfg.sigma_lr * (1.0 - 0.98 * min(1.0, (step + 1) / cfg.max_steps))
            sigma.log_sigma = np.minimum(adam.step(sigma.log_sigma, grad, lr), log_cap)
            steps_used += 1
            if step >= tail_from:
                tail_sum += sigma.log_sigma
        # Polyak tail average damps the stochastic equilibrium jitter
        sigma.log_sigma = np.minimum(tail_sum / (cfg.max_steps - tail_from), log_cap)
        epsilon = certify_epsilon(
            model, layer, x, sigma, cfg.certify_samples, root.spawn("est/heldout"), surrogate
        )
        if abs(epsilon - target) <= cfg.lambda_tolerance * target:
            break
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
            model, layer, x, sigma, cfg.certify_samples, root.spawn("est/heldout"), surrogate
        )
    return sigma, dict(
        epsilon_achieved=epsilon,
        delta_f_sq=delta_f_sq,
        lambda_final=search.lam,
        steps_used=steps_used,
        capped_units=[int(i) for i in np.flatnonzero(sigma.log_sigma >= log_cap - 1e-12)],
        conformant=abs(epsilon - target) <= cfg.lambda_tolerance * target,
        seed=cfg.seed,
        sigma=sigma.sigma,
    )


def estimate_sid(model: ModelGraph, layer: str, x, cfg: SidConfig) -> SidResult:
    """Strict information discarding: fit_sigma maximizing the entropy of the
    input perturbation itself."""
    x = np.asarray(x, dtype=np.float64)
    sigma, fit = fit_sigma(model, layer, x, cfg, partial(sid_loss, model, layer, x))
    H_i = entropy_field(sigma)
    return SidResult(H_i=H_i, H_total=float(H_i.sum()), **fit)
