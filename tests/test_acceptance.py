"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Estimation runs are shared through session fixtures; the constraint-
conformance criterion audits every run the other criteria performed. Criteria
5 and 8 run the two demo scripts, scripts/run_coherency_demo.py and
scripts/run_damage_demo.py, and no other test repeats a criterion's run.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from layerlens import data as D
from layerlens import model as M
from layerlens import report as REP
from layerlens.cli import main as cli_main
from layerlens.rng import RngStream
from layerlens.ru import DecoderSpec, estimate_ru, make_decoder, ru_loss
from layerlens.sid import (
    GAUSSIAN_ENTROPY_CONST as C,
    SidConfig,
    SigmaField,
    default_sigma_cap,
    entropy_field,
    estimate_sid,
    sid_loss,
)

from conftest import (
    finite_diff,
    identity_model,
    lagrange_sigma_sq,
    linear_model,
    load_script,
    random_conditioned_matrix,
    rel_err,
    sum_model,
    zero_surrogate,
)

CONFORMANCE_LEDGER: list[tuple[str, float, float, bool]] = []


def _track(label: str, result, alpha: float) -> None:
    CONFORMANCE_LEDGER.append(
        (label, result.epsilon_achieved, alpha * result.delta_f_sq, result.conformant)
    )


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# shared estimation runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def linear_run():
    rng = np.random.default_rng(7)
    A = random_conditioned_matrix(8, cond=10.0, seed=rng)
    g = linear_model(A)
    x = rng.normal(size=8)
    cfg = SidConfig(
        seed=1, samples_per_step=64, max_steps=300, baseline_samples=16384, certify_samples=8192
    )
    res = estimate_sid(g, "lin", x, cfg)
    _track("linear_n8", res, cfg.alpha)
    return A, cfg, res


@pytest.fixture(scope="session")
def coherency_runs():
    (_, normalized), (_, diagnostic) = load_script("run_coherency_demo").coherency_runs()
    alpha = SidConfig().alpha  # the demo keeps the default budget
    _track("coherency_original", normalized.result_original, alpha)
    _track("coherency_rescaled", normalized.result_rescaled, alpha)
    return normalized, diagnostic


@pytest.fixture(scope="session")
def equivalence_runs():
    n = 8
    g = identity_model(n)
    decoder = DecoderSpec(graph=identity_model(n, name="dec"), layer="id", val_mse=0.0)
    x = np.linspace(0.1, 0.8, n)
    cfg = SidConfig(seed=1, samples_per_step=64, max_steps=300, certify_samples=1024)
    rs = estimate_sid(g, "id", x, cfg)
    rr = estimate_ru(g, decoder, x, cfg)
    _track("equivalence_sid", rs, cfg.alpha)
    _track("equivalence_ru", rr, cfg.alpha)
    return rs, rr


@pytest.fixture(scope="session")
def divergence_runs():
    n = 16
    x = np.linspace(-1.0, 1.0, n)
    g = sum_model(n)
    dec_graph = M.build([M.dense("dec", n)], (1,), seed=0)
    dec_graph.params["dec"]["weight"] = np.full((1, n), 1.0 / n)
    dec_graph.params["dec"]["bias"] = np.zeros(n)
    decoder = DecoderSpec(graph=dec_graph, layer="sum", val_mse=float("nan"))
    cfg = SidConfig(seed=1, samples_per_step=64, max_steps=300)
    rs = estimate_sid(g, "sum", x, cfg)
    rr = estimate_ru(g, decoder, x, cfg)
    _track("divergence_sid", rs, cfg.alpha)
    _track("divergence_ru", rr, cfg.alpha)
    return x, cfg, rs, rr


@pytest.fixture(scope="session")
def damage_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("damage")
    code = load_script("run_damage_demo").main(["--out", str(root)])
    return root / "report", code


# ---------------------------------------------------------------------------
# the criteria
# ---------------------------------------------------------------------------


def test_criterion_1_gaussian_entropy_formula():
    # entropy_field is the per-unit entropy every SID estimate reports
    got = entropy_field(SigmaField(np.log([1.0, math.e, 0.1])))
    want = 0.5 * math.log(2.0 * math.pi * math.e)
    ok = abs(got[0] - want) <= 1e-15 and np.abs(got - [1.418939, 2.418939, -0.883646]).max() <= 1e-6
    _verdict(1, ok, f"entropy_field at sigma = 1, e, 0.1: {got.round(9).tolist()}; half-log(2*pi*e) = {want:.9f}")


def test_criterion_2_closed_form_sid_on_linear_maps(linear_run):
    A, cfg, res = linear_run
    # oracle self-check first: 2-D grid search agrees with the Lagrange form
    A2 = np.random.default_rng(123).normal(size=(2, 2))
    eps2 = 0.01
    col_sq = (A2 * A2).sum(axis=0)
    best, best_pair = -np.inf, None
    for s1_sq in np.linspace(1e-9, eps2 / col_sq[0] * (1 - 1e-9), 200_000):
        s2_sq = (eps2 - s1_sq * col_sq[0]) / col_sq[1]
        if s2_sq <= 0:
            continue
        ent = math.log(s1_sq) + math.log(s2_sq)
        if ent > best:
            best, best_pair = ent, (s1_sq, s2_sq)
    grid_ok = np.allclose(best_pair, lagrange_sigma_sq(A2, eps2), rtol=1e-4)

    cond = float(np.linalg.cond(A))
    eps = cfg.alpha * cfg.tau**2 * (A * A).sum()
    expected_H = 0.5 * np.log(lagrange_sigma_sq(A, eps)) + C
    err = float(np.abs(res.H_i - expected_H).max())
    ok = grid_ok and err <= 0.05 and cond <= 10.0
    _verdict(
        2,
        ok,
        f"n=8 cond={cond:.2f}: max per-unit |H - analytic| = {err:.4f} nats "
        f"(<= 0.05); grid-search cross-check {'ok' if grid_ok else 'FAILED'}",
    )


def test_criterion_4_gradient_correctness():
    g = M.build(
        [M.conv("c1", 4, 3, padding=1), M.relu("r1"), M.conv("c2", 2, 3, padding=1)],
        (1, 5, 5),
        seed=2,
    )
    x = RngStream(11).normal((1, 5, 5)) * 0.5
    sigma = SigmaField.constant((1, 5, 5), 0.01)
    lam, dfs, samples = 0.4, 1e-3, 8
    plain = zero_surrogate(g, "c2", x)

    _, grad_sid = sid_loss(plain, sigma, lam, dfs, samples, rng=RngStream(21, counter=0))
    fd_sid = finite_diff(
        lambda v: sid_loss(
            plain, SigmaField(v.reshape(1, 5, 5)), lam, dfs, samples, rng=RngStream(21, counter=0)
        )[0],
        sigma.log_sigma.ravel().copy(),
    )
    err_sid = rel_err(grad_sid.ravel(), fd_sid)

    decoder = make_decoder(g.layer_shape("c2"), g.input_shape, seed=4)
    _, grad_ru = ru_loss(decoder, plain, sigma, lam, dfs, samples, rng=RngStream(22, counter=0))
    fd_ru = finite_diff(
        lambda v: ru_loss(
            decoder, plain, SigmaField(v.reshape(1, 5, 5)), lam, dfs, samples,
            rng=RngStream(22, counter=0),
        )[0],
        sigma.log_sigma.ravel().copy(),
    )
    err_ru = rel_err(grad_ru.ravel(), fd_ru)
    ok = err_sid <= 1e-4 and err_ru <= 1e-4
    _verdict(
        4,
        ok,
        f"finite-difference rel err: strict-loss {err_sid:.2e}, "
        f"reconstruction-loss {err_ru:.2e} (both <= 1e-4, common random numbers)",
    )


def test_criterion_5_coherency_invariance(coherency_runs):
    normalized, diagnostic = coherency_runs
    ok = (
        normalized.output_max_diff <= 1e-10
        and normalized.max_abs_delta_h <= 1e-6
        and normalized.passed
        and diagnostic.max_abs_delta_h > 1e-6
        and not diagnostic.passed
    )
    _verdict(
        5,
        ok,
        f"rescaled output diff = {normalized.output_max_diff:.1e} (<= 1e-10), "
        f"per-unit SID shift = {normalized.max_abs_delta_h:.1e} (<= 1e-6); "
        f"unnormalized diagnostic shift = {diagnostic.max_abs_delta_h:.3f} (must fail)",
    )


def test_criterion_6_sid_ru_equivalence(equivalence_runs):
    rs, rr = equivalence_runs
    err = float(np.abs(rr.H_hat_i - rs.H_i).max())
    ok = err <= 0.05
    _verdict(
        6,
        ok,
        f"identity layer + exact inverse decoder: max per-unit |Hhat - H| = {err:.4f} "
        "nats at 1024 held-out samples (<= 0.05)",
    )


def test_criterion_7_sum_network_divergence(divergence_runs):
    x, cfg, rs, rr = divergence_runs
    n = x.size
    eps = cfg.alpha * n * cfg.tau**2
    analytic_sid = 0.5 * math.log(eps / n) + C
    analytic_ru = float(np.mean(0.5 * np.log((x - x.mean()) ** 2 + eps / n**2) + C))
    analytic_gap = analytic_ru - analytic_sid
    measured_gap = float(rr.H_hat_i.mean() - rs.H_i.mean())
    ru_err = abs(float(rr.H_hat_i.mean()) - analytic_ru)
    ok = analytic_gap >= 0.5 and measured_gap >= 0.5 and ru_err <= 0.05
    _verdict(
        7,
        ok,
        f"sum network: analytic gap = {analytic_gap:.3f}, measured gap = {measured_gap:.3f} "
        f"nats (both >= 0.5); mean Hhat off the analytic mean by {ru_err:.4f} (<= 0.05)",
    )


def test_criterion_8_damage_experiment_report(damage_run):
    out, code = damage_run
    rep = REP.parse_csv(out / "damage.csv")
    models = sorted({r.model for r in rep.records})
    summary = json.loads((out / "damage_summary.json").read_text())
    deltas = summary["delta_H_total_vs_original"]
    mean_deltas = {mid: float(np.mean(list(d.values()))) for mid, d in deltas.items()}
    ok = (
        code in (0, 2)
        and models == ["damaged@1", "damaged@2", "original"]
        and len(rep.records) == 9
        and set(deltas) == {"damaged@1", "damaged@2"}
    )
    # the paper's observed direction is recorded, deliberately not asserted
    _verdict(
        8,
        ok,
        f"side-by-side layerwise SID emitted for {models}; recorded mean delta vs "
        f"original (direction not asserted): {mean_deltas}",
    )


def test_criterion_3_constraint_conformance(
    linear_run, coherency_runs, equivalence_runs, divergence_runs, damage_run
):
    out, _ = damage_run
    entries = list(CONFORMANCE_LEDGER)
    for r in REP.parse_csv(out / "damage.csv").records:
        entries.append((f"damage:{r.model}/{r.layer}", r.epsilon, 1.5 * r.delta_f_sq, r.conformant))
    bad = [
        (label, eps, target)
        for label, eps, target, ok in entries
        if not (ok and abs(eps - target) <= 0.05 * target)
    ]
    ok = not bad and len(entries) >= 16
    _verdict(
        3,
        ok,
        f"{len(entries)} shipped runs all within 5% of alpha*delta_f^2"
        + (f"; out of band: {bad}" if bad else ""),
    )


def test_criterion_9_determinism(tmp_path):
    images, labels = D.make_fourclass_images(n=16, shape=(1, 8, 8), seed=2)
    ip, lp = D.save_lltn_pair(tmp_path / "data", images, labels)
    out = tmp_path / "run"
    config = {
        "dataset": {"format": "lltn", "images": str(ip), "labels": str(lp)},
        "model": {"architecture": "tiny-cnn", "input_shape": [1, 8, 8], "classes": 4},
        "estimator": {
            "max_steps": 60,
            "samples_per_step": 16,
            "certify_samples": 256,
            "baseline_samples": 256,
        },
        "layers": ["conv2"],
        "inputs": [0],
        "outputs": str(out),
        "seed": 12,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    def snapshot():
        assert cli_main(["sid", "--config", str(cfg_path)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}

    first = snapshot()
    second = snapshot()
    same = set(first) == set(second) and all(first[k] == second[k] for k in first)
    kinds = {Path(k).suffix for k in first}
    ok = same and {".json", ".lltn", ".pgm"} <= kinds
    _verdict(
        9,
        ok,
        f"rerun with identical config+seed reproduced {len(first)} output files "
        f"byte-identically ({sorted(kinds)})",
    )


def test_criterion_10_dead_unit_degeneracy():
    inside = np.zeros((4, 4), dtype=bool)
    inside[1:3, 1:3] = True
    g = M.build([M.flatten("f"), M.dense("head", 4)], (1, 4, 4), seed=2)
    g.params["head"]["weight"][~inside.reshape(-1), :] = 0.0
    x = RngStream(5).normal((1, 4, 4)) * 0.3
    cfg = SidConfig(seed=1, max_steps=100, samples_per_step=16, certify_samples=512, baseline_samples=512)
    res = estimate_sid(g, "head", x, cfg)
    cap = default_sigma_cap(x)
    dead_flat = np.flatnonzero(~inside.reshape(-1))
    capped_ok = sorted(res.capped_units) == dead_flat.tolist()
    entropy_ok = np.allclose(
        res.H_i.reshape(-1)[dead_flat], math.log(cap) + C, atol=1e-9
    )
    conc = REP.concentration(res.H_i, REP.Mask(inside))
    ok = capped_ok and entropy_ok and conc > 0.0
    _verdict(
        10,
        ok,
        f"12 dead units capped at sigma={cap:.2f} and flagged; "
        f"dead-background concentration = {conc:.3f} (> 0)",
    )
