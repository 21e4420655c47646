"""Acceptance gate: the eleven release criteria, one test per criterion.

Each test prints a single machine-greppable line

    criterion NN PASS|FAIL: <key metrics>

before asserting, so a full run of this module doubles as the release
report (`pytest tests/test_acceptance.py -s`). All runs are seeded and
deterministic; the stated tolerances are asserted literally.
"""

import math

import numpy as np
import pytest

import _oracles
from dpsco import (
    Ball,
    IndicatorQuadratic,
    InnerSolveConfig,
    LossConstants,
    PrivacyBudget,
    Quadratic1D,
    QuadraticAnchor,
    RngStream,
    Schedule,
    SmoothedHingeMargin,
    adaptive_solver,
    epoch_growth_solver,
    excess_risk,
    growth_closure_check,
    interpolation_certificate,
    interpolation_localization,
    is_interpolating,
    lip_ext_gradient,
    lip_ext_value,
    lipschitz_wrap,
    localization_erm,
    make_lower_bound_instance,
    make_margin_classification,
    make_noiseless_least_squares,
    make_noisy_least_squares,
    noise_scale,
    pinch_check,
    release_noise,
    stability_bound_check,
    superefficiency_construct,
)
from dpsco.bench import ExperimentConfig, fit_rate, run_audit, run_sweep

GRID = tuple(2**k for k in range(10, 17))
BUDGET = PrivacyBudget(1.0, 0.0)
CFG = InnerSolveConfig()


def _report(num: int, ok: bool, metrics: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {metrics}")


def test_criterion_01_rate_separation():
    cfg_interp = ExperimentConfig(
        solver="interpolation", family="quadratic-anchor", n_grid=GRID, seeds=20,
        d=2, xstar_offset=0.5, m=512, beta=0.05, constant_scale=2.9e-3, inner_epochs=1,
    )
    lin_i, log_i = fit_rate(run_sweep(cfg_interp, seed_base=0))
    cfg_noisy = ExperimentConfig(
        solver="epoch-growth", family="quadratic-anchor", n_grid=GRID, seeds=20,
        d=2, xstar_offset=0.0, noise_std=0.5, radius=1.0, beta=0.05,
    )
    lin_n, log_n = fit_rate(run_sweep(cfg_noisy, seed_base=0))
    gap_interp = lin_i.r_squared - log_i.r_squared
    gap_noisy = log_n.r_squared - lin_n.r_squared
    ok = gap_interp >= 0.15 and lin_i.slope < 0 and gap_noisy >= 0.15 and log_n.slope < 0
    _report(
        1, ok,
        f"interpolating linear-in-n R2={lin_i.r_squared:.4f} vs log R2="
        f"{log_i.r_squared:.4f} (gap {gap_interp:+.4f}, slope {lin_i.slope:.2e}); "
        f"noisy reversed: log R2={log_n.r_squared:.4f} vs linear R2={lin_n.r_squared:.4f} "
        f"(gap {gap_noisy:+.4f}, slope {log_n.slope:.3f})",
    )
    assert gap_interp >= 0.15
    assert lin_i.slope < 0
    assert gap_noisy >= 0.15
    assert log_n.slope < 0


def test_criterion_02_adaptivity():
    xstar = np.array([0.5, 0.0])
    seeds = 200
    worst_noisy = worst_interp = 0.0
    for n in GRID:
        sched = Schedule(T=max(1, (n // 2) // 512), m=512, beta=0.05, constant_scale=1.0)
        T5 = max(1, int(np.ceil(np.log(n))))
        interp = make_noiseless_least_squares(2, n, xstar, 1.0, radius=1.0)
        an, bn, ai, bi = [], [], [], []
        for seed in range(seeds):
            noisy = make_noisy_least_squares(
                2, n, xstar, 1.0, 0.5, RngStream(seed, stream=2 * n), radius=1.0
            )
            x0 = np.zeros(2)
            r = adaptive_solver(noisy, x0, sched, BUDGET, CFG, RngStream(seed, stream=2 * n + 1))
            an.append(excess_risk(noisy, r.point))
            r = lipschitz_wrap(
                epoch_growth_solver, noisy, noisy.constants.L, x0, T5, 0.05,
                BUDGET, CFG, RngStream(seed, stream=2 * n + 1),
            )
            bn.append(excess_risk(noisy, r.point))
            r = adaptive_solver(interp, x0, sched, BUDGET, CFG, RngStream(seed, stream=2 * n + 1))
            ai.append(excess_risk(interp, r.point))
            r = interpolation_localization(
                interp, x0, sched, BUDGET, CFG, RngStream(seed, stream=2 * n + 1)
            )
            bi.append(excess_risk(interp, r.point))
        worst_noisy = max(worst_noisy, float(np.median(an) / np.median(bn)))
        worst_interp = max(worst_interp, float(np.median(ai) / np.median(bi)))
    ok = worst_noisy <= 4.0 and worst_interp <= 2.0
    _report(
        2, ok,
        f"worst median ratio vs growth solver on noisy data {worst_noisy:.2f} (<= 4); "
        f"vs half-data localization on interpolating data {worst_interp:.2f} (<= 2); "
        f"{seeds} seeds per n",
    )
    assert worst_noisy <= 4.0
    assert worst_interp <= 2.0


def test_criterion_03_extension_oracle_equivalence():
    rng = np.random.default_rng(2024)
    fams = {
        "quad": QuadraticAnchor(H=1.0),
        "indicator": IndicatorQuadratic(H=1.0),
        "hinge": SmoothedHingeMargin(margin=1.0),
    }
    max_val = max_grad = 0.0
    checked = skipped = 0
    for kind, fam in fams.items():
        for q in _oracles.make_queries(kind, 500, rng):
            query = (q.x, q.payload, q.label, q.L)
            f = _oracles.raw_loss_for(kind, q)
            conv = _oracles.grid_infconv(f, q.x, q.L)
            max_val = max(max_val, abs(lip_ext_value(fam, *query) - conv.value))
            status, grad = _oracles.gradient_oracle(f, q.x, q.L, conv)
            if status == "boundary":
                skipped += 1
                continue
            checked += 1
            err = float(np.linalg.norm(lip_ext_gradient(fam, *query) - grad))
            max_grad = max(max_grad, err)
    ok = max_val <= 1e-3 and max_grad <= 1e-3 and skipped < checked
    _report(
        3, ok,
        f"500 queries/family: max value err {max_val:.2e}, max gradient err "
        f"{max_grad:.2e} over {checked} classified queries ({skipped} near-boundary skips)",
    )
    assert max_val <= 1e-3
    assert max_grad <= 1e-3
    assert skipped < checked


def _leaf_iterates(trace):
    out = list(trace.iterates)
    for child in trace.children:
        out.extend(_leaf_iterates(child))
    return out


def test_criterion_04_wrapper_transparency():
    inst = make_noisy_least_squares(
        2, 512, np.array([0.5, 0.0]), 1.0, 0.5, RngStream(7, 0), radius=1.0
    )
    L = inst.constants.L
    x0 = inst.domain.center.copy()
    wrapped = lipschitz_wrap(
        epoch_growth_solver, inst, L, x0, 7, 0.05, BUDGET, CFG, RngStream(11, 1)
    )
    plain = _oracles.unclipped(epoch_growth_solver)(
        inst, x0, 7, 0.05, BUDGET, CFG, RngStream(11, 1)
    )
    same_point = bool(np.array_equal(wrapped.point, plain.point))
    wi, pi = _leaf_iterates(wrapped.trace), _leaf_iterates(plain.trace)
    same_iterates = len(wi) == len(pi) and all(
        np.array_equal(a, b) for a, b in zip(wi, pi)
    )
    half = L / 2.0
    capped = lipschitz_wrap(
        epoch_growth_solver, inst, half, x0, 7, 0.05, BUDGET, CFG, RngStream(11, 1)
    )
    max_consumed = capped.trace.max_consumed_gradient
    cap_ok = max_consumed <= half * (1.0 + 1e-12)
    ok = same_point and same_iterates and cap_ok
    _report(
        4, ok,
        f"wrapped vs unclipped at the declared L: point bitwise {same_point}, "
        f"{len(wi)} epoch iterates bitwise {same_iterates}; halved clip "
        f"max consumed {max_consumed:.6f} <= {half:.6f}",
    )
    assert same_point and same_iterates
    assert cap_ok


def test_criterion_05_modulus_sandwich():
    violations = 0
    shifts = []
    for n in (100, 1000):
        base = make_noiseless_least_squares(1, n, [0.0], 1.0, radius=1.0)
        for r in range(1, 11):
            rep = superefficiency_construct(base, r=r, anchor=1.0)
            shifts.append(rep.shift)
            if not (rep.lower_bound - 1e-10 <= rep.shift <= rep.upper_bound + 1e-10):
                violations += 1
    ok = violations == 0
    _report(
        5, ok,
        f"20 (n, k) cells: shifts in [{min(shifts):.4f}, {max(shifts):.4f}], "
        f"{violations} outside [Dk/n, 8HDk/(lambda n)]",
    )
    assert violations == 0


def test_criterion_06_stability_bound():
    constants = LossConstants(L=2.0, H=1.0, growth=1.0)  # L = 2 H D with D = 1
    gen = RngStream(606, 0).generator()
    n = 100
    violations = 0
    worst = 0.0
    for _ in range(1000):
        pts = np.clip(0.4 * gen.standard_normal(n), -1.0, 1.0)
        swapped = pts.copy()
        swapped[int(gen.integers(0, n))] = float(gen.uniform(-1.0, 1.0))
        rep = stability_bound_check(
            _anchored_1d(pts), _anchored_1d(swapped), 1, constants
        )
        worst = max(worst, rep.distance)
        if rep.distance > rep.bound + 1e-12:
            violations += 1
    ok = violations == 0
    _report(
        6, ok,
        f"1000 single-swap pairs: worst shift {worst:.6f} vs bound 0.08, "
        f"{violations} violations",
    )
    assert violations == 0


def _anchored_1d(pts):
    from dpsco import Dataset, Instance

    return Instance(
        family=QuadraticAnchor(H=1.0),
        dataset=Dataset(np.asarray(pts, dtype=float)),
        domain=Ball(np.zeros(1), 1.0),
        constants=LossConstants(L=2.0, H=1.0, growth=1.0),
    )


def test_criterion_07_growth_closure():
    n = 100
    cases = [
        ("anchored", make_noiseless_least_squares(1, n, [0.0], 1.0), 1.0),
        (
            "indicator",
            make_lower_bound_instance(d=1, n=n, k=50, v=[0.5], H=1.0),
            0.5,
        ),
    ]
    violations = 0
    coefs = []
    for _, inst, lam in cases:
        for r in (1, 2, 3):
            rep = growth_closure_check(inst, r)
            coefs.append(rep.coefficient)
            if rep.coefficient < lam - 1.0 * r / n - 1e-12 or not rep.passed:
                violations += 1
    ok = violations == 0
    _report(
        7, ok,
        f"both quadratic families, r in {{1,2,3}}, n={n}: coefficients "
        f"[{min(coefs):.4f}, {max(coefs):.4f}], {violations} below lambda - Hr/n",
    )
    assert violations == 0


def test_criterion_08_pinch_and_gradient_bounds():
    gen = RngStream(808, 0).generator()
    failures = 0
    for _ in range(1000):
        h = Quadratic1D(float(gen.uniform(0.1, 10.0)), float(2.0 * gen.standard_normal()))
        g = Quadratic1D(float(gen.uniform(0.1, 10.0)), float(2.0 * gen.standard_normal()))
        rep = pinch_check(h, g)
        four = (
            rep.lower - 1e-10 <= rep.x_star
            and rep.x_star <= rep.upper + 1e-10
            and rep.gradient_lower_ok
            and rep.gradient_upper_ok
        )
        if not (four and rep.passed):
            failures += 1
    ok = failures == 0
    _report(8, ok, f"1000 random quadratic pairs: {failures} failed the four inequalities")
    assert failures == 0


def test_criterion_09_noise_calibration():
    inst = make_noiseless_least_squares(2, 200, np.array([0.5, 0.0]), 1.0)
    L, eta = inst.constants.L, 0.5
    x0 = inst.domain.center.copy()
    pure = localization_erm(inst, x0, eta, BUDGET, CFG, RngStream(3, 0))
    pure_exact = all(
        rec.noise_scale == noise_scale(L, eta * 2.0 ** (-4 * index), 2, BUDGET)
        for index, rec in enumerate(pure.trace.epochs, start=1)
    )
    gauss_budget = PrivacyBudget(1.0, 1e-6)
    gauss = localization_erm(inst, x0, eta, gauss_budget, CFG, RngStream(3, 0))
    gauss_exact = all(
        rec.noise_scale == noise_scale(L, eta * 2.0 ** (-4 * index), 2, gauss_budget)
        for index, rec in enumerate(gauss.trace.epochs, start=1)
    )
    lap = release_noise([2.0], 1_000_000, RngStream(11, 0), BUDGET)[0]
    lap_err = abs(float(lap.std()) - 2.0 * math.sqrt(2.0)) / (2.0 * math.sqrt(2.0))
    gau = release_noise([1.5], 1_000_000, RngStream(12, 0), gauss_budget)[0]
    gau_err = abs(float(gau.std()) - 1.5) / 1.5
    ok = pure_exact and gauss_exact and lap_err <= 0.01 and gau_err <= 0.01
    _report(
        9, ok,
        f"trace sigmas bit-exact: Laplace {pure_exact}, Gaussian {gauss_exact}; "
        f"moment errors at 1e6 draws: Laplace {lap_err:.4%}, Gaussian {gau_err:.4%}",
    )
    assert pure_exact and gauss_exact
    assert lap_err <= 0.01
    assert gau_err <= 0.01


def test_criterion_10_empirical_epsilon_audit():
    calibrated = run_audit(rng=RngStream(0, 0))
    control = run_audit(control=True, rng=RngStream(0, 100))
    ok = calibrated.passed and control.passed
    _report(
        10, ok,
        f"calibrated eps_hat {calibrated.epsilon_hat:.4f} <= 1.5 "
        f"(retried={calibrated.retried}); sigma/2 control eps_hat "
        f"{control.epsilon_hat:.4f} >= 1.5 (retried={control.retried})",
    )
    assert calibrated.passed
    assert control.passed
    assert calibrated.epsilon_hat <= 1.5 <= control.epsilon_hat


def test_criterion_11_certificates_and_containment():
    certs = {
        "noiseless-ls": interpolation_certificate(
            make_noiseless_least_squares(2, 64, np.array([0.5, 0.0]), 1.0)
        ),
        "lower-bound": interpolation_certificate(
            make_lower_bound_instance(d=2, n=64, k=32, v=np.array([0.5, 0.0]), H=1.0)
        ),
        "margin": interpolation_certificate(
            make_margin_classification(2, 64, 0.25, RngStream(0, stream=7))
        ),
    }
    certs_ok = all(v <= 1e-10 for v in certs.values())
    noisy = make_noisy_least_squares(2, 64, np.array([0.5, 0.0]), 1.0, 0.5, RngStream(0, 1))
    negative_ok = not is_interpolating(noisy)

    n = 2048
    inst = make_noiseless_least_squares(2, n, np.array([0.5, 0.0]), 1.0)
    xstar = inst.optimum.point
    sched = Schedule(T=n // 512, m=512, beta=0.05, constant_scale=2.9e-3)
    contained = 0
    for seed in range(200):
        res = interpolation_localization(
            inst, np.zeros(2), sched, BUDGET, CFG, RngStream(seed, stream=7),
            inner_epochs=1,
        )
        centers = [np.zeros(2), *res.trace.iterates[:-1]]
        if all(
            Ball(c, ep.diameter / 2.0).contains(xstar)
            for c, ep in zip(centers, res.trace.epochs)
        ):
            contained += 1
    rate = contained / 200.0
    ok = certs_ok and negative_ok and rate >= 0.90
    _report(
        11, ok,
        f"certificates max {max(certs.values()):.2e} (<= 1e-10); noisy variant "
        f"rejected {negative_ok}; optimum inside every epoch ball in "
        f"{contained}/200 runs ({rate:.0%} >= 90%)",
    )
    assert certs_ok
    assert negative_ok
    assert rate >= 0.90
