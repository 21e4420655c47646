"""Shrinking-ball localization, the adaptive solver, and schedule rules."""

import math
from dataclasses import replace

import numpy as np
import pytest

from dpsco import (
    Ball,
    Dataset,
    InnerSolveConfig,
    LossConstants,
    PrivacyBudget,
    RngStream,
    Schedule,
    ScheduleInfeasibleError,
    adaptive_solver,
    default_inner_epochs,
    default_schedule,
    epoch_growth_solver,
    excess_risk,
    interpolation_localization,
    interpolation_width,
    lipschitz_wrap,
    sample_complexity,
    schedule_block_size,
    shrink_diameter,
)
from dpsco.hardness import make_noiseless_least_squares

CFG = InnerSolveConfig()
PURE = PrivacyBudget(1.0, 0.0)
FREE = PrivacyBudget(math.inf, 0.0)


# ------------------------------------------------------------- shrink rule


SHRINK_SCHED = Schedule(T=4, m=256, beta=0.1)


def _shrink(L_i, schedule=SHRINK_SCHED, d=2, budget=PURE, growth=1.0, kappa=2.0):
    return shrink_diameter(L_i, schedule, d, budget, growth, kappa)


def test_shrink_validation():
    for bad in (
        lambda: _shrink(1.0, Schedule(T=4, m=256, beta=0.1, constant_scale=1e307)),  # c = inf
        lambda: _shrink(1.0, Schedule(T=0, m=256, beta=0.1)),
        lambda: _shrink(1.0, Schedule(T=4, m=1, beta=0.1)),
        lambda: _shrink(1.0, Schedule(T=4, m=256, beta=1.0)),
        lambda: _shrink(1.0, d=0),
        lambda: _shrink(1.0, growth=0.0),
        lambda: _shrink(1.0, kappa=1.9),
        lambda: _shrink(0.0),
    ):
        with pytest.raises(ValueError):
            bad()


def test_shrink_worked_example():
    # L_i = 1, lambda = 1, m = 256, T = 4, beta = 0.1, d = 2, eps = 1:
    # 256 * max{sqrt(ln 40) ln^1.5(256)/16, 2 ln 40 ln 256 / 256} ~ 401.4
    val = _shrink(1.0)
    log_fail = math.log(4 / 0.1)
    log_m = math.log(256)
    stat = math.sqrt(log_fail) * log_m**1.5 / math.sqrt(256)
    priv = 2 * log_fail * log_m / (256 * 1.0)
    assert val == 256.0 * (1.0 / 1.0) * max(stat, priv)
    assert 401.0 < val < 402.0  # the statistical branch dominates here


def test_shrink_is_linear_in_the_clip_level():
    assert _shrink(2.0) == 2.0 * _shrink(1.0)


def test_shrink_leading_constant_is_linear_in_the_schedule_scale():
    # c = 256 * constant_scale at kappa = 2, 4 * 2^(12/kappa) * constant_scale beyond
    half = replace(SHRINK_SCHED, constant_scale=0.5)
    for kappa in (2.0, 3.0):
        assert _shrink(1.0, half, kappa=kappa) == 0.5 * _shrink(1.0, kappa=kappa)


def test_shrink_approximate_dp_dimension_factor():
    # delta > 0 swaps d for min(d, sqrt(d ln(1/delta)))
    T, m, beta = SHRINK_SCHED.T, SHRINK_SCHED.m, SHRINK_SCHED.beta
    for d, delta in ((100, 0.5), (2, math.exp(-9.0))):
        log_fail = math.log(T / beta)
        log_m = math.log(m)
        md = min(d, math.sqrt(d * math.log(1.0 / delta)))
        stat = math.sqrt(log_fail) * log_m**1.5 / math.sqrt(m)
        priv = md * log_fail * log_m / (m * 1.0)
        assert _shrink(1.0, d=d, budget=PrivacyBudget(1.0, delta)) == 256.0 * max(stat, priv)
    assert math.sqrt(100 * math.log(2.0)) < 100  # first case exercises the min
    assert math.sqrt(2 * 9.0) > 2  # second case pins md back to d


def test_shrink_steeper_growth_takes_a_root():
    # kappa = 3: leading constant 4 * 2^(12/3) = 64 and exponent 1/2
    c = 4.0 * 2.0 ** (12.0 / 3.0)
    assert c == 64.0
    T, m, beta = SHRINK_SCHED.T, SHRINK_SCHED.m, SHRINK_SCHED.beta
    log_fail = math.log(T / beta)
    log_m = math.log(m)
    stat = math.sqrt(log_fail) * log_m**1.5 / math.sqrt(m)
    priv = 2 * log_fail * log_m / (m * 1.0)
    for L in (0.5, 1.0, 3.0):
        bracket = (L / 1.0) * max(stat, priv)
        assert _shrink(L, kappa=3.0) == 64.0 * bracket ** (1.0 / (3.0 - 1.0))


def test_shrink_exponent_vanishes_as_kappa_grows():
    big = 1e9
    c = 4.0 * 2.0 ** (12.0 / big)
    # bracket^(1/(kappa-1)) -> 1, so the output approaches c alone
    assert abs(_shrink(1.0, kappa=big) / c - 1.0) < 1e-6


# ---------------------------------------------------------- localization


def test_localization_trace_monotone_and_identity_when_contracting():
    inst = make_noiseless_least_squares(2, 2048, [0.5, 0.0], 1.0)
    sched = Schedule(T=4, m=512, beta=0.05, constant_scale=2.0e-3)
    res = interpolation_localization(
        inst, np.zeros(2), sched, PURE, CFG, RngStream(22, 0), inner_epochs=1
    )
    recs = res.trace.epochs
    assert len(recs) == 4
    H = inst.constants.H
    assert recs[0].diameter == inst.domain.diameter
    assert recs[0].lipschitz == inst.constants.L
    for prev, rec in zip(recs, recs[1:]):
        assert rec.diameter <= prev.diameter
        assert rec.lipschitz <= prev.lipschitz
        assert rec.diameter < prev.diameter  # this scale genuinely contracts
        # with the clip cap slack, the clip level tracks H times diameter
        assert rec.lipschitz == H * rec.diameter


def test_localization_trace_monotone_even_when_the_shrink_stalls():
    # at a larger scale the rule's diameter exceeds the current one and the
    # cap binds; monotonicity must survive, with the clip capped at its floor
    inst = make_noiseless_least_squares(2, 2048, [0.5, 0.0], 1.0)
    sched = Schedule(T=4, m=512, beta=0.05, constant_scale=2.9e-3)
    res = interpolation_localization(
        inst, np.zeros(2), sched, PURE, CFG, RngStream(22, 1), inner_epochs=1
    )
    recs = res.trace.epochs
    for prev, rec in zip(recs, recs[1:]):
        assert rec.diameter <= prev.diameter
        assert rec.lipschitz <= prev.lipschitz
        assert rec.lipschitz == min(inst.constants.H * rec.diameter, prev.lipschitz)


def test_localization_blocks_partition_the_span():
    full = make_noiseless_least_squares(2, 2048, [0.5, 0.0], 1.0)
    # samples [100, 1200) as an instance of their own
    inst = replace(full, dataset=Dataset(full.dataset.points[100:1200]), optimum=None)
    sched = Schedule(T=3, m=256, beta=0.05, constant_scale=2.0e-3)
    res = interpolation_localization(
        inst, np.zeros(2), sched, PURE, CFG, RngStream(22, 2), inner_epochs=1
    )
    assert [r.samples for r in res.trace.epochs] == [(0, 256), (256, 512), (512, 768)]
    assert res.trace.dropped == 1100 - 3 * 256
    # children consume only indices inside their parent block
    for rec, child in zip(res.trace.epochs, res.trace.children):
        for epoch in child.epochs:
            assert rec.samples[0] <= epoch.samples[0] < epoch.samples[1] <= rec.samples[1]


def test_localization_early_exit_when_the_shrink_underflows():
    inst = make_noiseless_least_squares(2, 64, [0.5, 0.0], 1.0)
    sched = Schedule(T=5, m=2, beta=0.1, constant_scale=1e-300)
    res = interpolation_localization(
        inst, np.zeros(2), sched, PURE, CFG, RngStream(21, 0), inner_epochs=1
    )
    assert len(res.trace.epochs) < 5
    assert res.trace.note.startswith("early-exit")
    assert inst.domain.contains(res.point)


def test_localization_validation():
    inst = make_noiseless_least_squares(2, 100, [0.5, 0.0], 1.0)
    sched = Schedule(T=4, m=30, beta=0.1)
    with pytest.raises(ValueError):  # T*m = 120 > 100
        interpolation_localization(inst, np.zeros(2), sched, PURE, CFG, RngStream(0))
    ok = Schedule(T=2, m=30, beta=0.1)
    with pytest.raises(ValueError):
        interpolation_localization(
            inst, np.zeros(2), ok, PURE, CFG, RngStream(0), inner_epochs=0
        )
    flat = replace(inst, constants=LossConstants(L=1.5, H=1.0, growth=0.0))
    with pytest.raises(ValueError):
        interpolation_localization(flat, np.zeros(2), ok, PURE, CFG, RngStream(0))


def test_localization_without_privacy_noise_descends_monotonically():
    inst = make_noiseless_least_squares(2, 2048, [0.5, 0.0], 1.0)
    sched = Schedule(T=4, m=512, beta=0.05, constant_scale=2.9e-3)
    R = inst.domain.radius
    monotone = 0
    for seed in range(200):
        g = RngStream(seed, 9).generator()
        u = g.standard_normal(2)
        x0 = inst.domain.center + (0.9 * R * float(g.uniform(0.2, 1.0))) * u / np.linalg.norm(u)
        res = interpolation_localization(
            inst, x0, sched, FREE, CFG, RngStream(seed, 10), inner_epochs=1
        )
        vals = [excess_risk(inst, x0)] + [
            excess_risk(inst, iterate) for iterate in res.trace.iterates
        ]
        monotone += all(b <= a * (1 + 1e-12) + 1e-15 for a, b in zip(vals, vals[1:]))
    assert monotone >= 180  # at least 90% of 200 runs


# ----------------------------------------------------------- kappa variant


def test_kappa_solver_shrinks_by_the_rooted_rule():
    base = make_noiseless_least_squares(2, 512, [0.5, 0.0], 1.0)
    inst = replace(
        base, constants=replace(base.constants, kappa=3.0)
    )
    sched = Schedule(T=3, m=128, beta=0.1, constant_scale=2.0e-3)
    res = interpolation_localization(
        inst, np.zeros(2), sched, PURE, CFG, RngStream(23, 0), inner_epochs=1
    )
    recs = res.trace.epochs
    shrink = shrink_diameter(recs[0].lipschitz, sched, 2, PURE, 1.0, 3.0)
    assert recs[1].diameter == min(shrink, recs[0].diameter)
    for prev, rec in zip(recs, recs[1:]):
        assert rec.diameter <= prev.diameter and rec.lipschitz <= prev.lipschitz
    assert inst.domain.contains(res.point)


def test_kappa_growth_rate_comparison_requires_a_steeper_family():
    pytest.skip(
        "no packaged loss family exhibits growth steeper than quadratic (the "
        "anchored quadratics grow with exponent exactly 2 and the hinge declares "
        "no growth), so there is no instance on which the convergence slope of "
        "interpolation_localization at kappa = 3 could be separated from kappa = 2"
    )


# -------------------------------------------------------------- adaptive


def test_interpolation_width_hand_arithmetic():
    constants = LossConstants(L=1.0, H=1.0, growth=1.0)
    width = interpolation_width(256, constants, 2, PURE, 0.1, 1.0)
    log_fail = math.log(2.0 / 0.1)
    log_n = math.log(256)
    stat = math.sqrt(log_fail) * log_n**1.5 / 16.0
    priv = 2 * log_fail * log_n / 256.0
    assert width == 128.0 * (stat + priv)
    # approximate DP swaps d for min(d, sqrt(d ln(1/delta)))
    apx = interpolation_width(256, constants, 100, PrivacyBudget(1.0, 0.5), 0.1, 1.0)
    md = math.sqrt(100 * math.log(2.0))
    assert apx == 128.0 * (
        math.sqrt(log_fail) * log_n**1.5 / 16.0 + md * log_fail * log_n / 256.0
    )
    with pytest.raises(ValueError):
        interpolation_width(1, constants, 2, PURE, 0.1, 1.0)
    with pytest.raises(ValueError):
        interpolation_width(256, constants, 2, PURE, 1.0, 1.0)
    with pytest.raises(ValueError):
        interpolation_width(256, LossConstants(L=1.0, H=1.0, growth=0.0), 2, PURE, 0.1, 1.0)


def test_adaptive_output_lies_in_the_trust_ball():
    # replay phase 1 on the first half with an identically seeded
    # generator to rebuild the trust region, then check the final point
    # landed inside it
    inst = make_noiseless_least_squares(2, 512, [0.5, 0.0], 1.0)
    half = 256
    first = replace(inst, dataset=Dataset(inst.dataset.points[:half]), optimum=None)
    for scale, seeds in ((1.0, range(10)), (2.9e-3, range(10, 20))):
        sched = Schedule(T=4, m=64, beta=0.05, constant_scale=scale)
        for seed in seeds:
            res = adaptive_solver(inst, np.zeros(2), sched, PURE, CFG, RngStream(seed, 8))
            gen = RngStream(seed, 8).generator()
            t1 = default_inner_epochs(half)
            phase1 = lipschitz_wrap(
                epoch_growth_solver, first, inst.constants.L, np.zeros(2), t1,
                sched.beta / 2.0, PURE, CFG, gen,
            )
            d_int = interpolation_width(512, inst.constants, 2, PURE, sched.beta, scale)
            trust = Ball(phase1.point, min(d_int / 2.0, inst.domain.diameter))
            assert trust.contains(res.point)
            assert inst.domain.contains(res.point)
            assert res.trace.note == f"adaptive: interpolation width {d_int!r}"


def test_adaptive_consumes_disjoint_halves():
    inst = make_noiseless_least_squares(2, 512, [0.5, 0.0], 1.0)
    sched = Schedule(T=4, m=64, beta=0.05, constant_scale=1.0)
    res = adaptive_solver(inst, np.zeros(2), sched, PURE, CFG, RngStream(31, 0))
    phase1, phase2 = res.trace.children

    def leaf_spans(trace):
        if trace.children:
            out = []
            for child in trace.children:
                out.extend(leaf_spans(child))
            return out
        return [rec.samples for rec in trace.epochs]

    spans1, spans2 = leaf_spans(phase1), leaf_spans(phase2)
    assert spans1 and spans2
    assert all(0 <= a < b <= 256 for a, b in spans1)
    assert all(256 <= a < b <= 512 for a, b in spans2)
    allspans = sorted(spans1 + spans2)
    for (_, b), (c, _) in zip(allspans, allspans[1:]):
        assert b <= c  # pairwise disjoint


def test_adaptive_validation():
    inst = make_noiseless_least_squares(2, 1, [0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        adaptive_solver(
            inst, np.zeros(2), Schedule(T=1, m=1, beta=0.1), PURE, CFG, RngStream(0)
        )


# ------------------------------------------------------------- schedules


def test_default_inner_epochs_bounds():
    assert default_inner_epochs(1) == 1
    assert default_inner_epochs(256) == math.ceil(2.0 * math.log(256))
    # at least one epoch and at most one sample per epoch
    assert all(1 <= default_inner_epochs(m) <= m for m in range(2, 10_000))


def test_schedule_block_size_dual_coded():
    C = LossConstants(L=1.0, H=1.0, growth=1.0)
    n, d, mu = 2**20, 1, 1.0
    log_n = math.log(n)
    log_fail = mu * log_n
    inner = max(256.0 * 1.0 / 1.0, 1.0 / (1.0 * math.sqrt(log_n)))
    expect = 1.0 * 256.0 * log_n**2 * (1.0 * log_fail / 1.0) * inner
    assert schedule_block_size(n, C, d, PURE, mu) == expect

    apx = PrivacyBudget(2.0, 1e-5)
    d = 4
    md = math.sqrt(d) * math.log(1e5)
    inner = max(256.0 * 1.0 / 1.0, md / (2.0 * math.sqrt(log_n)))
    expect = 0.5 * 256.0 * log_n**2 * (1.0 * log_fail / 1.0) * inner
    assert schedule_block_size(n, C, d, apx, mu, constant_scale=0.5) == expect


def test_schedule_block_size_grows_with_mu_and_validates():
    C = LossConstants(L=1.0, H=1.0, growth=1.0)
    assert schedule_block_size(4096, C, 2, PURE, 2.0) > schedule_block_size(4096, C, 2, PURE, 1.0)
    with pytest.raises(ValueError):
        schedule_block_size(1, C, 2, PURE, 1.0)
    with pytest.raises(ValueError):
        schedule_block_size(4096, C, 2, PURE, 0.0)
    with pytest.raises(ValueError):
        schedule_block_size(4096, LossConstants(L=1.0, H=1.0, growth=0.0), 2, PURE, 1.0)


def test_default_schedule_feasible_path():
    C = LossConstants(L=1.0, H=1.0, growth=1.0)
    n = 2**20
    s = default_schedule(n, C, 1, PURE, 1.0, constant_scale=1e-4)
    raw = schedule_block_size(n, C, 1, PURE, 1.0, constant_scale=1e-4)
    assert s.m == max(2, math.ceil(raw))
    assert s.T == n // s.m
    assert s.beta == float(n) ** -1.0
    assert s.constant_scale == 1e-4
    assert s.T * s.m <= n


def test_default_schedule_infeasible_error_carries_a_fix():
    C = LossConstants(L=1.0, H=1.0, growth=1.0)
    n = 2**20
    with pytest.raises(ScheduleInfeasibleError) as err:
        default_schedule(n, C, 1, PURE, 1.0)
    raw = schedule_block_size(n, C, 1, PURE, 1.0)
    assert err.value.block_size == raw
    assert err.value.feasible_scale == 1.0 * n / raw
    # the advertised scale (with a nudge under it) actually fits
    retry = default_schedule(n, C, 1, PURE, 1.0, constant_scale=err.value.feasible_scale * 0.999)
    assert retry.m <= n


def test_sample_complexity_worked_example():
    val = sample_complexity(0.01, 1.0, 10, PURE)
    assert val == 0.01**-1.0 + (10.0 / (1.0 * 1.0)) * math.log(1.0 / 0.01)
    assert abs(val - 146.0517018598809) < 1e-10


def test_sample_complexity_growth_exponent_discounts_the_dimension_term():
    # the rho-divided dimension term shrinks as rho grows
    lo = sample_complexity(0.01, 1.0, 1000, PURE) - 0.01**-1.0
    hi = sample_complexity(0.01, 2.0, 1000, PURE) - 0.01**-2.0
    assert hi < lo


def test_sample_complexity_approximate_dp_and_validation():
    apx = PrivacyBudget(1.0, 1e-4)
    val = sample_complexity(0.01, 1.0, 10, apx)
    md = math.sqrt(10 * math.log(1e4))
    assert val == 0.01**-1.0 + (md / (1.0 * 1.0)) * math.log(1.0 / 0.01)
    with pytest.raises(ValueError):
        sample_complexity(1.0, 1.0, 10, PURE)
    with pytest.raises(ValueError):
        sample_complexity(0.01, 0.0, 10, PURE)
    with pytest.raises(ValueError):
        sample_complexity(0.01, 1.0, 0, PURE)
