"""Regularized ERM, localization, the epoch growth solver, and clipping."""

import math
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpsco import (
    Ball,
    ConvergenceError,
    Dataset,
    InnerSolveConfig,
    Instance,
    LossConstants,
    PrivacyBudget,
    QuadraticAnchor,
    RngStream,
    Schedule,
    adaptive_solver,
    epoch_growth_solver,
    exact_minimizer,
    excess_risk,
    growth_step_size,
    interpolation_localization,
    lipschitz_wrap,
    localization_erm,
    solve_regularized_erm,
)
from _oracles import (
    ball_projection, gradient_descent_only, hinge_gradients, projected_gradient_descent,
    quad_gradients, unclipped,
)
from dpsco import base_solvers
from dpsco.base_solvers import Plan, Step, _closed_form_count, _execute, _flatten
from dpsco.hardness import (
    make_lower_bound_instance,
    make_margin_classification,
    make_noiseless_least_squares,
    make_noisy_least_squares,
)

CFG = InnerSolveConfig()
PURE = PrivacyBudget(1.0, 0.0)
FREE = PrivacyBudget(math.inf, 0.0)
BAD_TOLERANCES = (0.0, -1.0, math.nan, math.inf, -math.inf)


@contextmanager
def _consumed_norms():
    """Record the consumed norms of every gradient batch a phase clips."""
    seen = []
    clip = base_solvers.clip_gradients

    def record(grads, level):
        grads, norms = clip(grads, level)
        seen.append(norms)
        return grads, norms

    with mock.patch.object(base_solvers, "clip_gradients", record):
        yield seen


def _ls(anchors, radius=10.0):
    pts = np.asarray(anchors, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    d = pts.shape[1]
    return Instance(
        family=QuadraticAnchor(H=1.0),
        dataset=Dataset(pts),
        domain=Ball(np.zeros(d), radius),
        constants=LossConstants(L=np.abs(pts).max() + radius, H=1.0, growth=1.0),
    )


# ----------------------------------------------------------- regularized ERM


def test_inner_config_validation():
    for tol in BAD_TOLERANCES:
        with pytest.raises(ValueError, match="tolerance must be a positive real"):
            InnerSolveConfig(tolerance=tol)
    # bool is an int subclass; True would cap every phase at one step
    for bad in (0, True):
        with pytest.raises(ValueError, match=f"max_iterations must be an integer >= 1, got {bad}"):
            InnerSolveConfig(max_iterations=bad)


def test_regularized_erm_worked_example():
    inst = _ls([1.0, 1.0])
    x, consumed = solve_regularized_erm(inst, [0.0], 1.0, inst.domain, CFG)
    assert np.array_equal(x, [0.5])
    assert consumed == 0.5  # gradient magnitude |x - anchor| at the solution


def test_regularized_erm_large_eta_recovers_plain_erm():
    inst = _ls([1.0, 3.0])
    x, _ = solve_regularized_erm(inst, [0.0], 1e12, inst.domain, CFG)
    assert abs(float(x[0]) - 2.0) <= 1e-9


def test_regularized_erm_center_at_minimizer_is_a_fixed_point():
    inst = _ls([0.5, 0.5])
    x, _ = solve_regularized_erm(inst, [0.5], 1.0, inst.domain, CFG)
    assert np.array_equal(x, [0.5])


def test_regularized_erm_closed_form_matches_gradient_descent():
    rng = np.random.default_rng(81)
    pgd_cfg = InnerSolveConfig(tolerance=1e-12)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        inst = _ls(1.5 * rng.standard_normal((8, d)), radius=3.0)
        center = rng.standard_normal(d) * 0.5
        eta = float(rng.uniform(0.1, 5.0))
        ball = Ball(center, float(rng.uniform(0.5, 2.0)))
        exact, _ = solve_regularized_erm(inst, center, eta, ball, CFG)
        pgd, _ = gradient_descent_only(solve_regularized_erm)(inst, center, eta, ball, pgd_cfg)
        assert np.linalg.norm(exact - pgd) <= 1e-7


def test_regularized_erm_respects_the_ball():
    inst = _ls([5.0, 5.0])
    ball = Ball(np.zeros(1), 1.0)
    x, _ = solve_regularized_erm(inst, [0.0], 1e9, ball, CFG)
    assert abs(float(x[0]) - 1.0) <= 1e-12
    assert ball.contains(x)


def test_regularized_erm_span_and_validation():
    inst = _ls([0.0, 2.0, 4.0, 100.0])
    x, _ = solve_regularized_erm(inst, [2.0], 1e9, inst.domain, CFG, span=(0, 3))
    assert abs(float(x[0]) - 2.0) <= 1e-9  # last sample never touched
    with pytest.raises(ValueError):
        solve_regularized_erm(inst, [0.0], 1.0, inst.domain, CFG, span=(2, 9))
    with pytest.raises(ValueError):
        solve_regularized_erm(inst, [0.0], 0.0, inst.domain, CFG)
    with pytest.raises(ValueError):
        solve_regularized_erm(inst, [0.0], 1.0, inst.domain, CFG, clip=0.0)
    with pytest.raises(ValueError, match="domain has dimension"):
        solve_regularized_erm(inst, [0.0], 1.0, Ball(np.zeros(2), 1.0), CFG)
    # nan would never stop a phase, and inf would stop every phase after one step
    for tol in BAD_TOLERANCES:
        with pytest.raises(ValueError, match="tolerance must be a positive real"):
            solve_regularized_erm(inst, [0.0], 1.0, inst.domain, CFG, tolerance=tol)


def test_regularized_erm_convergence_error_carries_gradient_norm():
    # an active clip makes the objective non-quadratic, so one iteration
    # from far away cannot reach a 1e-15 stationarity target
    inst = _ls([5.0, 5.0, 5.0])
    tight = InnerSolveConfig(tolerance=1e-15, max_iterations=1)
    with pytest.raises(ConvergenceError) as err:
        solve_regularized_erm(inst, [0.0], 10.0, inst.domain, tight, clip=0.5)
    assert err.value.gradient_norm > 0.0


def test_gradient_hook_sees_consumed_norms():
    inst = _ls([3.0, -3.0])
    with _consumed_norms() as seen:
        solve_regularized_erm(inst, [0.0], 1.0, inst.domain, CFG, clip=1.0)
    assert seen and np.all(np.concatenate(seen) <= 1.0 + 1e-12)


# 200 samples each; the indicator's first 100 rows are off, so a span
# inside [0, 100) is a block with no anchor (k = 0)
_PHASE_INSTANCES = {
    "quad": make_noisy_least_squares(2, 200, [0.5, 0.0], 1.0, 0.3, RngStream(1, 0)),
    "ind": make_lower_bound_instance(d=2, n=200, k=100, v=[0.5, 0.0], H=1.0),
    "hinge": make_margin_classification(3, 200, 0.25, RngStream(2, 0)),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    tag=st.sampled_from(sorted(_PHASE_INSTANCES)),
    span=st.tuples(st.integers(0, 199), st.integers(1, 200)).filter(lambda s: s[0] < s[1]),
    center=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    ball_center=st.lists(st.floats(-0.5, 0.4), min_size=3, max_size=3),  # never the anchor v
    radius=st.floats(0.0, 1.5),
    eta=st.floats(1e-2, 1.0),
    clip_factor=st.one_of(st.just(math.inf), st.floats(0.1, 3.0)),
)
@example(tag="ind", span=(10, 60), center=[0.3, -0.2, 0.0], ball_center=[0.1, 0.1, 0.0],
         radius=0.4, eta=0.5, clip_factor=0.5)  # k = 0: no anchor pulls
@example(tag="quad", span=(0, 200), center=[0.9, 0.9, 0.0], ball_center=[-0.5, 0.0, 0.0],
         radius=1.0, eta=0.5, clip_factor=0.3)  # clip below the ball's reach
def test_executor_phase_equals_the_public_solve(tag, span, center, ball_center, radius, eta,
                                                clip_factor):
    # the executor walks on raw arrays and a raw (center, radius) ball;
    # the public solve validates, builds a Ball and runs the walk on a run
    # of one release, and the two must agree bit for bit
    inst = _PHASE_INSTANCES[tag]
    d, (lo, hi) = inst.d, span
    x, c = np.array(center[:d]), np.array(ball_center[:d])
    fam, pts = inst.family, inst.dataset.points[lo:hi]
    anchors = fam.anchors(pts) if fam.anchors is not None else None
    if anchors is not None and anchors.shape[0]:
        # the largest gradient the ball can produce: below it the closed
        # form is invalid and the phase falls back to gradient descent
        reach = fam.H * (np.linalg.norm(anchors - c, axis=1).max() + radius)
        clip = clip_factor * reach
        _, counts, pulls = fam.block_anchors(pts[None])
        accepted = _closed_form_count(fam.H, pts[None], pulls, [counts[0] == 0], c[None],
                                      [radius], [clip])
        assert accepted == (clip_factor >= 1.0)
    else:
        clip = clip_factor
    cfg, seen = InnerSolveConfig(tolerance=1e-6), {}
    with _consumed_norms() as seen["public"]:
        public = solve_regularized_erm(inst, list(x), eta, Ball(c, radius), cfg,
                                       span=span, clip=clip, tolerance=1e-5)
    with _consumed_norms() as seen["raw"]:
        raw = _execute(inst, _flatten(Plan((Step(span, None, None, clip, 0.0, eta),))), x, c,
                       radius, cfg, (), 1e-5)
    assert public[0].tobytes() == raw[0][0].tobytes()
    assert public[1] == raw[1][0]
    assert len(seen["public"]) == len(seen["raw"])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(seen["public"], seen["raw"]))


# 300 samples each at hinge-sweep's d = 8, the hinge at a margin whose tau = 0.2
# is no power of two (so u / tau rounds); the quadratic runs with its
# closed form refused
_GD_INSTANCES = {
    "hinge": make_margin_classification(8, 300, 0.4, RngStream(3, 0)),
    "quad": make_noisy_least_squares(8, 300, [0.5] + [0.0] * 7, 1.0, 0.3, RngStream(4, 0)),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    tag=st.sampled_from(sorted(_GD_INSTANCES)),
    span=st.tuples(st.integers(0, 299), st.integers(1, 300)).filter(lambda s: s[0] < s[1]),
    center=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    ball_center=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    radius=st.floats(0.0, 2.0),
    eta=st.floats(1e-3, 0.2),
    clip_factor=st.one_of(st.just(math.inf), st.just(1.0), st.floats(0.05, 0.95)),
)
@example(tag="quad", span=(0, 300), center=[0.9] * 8, ball_center=[-0.5] + [0.0] * 7,
         radius=1.0, eta=0.1, clip_factor=0.3)  # clips throughout
def test_gradient_descent_phase_equals_the_plain_loop(tag, span, center, ball_center, radius,
                                                      eta, clip_factor):
    # a phase takes its mean, largest norm and move as the bare reductions
    # under numpy's wrappers, and the hinge clamps its slope with bare
    # ufuncs; the plain loop in the wrappers' own forms must give the same
    # point and consumed norm, bit for bit
    inst = _GD_INSTANCES[tag]
    (lo, hi), fam = span, inst.family
    x, c, pts = np.array(center), np.array(ball_center), inst.dataset.points[lo:hi]
    if tag == "hinge":
        grads = hinge_gradients(fam.margin, fam.tau, pts, inst.dataset.labels[lo:hi])
        clip = clip_factor  # a hinge gradient's norm is at most 1 on unit features
        solve = solve_regularized_erm
    else:
        grads = quad_gradients(fam.H, pts)
        # a fraction of the largest gradient at the start binds at once
        start = ball_projection(x, c, radius)
        clip = clip_factor * float(np.linalg.norm(grads(start), axis=1).max())
        solve = gradient_descent_only(solve_regularized_erm)
    point, used = solve(inst, x, eta, Ball(c, radius), InnerSolveConfig(tolerance=1e-7),
                        span=span, clip=clip, tolerance=1e-5)
    ref, ref_used = projected_gradient_descent(grads, x, eta, inst.constants.H, c, radius,
                                               clip, 1e-5)
    assert point.tobytes() == ref.tobytes()
    assert used == ref_used


# ------------------------------------------------------------- localization


def test_localization_noise_scales_match_the_stated_formula():
    n, d, eta, clipL = 200, 2, 0.5, 2.0
    inst = make_noiseless_least_squares(d, n, [0.5, 0.0], 1.0)
    res = lipschitz_wrap(
        localization_erm, inst, clipL, np.zeros(d), eta, PURE, CFG, RngStream(1, 0)
    )
    k = math.ceil(math.log(n))
    n0 = n // k
    assert len(res.trace.epochs) == k
    assert res.trace.dropped == n - k * n0
    for i, rec in enumerate(res.trace.epochs, start=1):
        eta_i = eta * 2.0 ** (-4 * i)
        assert rec.eta == eta_i
        assert rec.noise_scale == 4.0 * clipL * eta_i * math.sqrt(d) / PURE.eps
        assert rec.diameter == 4.0 * clipL * eta_i * n0
        assert rec.lipschitz == clipL
        assert rec.samples == ((i - 1) * n0, i * n0)
    # consecutive phases shrink the step 16x, so across two phases 2^-8
    sigmas = [rec.noise_scale for rec in res.trace.epochs]
    assert sigmas[2] / sigmas[0] == 2.0 ** (-8)


def test_localization_gaussian_branch_uses_approximate_dp_scale():
    budget = PrivacyBudget(1.0, 1e-6)
    inst = make_noiseless_least_squares(2, 100, [0.5, 0.0], 1.0)
    res = lipschitz_wrap(
        localization_erm, inst, 2.0, np.zeros(2), 0.5, budget, CFG, RngStream(1, 1)
    )
    for i, rec in enumerate(res.trace.epochs, start=1):
        eta_i = 0.5 * 2.0 ** (-4 * i)
        sigma = 4.0 * 2.0 * eta_i * math.sqrt(math.log(1.0 / budget.delta)) / budget.eps
        assert rec.noise_scale == sigma


def test_localization_phases_partition_their_span():
    full = make_noiseless_least_squares(2, 300, [0.5, 0.0], 1.0)
    # samples [50, 290) as an instance of their own
    inst = replace(full, dataset=Dataset(full.dataset.points[50:290]), optimum=None)
    res = localization_erm(inst, np.zeros(2), 0.5, PURE, CFG, RngStream(1, 2))
    spans = [rec.samples for rec in res.trace.epochs]
    assert spans[0][0] == 0
    for (a, b), (c, _) in zip(spans, spans[1:]):
        assert b == c  # consecutive, hence disjoint
    assert spans[-1][1] <= 240
    assert res.trace.dropped == 240 - len(spans) * (240 // len(spans))


def test_localization_without_budget_recovers_the_erm_minimizer():
    inst = make_noiseless_least_squares(2, 1024, [0.5, 0.0], 1.0)
    res = localization_erm(inst, np.zeros(2), 1e6, FREE, CFG, RngStream(3, 0))
    assert float(np.linalg.norm(res.point - exact_minimizer(inst))) <= 1e-6
    assert excess_risk(inst, res.point) <= 1e-6
    assert all(rec.noise_scale == 0.0 for rec in res.trace.epochs)


def test_localization_replays_per_stream_and_stays_in_domain():
    inst = make_noisy_least_squares(2, 128, [0.5, 0.0], 1.0, 0.5, RngStream(2, 0))
    run = lambda s: localization_erm(inst, np.zeros(2), 0.1, PURE, CFG, RngStream(9, s))
    a, b, c = run(0), run(0), run(1)
    assert np.array_equal(a.point, b.point)
    assert not np.array_equal(a.point, c.point)
    assert inst.domain.contains(a.point)


def test_localization_validation():
    inst = make_noiseless_least_squares(1, 10, [0.5], 1.0)
    with pytest.raises(ValueError):
        lipschitz_wrap(localization_erm, inst, 0.0, [0.0], 0.5, PURE, CFG, RngStream(0))
    with pytest.raises(ValueError):
        localization_erm(inst, [0.0], 0.0, PURE, CFG, RngStream(0))


# ------------------------------------------------------------- epoch growth


def test_growth_step_size_formula_both_branches():
    r0, clipL, n0, beta, d = 2.0, 3.0, 500, 0.05, 4
    lt = math.log(1.0 / beta)
    pure = growth_step_size(r0, clipL, n0, beta, d, PrivacyBudget(2.0, 0.0))
    expect = (r0 / (2.0 * clipL)) * min(
        1.0 / math.sqrt(n0 * math.log(n0) * lt), 2.0 / (d * lt)
    )
    assert pure == expect
    apx = growth_step_size(r0, clipL, n0, beta, d, PrivacyBudget(2.0, 1e-4))
    expect_apx = (r0 / (2.0 * clipL)) * min(
        1.0 / math.sqrt(n0 * math.log(n0) * lt),
        2.0 / (math.sqrt(d * math.log(1e4)) * lt),
    )
    assert apx == expect_apx
    with pytest.raises(ValueError):
        growth_step_size(r0, clipL, n0, 1.0, d, PURE)
    # a zero clip level divided by zero
    with pytest.raises(ValueError, match="^clip level must be a positive real, got 0.0$"):
        growth_step_size(r0, 0.0, n0, beta, d, PURE)


def test_epoch_growth_halves_radius_and_step_per_epoch():
    inst = make_noisy_least_squares(2, 400, [0.5, 0.0], 1.0, 0.5, RngStream(4, 0))
    T = 4
    res = epoch_growth_solver(inst, np.zeros(2), T, 0.1, PURE, CFG, RngStream(4, 1))
    recs = res.trace.epochs
    assert len(recs) == T and len(res.trace.children) == T
    r0 = inst.domain.diameter
    n0 = 400 // T
    for i, rec in enumerate(recs):
        assert rec.diameter == 2.0 * r0 * 2.0 ** (-i)
        assert rec.samples == (i * n0, (i + 1) * n0)
    # the step eta_i halves with the epoch: every child phase noise scale
    # is proportional to eta_i, so consecutive children are in ratio 1/2
    for ca, cb in zip(res.trace.children, res.trace.children[1:]):
        assert cb.epochs[0].noise_scale / ca.epochs[0].noise_scale == 0.5
    # each child's phases stay within the parent block
    for rec, child in zip(recs, res.trace.children):
        for phase in child.epochs:
            assert rec.samples[0] <= phase.samples[0] < phase.samples[1] <= rec.samples[1]


def test_epoch_growth_consumes_disjoint_sample_ranges():
    inst = make_noisy_least_squares(2, 600, [0.5, 0.0], 1.0, 0.5, RngStream(4, 2))
    res = epoch_growth_solver(inst, np.zeros(2), 3, 0.1, PURE, CFG, RngStream(4, 3))
    consumed = []
    for child in res.trace.children:
        consumed.extend(phase.samples for phase in child.epochs)
    consumed.sort()
    for (a, b), (c, _) in zip(consumed, consumed[1:]):
        assert b <= c  # half-open ranges never overlap
    assert consumed[0][0] >= 0 and consumed[-1][1] <= 600


def test_epoch_growth_excess_stays_below_its_stated_bound():
    n, d, beta, T = 2**14, 2, 0.05, 10
    inst = make_noisy_least_squares(d, n, [0.5, 0.0], 1.0, 0.5, RngStream(5, 0), radius=1.0)
    res = epoch_growth_solver(inst, np.zeros(d), T, beta, PURE, CFG, RngStream(5, 1))
    exc = excess_risk(inst, res.point)
    L, r0 = inst.constants.L, inst.domain.diameter
    lt = math.log(1.0 / beta)
    bound = 128.0 * L * r0 * (
        math.sqrt(lt) * math.log(n) ** 1.5 / math.sqrt(n)
        + d * lt * math.log(n) / (n * PURE.eps)
    )
    assert exc < bound
    assert exc < 0.5  # and by a wide margin, not by luck of a loose bound


def test_epoch_growth_degenerate_domain_returns_the_center():
    inst = make_noiseless_least_squares(2, 100, [0.0, 0.0], 1.0)
    inst = replace(inst, domain=Ball(np.zeros(2), 0.0))
    res = epoch_growth_solver(inst, np.zeros(2), 3, 0.1, PURE, CFG, RngStream(0))
    assert np.array_equal(res.point, [0.0, 0.0])
    assert res.trace.note == "degenerate-domain"
    assert res.trace.dropped == 100


def test_epoch_growth_validation():
    inst = make_noiseless_least_squares(1, 10, [0.5], 1.0)
    with pytest.raises(ValueError):
        epoch_growth_solver(inst, [0.0], 0, 0.1, PURE, CFG, RngStream(0))
    with pytest.raises(ValueError):
        epoch_growth_solver(inst, [0.0], 20, 0.1, PURE, CFG, RngStream(0))
    with pytest.raises(ValueError, match="T must be an integer >= 1, got True"):
        epoch_growth_solver(inst, [0.0], True, 0.1, PURE, CFG, RngStream(0))


# ----------------------------------------------------------------- clipping


def test_wrapper_with_slack_clip_is_bitwise_identical():
    n = 512
    inst = make_noisy_least_squares(2, n, [0.5, 0.0], 1.0, 0.5, RngStream(7, 0), radius=1.0)
    L = inst.constants.L
    T = math.ceil(math.log(n))
    wrapped = lipschitz_wrap(
        epoch_growth_solver, inst, L, np.zeros(2), T, 0.05, PURE, CFG, RngStream(11, 1)
    )
    plain = unclipped(epoch_growth_solver)(
        inst, np.zeros(2), T, 0.05, PURE, CFG, RngStream(11, 1)
    )
    assert np.array_equal(wrapped.point, plain.point)
    assert excess_risk(inst, wrapped.point) == excess_risk(inst, plain.point)
    for ca, cb in zip(wrapped.trace.children, plain.trace.children):
        for pa, pb in zip(ca.iterates, cb.iterates):
            assert np.array_equal(pa, pb)


def test_wrapper_with_tight_clip_caps_every_consumed_gradient():
    n = 512
    inst = make_noisy_least_squares(2, n, [0.5, 0.0], 1.0, 0.5, RngStream(7, 0), radius=1.0)
    half = inst.constants.L / 2.0
    with _consumed_norms() as batches:
        res = lipschitz_wrap(
            epoch_growth_solver, inst, half, np.zeros(2), math.ceil(math.log(n)),
            0.05, PURE, CFG, RngStream(11, 1),
        )
    seen = [float(norms.max()) for norms in batches if norms.size]
    assert seen
    assert max(seen) <= half * (1.0 + 1e-12)
    assert res.trace.max_consumed_gradient <= half * (1.0 + 1e-12)
    assert res.trace.max_consumed_gradient == max(seen)


def test_wrapper_changes_nothing_when_clipping_never_triggers():
    # starting at the shared minimizer of an interpolating instance keeps
    # every gradient far below the declared constant, so the clipped and
    # unclipped runs follow the same arithmetic
    inst = make_noiseless_least_squares(2, 128, [0.25, 0.0], 1.0)
    L = inst.constants.L
    wrapped = lipschitz_wrap(
        localization_erm, inst, L, inst.optimum.point, 0.01, PURE, CFG, RngStream(13, 2)
    )
    plain = unclipped(localization_erm)(
        inst, inst.optimum.point, 0.01, PURE, CFG, RngStream(13, 2)
    )
    assert np.array_equal(wrapped.point, plain.point)
    assert excess_risk(inst, wrapped.point) == excess_risk(inst, plain.point)
    assert wrapped.trace.max_consumed_gradient < L


def _leaf_traces(trace):
    if not trace.children:
        return [trace]
    return [leaf for child in trace.children for leaf in _leaf_traces(child)]


def test_wrapper_enforces_a_tight_clip_on_every_solver():
    # every leaf release consumes gradients no larger than the level its
    # noise is calibrated to, on all four solvers, while the same runs
    # without clipping consume larger ones
    inst = make_noisy_least_squares(2, 512, [0.5, 0.0], 1.0, 0.5, RngStream(7, 0), radius=1.0)
    half = inst.constants.L / 2.0
    x0 = np.zeros(2)
    runs = {
        "interpolation": (interpolation_localization,
                          (x0, Schedule(T=3, m=128, beta=0.05, constant_scale=2e-3), PURE, CFG)),
        "adaptive": (adaptive_solver,
                     (x0, Schedule(T=2, m=64, beta=0.05, constant_scale=2e-3), PURE, CFG)),
        "growth": (epoch_growth_solver, (x0, 4, 0.05, PURE, CFG)),
        "erm": (localization_erm, (x0, 0.05, PURE, CFG)),
    }
    for name, (solver, args) in runs.items():
        res = lipschitz_wrap(solver, inst, half, *args, RngStream(3, 1))
        for leaf in _leaf_traces(res.trace):
            level = min(rec.lipschitz for rec in leaf.epochs)
            assert level <= half
            assert leaf.max_consumed_gradient <= level * (1.0 + 1e-12), name
        raw = unclipped(lipschitz_wrap)(solver, inst, half, *args, RngStream(3, 1))
        assert raw.trace.max_consumed_gradient > 1.1 * half, name


def test_the_unclipped_fake_consumes_raw_gradients():
    # on this instance a raw gradient norm exceeds the declared L = 1 by
    # one ulp, so a fake that stopped reaching the releases would show here
    inst = make_margin_classification(3, 256, 0.25, RngStream(2, 0))
    L = inst.constants.L
    run = lambda solver: solver(inst, np.zeros(3), 0.05, PURE, CFG, RngStream(0, 7))
    clipped, raw = run(localization_erm), run(unclipped(localization_erm))
    assert clipped.trace.max_consumed_gradient <= L
    assert raw.trace.max_consumed_gradient > L


def test_the_gradient_descent_fake_refuses_the_closed_form():
    # gradient descent stops at a tolerance, so its iterates leave the
    # closed form's bits; a fake that stopped reaching the block check
    # would leave the run unchanged
    inst = make_noiseless_least_squares(2, 512, [0.5, 0.0], 1.0)
    run = lambda solver: solver(inst, np.zeros(2), 0.05, PURE, CFG, RngStream(0, 7))
    closed, pgd = run(localization_erm), run(gradient_descent_only(localization_erm))
    assert closed.point.tobytes() != pgd.point.tobytes()


def test_wrapper_validation():
    inst = make_noiseless_least_squares(1, 10, [0.5], 1.0)
    with pytest.raises(ValueError):
        lipschitz_wrap(
            localization_erm, inst, math.inf, [0.0], 0.1, PURE, CFG, RngStream(0)
        )
