"""The scalar rules of ``dpsco.geometry``, applied at every public entry.

Every public function or class that takes a count rejects a bool, the
integer just below its lower bound (and just above its upper bound, if
it has one), -1 and 2.5, each with an error that names the argument,
and gives a numpy integer the same result as the equal int. A positive
real that a formula cannot use at infinity is refused there.
"""

import math

import numpy as np
import pytest

from dpsco import (
    AuditConfig,
    ExperimentConfig,
    InnerSolveConfig,
    LossConstants,
    PrivacyBudget,
    Quadratic1D,
    RngStream,
    Schedule,
    adaptive_solver,
    as_point,
    build_instance,
    default_inner_epochs,
    default_schedule,
    epoch_growth_solver,
    growth_closure_check,
    growth_step_size,
    interpolation_localization,
    interpolation_width,
    make_lower_bound_instance,
    make_margin_classification,
    make_noiseless_least_squares,
    make_noisy_least_squares,
    make_packing,
    modulus_oracle,
    pinch_check,
    noise_scale,
    release_noise,
    run_audit,
    run_oracles,
    run_sweep,
    sample_complexity,
    schedule_block_size,
    shrink_diameter,
    solve_regularized_erm,
    stability_bound_check,
    superefficiency_construct,
)

PURE = PrivacyBudget(1.0)
CFG = InnerSolveConfig()
# 1-D interpolating base of the oracle battery, and a 2-D solver instance
BASE = make_noiseless_least_squares(1, 100, np.zeros(1), 1.0, radius=1.0)
INST = make_noiseless_least_squares(2, 64, [0.5, 0.0], 1.0)
CONSTANTS = INST.constants
SCHED = Schedule(T=2, m=16, beta=0.1)
X0 = np.zeros(2)


def _point(result):
    return result.point.tolist()


def _points(inst):
    return inst.dataset.points.tolist()


def _solve(span):
    x, consumed = solve_regularized_erm(INST, X0, 1.0, INST.domain, CFG, span=span)
    return x.tolist(), consumed


def _shrink(d=2, schedule=SCHED):
    return shrink_diameter(1.0, schedule, d, PURE, 1.0, 2.0)


# (owner, argument, call with the count, a valid count, lower bound, upper bound)
COUNTS = [
    ("as_point", "d", lambda v: as_point([0.5, 0.0], v).tolist(), 2, 1, None),
    # mechanisms
    ("RngStream", "seed", lambda v: RngStream(v).generator().random(3).tolist(), 3, 0, None),
    ("RngStream", "stream", lambda v: RngStream(0, v).generator().random(3).tolist(), 3, 0, None),
    ("release_noise", "d",
     lambda v: release_noise([1.0, 2.0], v, RngStream(0), PURE).tolist(), 2, 0, None),
    ("noise_scale", "d", lambda v: noise_scale(1.0, 1.0, v, PURE), 2, 1, None),
    ("AuditConfig", "trials",
     lambda v: AuditConfig(clamp=(0.0, 1.0), trials=v), 20_000, 10_000, None),
    ("run_audit", "n", lambda v: run_audit(RngStream(0), n=v, trials=10_000), 50, 1, None),
    ("run_audit", "trials", lambda v: run_audit(RngStream(0), trials=v), 10_000, 10_000, None),
    # problems
    ("Schedule", "T", lambda v: Schedule(T=v, m=4, beta=0.1), 2, 1, None),
    ("Schedule", "m", lambda v: Schedule(T=2, m=v, beta=0.1), 4, 1, None),
    # base solvers
    ("InnerSolveConfig", "max_iterations",
     lambda v: InnerSolveConfig(max_iterations=v), 50, 1, None),
    ("default_inner_epochs", "m", lambda v: default_inner_epochs(v), 256, 1, None),
    ("growth_step_size", "n0", lambda v: growth_step_size(2.0, 1.0, v, 0.1, 2, PURE), 64, 1, None),
    ("growth_step_size", "d", lambda v: growth_step_size(2.0, 1.0, 64, 0.1, v, PURE), 2, 1, None),
    ("solve_regularized_erm", "span start", lambda v: _solve((v, 40)), 3, 0, 63),
    ("solve_regularized_erm", "span end", lambda v: _solve((0, v)), 40, 1, 64),
    ("epoch_growth_solver", "T",
     lambda v: _point(epoch_growth_solver(INST, X0, v, 0.1, PURE, CFG, RngStream(0))), 2, 1, None),
    # interpolation
    ("shrink_diameter", "T",
     lambda v: _shrink(schedule=Schedule(T=v, m=16, beta=0.1)), 2, 1, None),
    ("shrink_diameter", "d", lambda v: _shrink(d=v), 2, 1, None),
    ("interpolation_width", "n",
     lambda v: interpolation_width(v, CONSTANTS, 2, PURE, 0.1, 1.0), 256, 2, None),
    ("interpolation_width", "d",
     lambda v: interpolation_width(256, CONSTANTS, v, PURE, 0.1, 1.0), 2, 1, None),
    ("schedule_block_size", "n",
     lambda v: schedule_block_size(v, CONSTANTS, 2, PURE, 1.0), 256, 2, None),
    ("schedule_block_size", "d",
     lambda v: schedule_block_size(256, CONSTANTS, v, PURE, 1.0), 2, 1, None),
    ("default_schedule", "n",
     lambda v: default_schedule(v, CONSTANTS, 2, PURE, 1.0, 1e-6), 4096, 2, None),
    ("default_schedule", "d",
     lambda v: default_schedule(4096, CONSTANTS, v, PURE, 1.0, 1e-6), 2, 1, None),
    ("sample_complexity", "d", lambda v: sample_complexity(0.1, 2.0, v, PURE), 3, 1, None),
    ("interpolation_localization", "inner_epochs",
     lambda v: _point(interpolation_localization(
         INST, X0, SCHED, PURE, CFG, RngStream(0), inner_epochs=v)), 2, 1, None),
    ("adaptive_solver", "inner_epochs",
     lambda v: _point(adaptive_solver(
         INST, X0, SCHED, PURE, CFG, RngStream(0), inner_epochs=v)), 2, 1, None),
    # hardness
    ("make_noiseless_least_squares", "d",
     lambda v: _points(make_noiseless_least_squares(v, 4, [0.5, 0.0], 1.0)), 2, 1, None),
    ("make_noiseless_least_squares", "n",
     lambda v: _points(make_noiseless_least_squares(2, v, [0.5, 0.0], 1.0)), 4, 1, None),
    ("make_noisy_least_squares", "d",
     lambda v: _points(make_noisy_least_squares(v, 4, [0.5, 0.0], 1.0, 0.5, RngStream(0))),
     2, 1, None),
    ("make_noisy_least_squares", "n",
     lambda v: _points(make_noisy_least_squares(2, v, [0.5, 0.0], 1.0, 0.5, RngStream(0))),
     4, 1, None),
    ("make_margin_classification", "d",
     lambda v: _points(make_margin_classification(v, 4, 0.25, RngStream(0))), 2, 1, None),
    ("make_margin_classification", "n",
     lambda v: _points(make_margin_classification(2, v, 0.25, RngStream(0))), 4, 1, None),
    ("make_lower_bound_instance", "d",
     lambda v: _points(make_lower_bound_instance(v, 4, 2, [0.5, 0.0], 1.0)),
     2, 1, None),
    ("make_lower_bound_instance", "n",
     lambda v: _points(make_lower_bound_instance(2, v, 2, [0.5, 0.0], 1.0)),
     4, 1, None),
    ("make_lower_bound_instance", "k",
     lambda v: _points(make_lower_bound_instance(2, 4, v, [0.5, 0.0], 1.0)),
     2, 1, 4),
    ("make_packing", "d", lambda v: make_packing(1.0, 0.25, v).tolist(), 2, 1, 3),
    ("superefficiency_construct", "r",
     lambda v: superefficiency_construct(BASE, v, 1.0).shift, 2, 1, None),
    ("modulus_oracle", "k", lambda v: modulus_oracle(BASE, v).values, 3, 0, 99),
    ("stability_bound_check", "k",
     lambda v: stability_bound_check(BASE, BASE, v, LossConstants(L=2.0, H=1.0, growth=1.0)),
     1, 0, None),
    ("growth_closure_check", "r", lambda v: growth_closure_check(BASE, v), 2, 0, 99),
    # bench
    ("ExperimentConfig", "n_grid entry", lambda v: ExperimentConfig(n_grid=(v,)), 64, 2, None),
    ("ExperimentConfig", "seeds", lambda v: ExperimentConfig(seeds=v), 3, 1, None),
    ("ExperimentConfig", "d", lambda v: ExperimentConfig(d=v), 3, 1, None),
    ("ExperimentConfig", "T", lambda v: ExperimentConfig(T=v), 3, 1, None),
    ("ExperimentConfig", "m", lambda v: ExperimentConfig(m=v), 3, 1, None),
    ("ExperimentConfig", "inner_epochs", lambda v: ExperimentConfig(inner_epochs=v), 3, 1, None),
    ("build_instance", "n",
     lambda v: _points(build_instance(ExperimentConfig(), v, RngStream(0))), 8, 1, None),
    ("run_sweep", "seed_base",
     lambda v: run_sweep(
         ExperimentConfig(solver="localization-erm", n_grid=(64,), seeds=1), seed_base=v
     ), 1, 0, None),
    ("run_oracles", "seed", run_oracles, 1, 0, None),
]


def _bad_counts(lo, hi):
    bad = [True, lo - 1, -1, 2.5]
    return bad if hi is None else bad + [hi + 1]


@pytest.mark.parametrize(
    "owner, argument, call, good, lo, hi", COUNTS, ids=[f"{c[0]}-{c[1]}" for c in COUNTS]
)
def test_every_count_is_an_integer_and_never_a_bool(owner, argument, call, good, lo, hi):
    # before the shared rule, True passed for 1 in most of these (RngStream(True)
    # replayed RngStream(1)), and some refused numpy integers
    assert call(np.int64(good)) == call(good)
    within = f">= {lo}" if hi is None else f"in {lo}..{hi}"
    for value in _bad_counts(lo, hi):
        message = f"{argument} must be an integer {within}, got {value!r}"
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(value)


def test_the_shrink_rule_needs_two_samples_per_block():
    # a Schedule allows m = 1 (and refuses True with ">= 1" first), so this
    # bound cannot be a COUNTS row; the plan checks it before its first epoch,
    # even on a one-epoch schedule that never shrinks
    message = "^m must be an integer >= 2, got 1$"
    one = Schedule(T=2, m=1, beta=0.1)
    with pytest.raises(ValueError, match=message):
        shrink_diameter(1.0, one, 2, PURE, 1.0, 2.0)
    for T in (1, 2):
        with pytest.raises(ValueError, match=message):
            interpolation_localization(INST, X0, Schedule(T=T, m=1, beta=0.1), PURE, CFG,
                                       RngStream(0))
    two = Schedule(T=2, m=np.int64(2), beta=0.1)
    assert shrink_diameter(1.0, two, 2, PURE, 1.0, 2.0) == shrink_diameter(
        1.0, Schedule(T=2, m=2, beta=0.1), 2, PURE, 1.0, 2.0
    )


@pytest.mark.parametrize(
    "build, message",
    [
        # each went on with a meaningless value before the rule was shared
        pytest.param(lambda: make_packing(D=math.inf, gamma=0.25, d=1),
                     "D must be a positive real, got inf", id="packing-D"),  # OverflowError
        pytest.param(lambda: pinch_check(Quadratic1D(math.inf, 0.0), Quadratic1D(1.0, 1.0)),
                     "coef must be a positive real, got inf", id="pinch-coef"),  # a NaN report
        pytest.param(lambda: pinch_check(Quadratic1D(1.0, math.inf), Quadratic1D(1.0, 0.0)),
                     "point has non-finite coordinates", id="pinch-minimizer"),  # a NaN report
        # the step came out infinite, or zero
        pytest.param(lambda: growth_step_size(math.inf, 1.0, 64, 0.1, 2, PURE),
                     "r0 must be a positive real, got inf", id="growth-step-r0"),
        pytest.param(lambda: growth_step_size(2.0, math.inf, 64, 0.1, 2, PURE),
                     "clip level must be a positive real, got inf", id="growth-step-clip"),
        # the shrink exponent 1/(kappa - 1) fell to 0
        pytest.param(lambda: LossConstants(L=1.0, H=1.0, growth=1.0, kappa=math.inf),
                     "kappa must be a positive real, got inf", id="constants-kappa"),
        # the schedule ran with no shrink and no note
        pytest.param(lambda: Schedule(T=2, m=16, beta=0.1, constant_scale=math.inf),
                     "constant_scale must be a positive real, got inf", id="schedule-scale"),
        # the noise scales came out infinite
        pytest.param(lambda: noise_scale(math.inf, 1.0, 2, PURE),
                     "L must be a positive real, got inf", id="pure-L"),
        pytest.param(lambda: noise_scale(1.0, math.inf, 2, PURE),
                     "eta must be a positive real, got inf", id="pure-eta"),
        pytest.param(lambda: noise_scale(math.inf, 1.0, 2, PrivacyBudget(1.0, 1e-6)),
                     "L must be a positive real, got inf", id="approx-L"),
        pytest.param(lambda: noise_scale(1.0, math.inf, 2, PrivacyBudget(1.0, 1e-6)),
                     "eta must be a positive real, got inf", id="approx-eta"),
        # the shrink's leading constant 256 * constant_scale overflowed
        pytest.param(lambda: shrink_diameter(
                         1.0, Schedule(T=2, m=16, beta=0.1, constant_scale=1e307), 2, PURE, 1.0,
                         2.0),
                     "c must be a positive real, got inf", id="shrink-c"),
    ],
)
def test_an_infinite_real_that_means_nothing_is_refused(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_the_two_infinite_reals_keep_their_meaning():
    # an infinite budget draws no noise, an infinite clip level clips nothing
    assert noise_scale(1.0, 1.0, 2, PrivacyBudget(math.inf)) == 0.0
    assert noise_scale(1.0, 1.0, 2, PrivacyBudget(math.inf, 1e-6)) == 0.0
    assert PrivacyBudget(math.inf).eps == math.inf
    for bad in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="^eps must be a positive real"):
            PrivacyBudget(bad)
