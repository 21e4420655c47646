"""Interpolation-regime localization: shrink rules, solvers, schedules.

``localize_plan`` lays out T epochs over disjoint blocks of m samples.
Epoch i runs a growth plan inside the current ball (diameter D_i, clip
level L_i) and the ball is then recentred on its output and shrunk:

    D_{i+1} = min(D_i, shrink)        (never loosened)
    L_{i+1} = min(L_i, H * D_{i+1})   (same cap, mirrored)

For quadratic growth (kappa = 2) the shrink is

    c * (L_i / lambda) * max{ sqrt(ln(T/beta)) ln^{3/2}(m) / sqrt(m),
                              md * ln(T/beta) ln(m) / (m eps) }

with md = min(d, sqrt(d ln(1/delta))) (just d when delta = 0). For
kappa > 2 the same bracket is raised to the power 1/(kappa - 1), with
md = d for delta = 0 and sqrt(d ln(1/delta)) otherwise (no min).
``shrink_diameter`` owns the whole rule, including its leading constant
c, which it takes from the schedule's constant_scale: 256 * scale at
kappa = 2 and 4 * 2^{12/kappa} * scale beyond.
``interpolation_localization`` takes kappa from the instance's declared
constants. ``localize_plan`` sees d, the declared constants, the
schedule and the budget, never the samples, so the whole run is planned
before it starts.

``default_schedule`` picks (T, m) for a dataset by the block-size rule

    m = constant_scale * 256 ln^2(n) * (H ln(1/beta) / lambda)
        * max{ 256 H / lambda, md / (eps sqrt(ln n)) },
    beta = n^{-mu},  T = n // m,

where md = d for delta = 0 and sqrt(d) * ln(1/delta) otherwise. At
bench scale the rule is usually infeasible at constant_scale = 1; the
error says which scale would fit. ``adaptive_solver`` is a two-step
plan: a growth run on half the data, then, with the interpolation-width
guess

    D_int = constant_scale * 128 * (L / lambda)
            * ( sqrt(ln(2/beta)) ln^{3/2}(n) / sqrt(n)
                + min(d, sqrt(d ln(1/delta))) ln(2/beta) ln(n) / (n eps) )

(n the full dataset size), a localization of the second half inside the
ball of that diameter around the first phase's output, so its answer
always lands in that ball. The second step shrinks by the quadratic
rule whatever kappa the instance declares.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .base_solvers import InnerSolveConfig, Plan, SolverResult, _nested, _run, growth_plan
from .geometry import _check_count, _check_positive, _check_probability, as_point
from .problems import Instance, LossConstants, PrivacyBudget, Schedule


class ScheduleInfeasibleError(ValueError):
    """The block-size rule asks for more samples than the dataset has.

    Attributes: ``block_size`` (the real-valued block size the rule
    produced) and ``feasible_scale`` (the largest constant_scale whose
    block size fits the dataset).
    """

    def __init__(self, message: str, block_size: float, feasible_scale: float):
        super().__init__(message)
        self.block_size = block_size
        self.feasible_scale = feasible_scale


def shrink_diameter(
    L_i: float, schedule: Schedule, d: int, budget: PrivacyBudget, growth: float, kappa: float
) -> float:
    """Next ball diameter from the current clip level, by the kappa rule
    at the schedule's T, m, beta and constant_scale (module docstring)."""
    _check_positive("clip level", L_i)
    T, m, beta, scale = schedule.T, schedule.m, schedule.beta, schedule.constant_scale
    _check_count("m", m, lo=2)
    _check_count("d", d)
    _check_positive("growth", growth)
    if not kappa >= 2:
        raise ValueError(f"growth exponent must be at least 2, got {kappa}")
    delta = budget.delta
    if kappa == 2.0:
        c = 256.0 * scale
        md = min(d, math.sqrt(d * math.log(1.0 / delta))) if delta > 0 else d
    else:
        c = 4.0 * 2.0 ** (12.0 / kappa) * scale
        md = math.sqrt(d * math.log(1.0 / delta)) if delta > 0 else d
    _check_positive("c", c)
    log_fail = math.log(T / beta)
    log_m = math.log(m)
    stat = math.sqrt(log_fail) * log_m**1.5 / math.sqrt(m)
    priv = md * log_fail * log_m / (m * budget.eps)
    if kappa == 2.0:
        return c * (L_i / growth) * max(stat, priv)
    bracket = (L_i / growth) * max(stat, priv)
    return c * bracket ** (1.0 / (kappa - 1.0))


def localize_plan(
    d: int,
    constants: LossConstants,
    schedule: Schedule,
    budget: PrivacyBudget,
    kappa: float,
    span: tuple[int, int],
    radius: float,
    inner_epochs: int | None,
) -> Plan:
    """T epochs on m-sample blocks of the span [lo, hi), each a growth
    plan clipped at the current level (first the declared L) in the
    current ball: first the enclosing domain of the given radius, then a
    ball shrunk by the kappa rule around the previous epoch's output. A
    shrink that is zero or not finite ends the plan early (noted)."""
    lam = constants.growth
    _check_positive("growth", lam)
    lo, hi = span
    T, m = schedule.T, schedule.m
    if T * m > hi - lo:
        raise ValueError(f"schedule needs T*m = {T * m} samples, span has {hi - lo}")
    _check_count("m", m, lo=2)
    D = 2.0 * radius
    L = constants.L
    steps, note = [], ""
    for i in range(1, T + 1):
        block = (lo + (i - 1) * m, lo + i * m)
        sub = growth_plan(*block, inner_epochs, schedule.beta / T, L, radius, d, budget)
        steps.append(_nested(block, None if i == 1 else radius, D, L, sub))
        if i == T:
            break
        D_next = min(shrink_diameter(L, schedule, d, budget, lam, kappa), D)
        if not (D_next > 0.0 and math.isfinite(D_next)):
            note = f"early-exit: shrink produced diameter {D_next!r} at epoch {i}"
            break
        D = D_next
        L = min(constants.H * D, L)
        radius = D / 2.0
    return Plan(tuple(steps), hi - lo - T * m, note)


def interpolation_localization(
    inst: Instance,
    x0,
    schedule: Schedule,
    budget: PrivacyBudget,
    cfg: InnerSolveConfig,
    rng,
    *,
    inner_epochs: int | None = None,
) -> SolverResult:
    """Shrinking-ball solver for kappa-growth interpolation instances.

    Runs ``localize_plan`` at the instance's declared kappa: epoch i runs
    a clipped growth plan on its own m-sample block inside the current
    ball, recenters the ball at the output, and shrinks diameter and
    clip level by the kappa rule (the quadratic rule at kappa = 2). A
    shrink that underflows to zero ends the run early at the current
    iterate (noted in the trace).
    """
    x = as_point(x0, inst.d)
    if inner_epochs is not None:
        _check_count("inner_epochs", inner_epochs)
    plan = localize_plan(
        inst.d, inst.constants, schedule, budget, inst.constants.kappa, (0, inst.n),
        inst.domain.radius, inner_epochs,
    )
    return _run(inst, plan, x, budget, cfg, rng)


def interpolation_width(
    n: int, constants, d: int, budget: PrivacyBudget, beta: float, constant_scale: float
) -> float:
    """Diameter of the ball the adaptive solver trusts around phase 1."""
    _check_count("n", n, lo=2)
    _check_count("d", d)
    _check_probability("beta", beta)
    _check_positive("constant_scale", constant_scale)
    lam = constants.growth
    _check_positive("growth", lam)
    log_fail = math.log(2.0 / beta)
    log_n = math.log(n)
    eps, delta = budget.eps, budget.delta
    md = min(d, math.sqrt(d * math.log(1.0 / delta))) if delta > 0 else d
    stat = math.sqrt(log_fail) * log_n**1.5 / math.sqrt(n)
    priv = md * log_fail * log_n / (n * eps)
    return constant_scale * 128.0 * (constants.L / lam) * (stat + priv)


def adaptive_solver(
    inst: Instance,
    x0,
    schedule: Schedule,
    budget: PrivacyBudget,
    cfg: InnerSolveConfig,
    rng,
    *,
    inner_epochs: int | None = None,
) -> SolverResult:
    """Half/half solver that hedges on whether interpolation holds.

    A two-step plan. Phase 1 is a clipped growth run on the first half
    of the data. Phase 2 localizes the second half inside the ball of
    diameter ``interpolation_width`` around phase 1's output; under
    interpolation that ball traps the optimum with probability 1 - beta,
    and otherwise the ball is tight enough that phase 2 cannot lose much
    more than a constant factor. The failure budget beta is split evenly. The
    returned point always lies in the phase 2 ball.
    """
    x = as_point(x0, inst.d)
    if inst.n < 2:
        raise ValueError("adaptive solver needs at least 2 samples")
    if inner_epochs is not None:
        _check_count("inner_epochs", inner_epochs)
    half, L, beta = inst.n // 2, inst.constants.L, schedule.beta
    phase1 = growth_plan(
        0, half, inner_epochs, beta / 2.0, L, inst.domain.radius, inst.d, budget
    )
    d_int = interpolation_width(
        inst.n, inst.constants, inst.d, budget, beta, schedule.constant_scale
    )
    # the trust region is the domain intersected with the d_int-ball; a
    # ball centered at the (in-domain) phase 1 point with radius capped
    # at the domain diameter contains that intersection
    trust = min(d_int / 2.0, inst.domain.diameter)
    phase2 = localize_plan(
        inst.d, inst.constants, replace(schedule, beta=beta / 2.0), budget, 2.0,
        (half, inst.n), trust, inner_epochs,
    )
    steps = (_nested((0, half), None, None, L, phase1),
             _nested((half, inst.n), trust, None, L, phase2))
    plan = Plan(steps, note=f"adaptive: interpolation width {d_int!r}")
    # the executor's last projection pulls the iterate back into the
    # declared domain; projection is 1-Lipschitz around the in-domain
    # trust center, so the point also stays inside the phase 2 ball
    return _run(inst, plan, x, budget, cfg, rng)


def schedule_block_size(
    n: int, constants, d: int, budget: PrivacyBudget, mu: float, constant_scale: float = 1.0
) -> float:
    """Real-valued block size of the default schedule rule (before rounding)."""
    _check_count("n", n, lo=2)
    _check_count("d", d)
    _check_positive("mu", mu)
    _check_positive("constant_scale", constant_scale)
    lam = constants.growth
    _check_positive("growth", lam)
    log_n = math.log(n)
    log_fail = mu * log_n  # ln(1/beta) at beta = n^{-mu}
    eps, delta = budget.eps, budget.delta
    md = math.sqrt(d) * math.log(1.0 / delta) if delta > 0 else float(d)
    inner = max(256.0 * constants.H / lam, md / (eps * math.sqrt(log_n)))
    return constant_scale * 256.0 * log_n**2 * (constants.H * log_fail / lam) * inner


def default_schedule(
    n: int, constants, d: int, budget: PrivacyBudget, mu: float, constant_scale: float = 1.0
) -> Schedule:
    """Schedule from the block-size rule: m = max(2, ceil(rule)), T = n // m.

    Raises ScheduleInfeasibleError when the rule's block exceeds n; the
    error carries the raw block size and the largest feasible
    constant_scale (the rule is linear in the scale). Raises ValueError
    when the rule's block size overflows to infinity (a huge scale).
    """
    raw = schedule_block_size(n, constants, d, budget, mu, constant_scale)
    if not math.isfinite(raw):
        raise ValueError(
            f"block-size rule gives a non-finite block size ({raw}) at n = {n}; "
            f"check mu = {mu} and constant_scale = {constant_scale}"
        )
    m = max(2, math.ceil(raw))
    if m > n:
        feasible = constant_scale * n / raw
        raise ScheduleInfeasibleError(
            f"block-size rule wants m = {m} of n = {n} samples; "
            f"constant_scale <= {feasible:.6g} would fit",
            block_size=raw,
            feasible_scale=feasible,
        )
    beta = float(n) ** (-mu)
    _check_probability("beta = n^-mu", beta)
    return Schedule(T=n // m, m=m, beta=beta, constant_scale=constant_scale)


def sample_complexity(alpha: float, rho: float, d: int, budget: PrivacyBudget) -> float:
    """Samples sufficient for excess risk alpha under rho-growth scaling:

        alpha^{-rho} + (md / (rho * eps)) * ln(1/alpha),

    md = d for pure DP and sqrt(d ln(1/delta)) otherwise. A non-finite
    rho or eps, or a count that overflows, raises ValueError.
    """
    _check_probability("alpha", alpha)
    _check_positive("rho", rho)
    _check_count("d", d)
    eps, delta = budget.eps, budget.delta
    _check_positive("eps", eps)
    md = math.sqrt(d * math.log(1.0 / delta)) if delta > 0 else float(d)
    try:
        samples = alpha**-rho + (md / (rho * eps)) * math.log(1.0 / alpha)
    except OverflowError:  # float ** raises where * and / return inf
        samples = math.inf
    if not math.isfinite(samples):
        raise ValueError(f"sample count overflows at rho = {rho}, eps = {eps}")
    return samples
