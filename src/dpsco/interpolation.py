"""Interpolation-regime localization: shrink rules, solvers, schedules.

The driver loop runs T epochs over disjoint blocks of m samples. Epoch i
solves privately inside the current ball (diameter D_i, clip level L_i),
then shrinks:

    D_{i+1} = min(D_i, shrink)        (never loosened)
    L_{i+1} = min(L_i, H * D_{i+1})   (same cap, mirrored)

For quadratic growth (kappa = 2) the shrink is

    c * (L_i / lambda) * max{ sqrt(ln(T/beta)) ln^{3/2}(m) / sqrt(m),
                              md * ln(T/beta) ln(m) / (m eps) }

with md = min(d, sqrt(d ln(1/delta))) (just d when delta = 0) and
c = 256 * constant_scale. For kappa > 2 the same bracket is raised to
the power 1/(kappa - 1) and c = 4 * 2^{12/kappa} * constant_scale, with
md = d for delta = 0 and sqrt(d ln(1/delta)) otherwise (no min).

``default_schedule`` picks (T, m) for a dataset by the block-size rule

    m = constant_scale * 256 ln^2(n) * (H ln(1/beta) / lambda)
        * max{ 256 H / lambda, md / (eps sqrt(ln n)) },
    beta = n^{-mu},  T = n // m,

where md = d for delta = 0 and sqrt(d) * ln(1/delta) otherwise. At
bench scale the rule is usually infeasible at constant_scale = 1; the
error says which scale would fit. ``adaptive_solver`` spends half the
data on a growth run, computes the interpolation-width guess

    D_int = constant_scale * 128 * (L / lambda)
            * ( sqrt(ln(2/beta)) ln^{3/2}(n) / sqrt(n)
                + min(d, sqrt(d ln(1/delta))) ln(2/beta) ln(n) / (n eps) )

(n the full dataset size), and localizes the second half inside the
ball of that diameter around the first phase's output, so its answer
always lands in that ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .base_solvers import (
    InnerSolveConfig,
    SolverResult,
    epoch_growth_solver,
    lipschitz_wrap,
)
from .geometry import Ball, as_point, project_onto_ball
from .mechanisms import as_generator
from .problems import EpochRecord, Instance, PrivacyBudget, RunTrace, Schedule


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


@dataclass(frozen=True)
class ShrinkFormulaParams:
    """Everything the shrink rule needs besides the current clip level.

    ``c`` is the leading constant with constant_scale already folded in
    (256 * scale for quadratic growth, 4 * 2^{12/kappa} * scale beyond).
    """

    c: float
    T: int
    m: int
    beta: float
    d: int
    budget: PrivacyBudget
    growth: float
    kappa: float = 2.0

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"leading constant must be positive, got {self.c}")
        if not (isinstance(self.T, int) and self.T >= 1):
            raise ValueError(f"T must be a positive integer, got {self.T}")
        if not (isinstance(self.m, int) and self.m >= 2):
            raise ValueError(f"block size must be an integer >= 2, got {self.m}")
        if not (0 < self.beta < 1):
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not (isinstance(self.d, int) and self.d >= 1):
            raise ValueError(f"dimension must be a positive integer, got {self.d}")
        if not self.growth > 0:
            raise ValueError(f"growth coefficient must be positive, got {self.growth}")
        if not self.kappa >= 2:
            raise ValueError(f"growth exponent must be at least 2, got {self.kappa}")


def shrink_diameter(L_i: float, p: ShrinkFormulaParams) -> float:
    """Next ball diameter from the current clip level."""
    if not L_i > 0:
        raise ValueError(f"clip level must be positive, got {L_i}")
    log_fail = math.log(p.T / p.beta)
    log_m = math.log(p.m)
    stat = math.sqrt(log_fail) * log_m**1.5 / math.sqrt(p.m)
    eps, delta = p.budget.eps, p.budget.delta
    if p.kappa == 2.0:
        md = min(p.d, math.sqrt(p.d * math.log(1.0 / delta))) if delta > 0 else p.d
        priv = md * log_fail * log_m / (p.m * eps)
        return p.c * (L_i / p.growth) * max(stat, priv)
    md = math.sqrt(p.d * math.log(1.0 / delta)) if delta > 0 else p.d
    priv = md * log_fail * log_m / (p.m * eps)
    bracket = (L_i / p.growth) * max(stat, priv)
    return p.c * bracket ** (1.0 / (p.kappa - 1.0))


def default_inner_epochs(m: int, kappa_floor: float) -> int:
    """Epoch count for the inner growth solver on a block of m samples."""
    if m < 2:
        return 1
    return max(1, min(m, math.ceil(2.0 * math.log(m) / (kappa_floor - 1.0))))


def _localize(
    inst: Instance,
    x0,
    schedule: Schedule,
    budget: PrivacyBudget,
    cfg: InnerSolveConfig,
    rng,
    *,
    kappa: float,
    domain: Ball | None,
    lipschitz: float | None,
    span: tuple[int, int] | None,
    inner_epochs: int | None,
) -> SolverResult:
    x = as_point(x0, inst.d)
    lam = inst.constants.growth
    if not lam > 0:
        raise ValueError("localization needs a positive growth coefficient")
    lo = 0 if span is None else int(span[0])
    hi = inst.n if span is None else int(span[1])
    if not (0 <= lo < hi <= inst.n):
        raise ValueError(f"span {span} out of range for {inst.n} samples")
    n_span = hi - lo
    T, m = schedule.T, schedule.m
    if T * m > n_span:
        raise ValueError(f"schedule needs T*m = {T * m} samples, span has {n_span}")
    start_domain = inst.domain if domain is None else domain
    if kappa == 2.0:
        c = 256.0 * schedule.constant_scale
    else:
        c = 4.0 * 2.0 ** (12.0 / kappa) * schedule.constant_scale
    params = ShrinkFormulaParams(
        c=c, T=T, m=m, beta=schedule.beta, d=inst.d, budget=budget,
        growth=lam, kappa=kappa,
    )
    beta_inner = schedule.beta / T
    t_inner = (
        default_inner_epochs(m, inst.constants.kappa_floor)
        if inner_epochs is None
        else inner_epochs
    )
    if not (isinstance(t_inner, int) and 1 <= t_inner <= m):
        raise ValueError(f"inner epoch count must be an integer in [1, m], got {t_inner}")
    gen = as_generator(rng)

    D = start_domain.diameter
    L = inst.constants.L if lipschitz is None else float(lipschitz)
    if not (L > 0 and math.isfinite(L)):
        raise ValueError(f"clip level must be a positive real, got {L}")
    ball = start_domain
    records: list[EpochRecord] = []
    children: list[RunTrace] = []
    max_consumed = 0.0
    note = ""
    for i in range(1, T + 1):
        block = (lo + (i - 1) * m, lo + i * m)
        inner = lipschitz_wrap(
            epoch_growth_solver, inst, L, x, t_inner, beta_inner, budget, cfg, gen,
            span=block, domain=ball,
        )
        x = inner.point
        children.append(inner.trace)
        max_consumed = max(max_consumed, inner.trace.max_consumed_gradient)
        records.append(
            EpochRecord(
                index=i,
                diameter=D,
                lipschitz=L,
                iterate=x,
                noise_scale=(
                    inner.trace.epochs[-1].noise_scale if inner.trace.epochs else 0.0
                ),
                samples=block,
            )
        )
        if i == T:
            break
        D_next = min(shrink_diameter(L, params), D)
        if not (D_next > 0.0 and math.isfinite(D_next)):
            note = f"early-exit: shrink produced diameter {D_next!r} at epoch {i}"
            break
        D = D_next
        L = min(inst.constants.H * D, L)
        ball = Ball(x, D / 2.0)
    trace = RunTrace(
        epochs=tuple(records),
        dropped=n_span - T * m,
        children=tuple(children),
        max_consumed_gradient=max_consumed,
        note=note,
    )
    return SolverResult(
        point=project_onto_ball(x, start_domain), trace=trace, budget_spent=budget
    )


def interpolation_localization(
    inst: Instance,
    x0,
    schedule: Schedule,
    budget: PrivacyBudget,
    cfg: InnerSolveConfig,
    rng,
    *,
    domain: Ball | None = None,
    lipschitz: float | None = None,
    span: tuple[int, int] | None = None,
    inner_epochs: int | None = None,
) -> SolverResult:
    """Shrinking-ball solver for quadratic-growth interpolation instances.

    Epoch i runs the clipped growth solver on its own m-sample block
    inside the current ball, recenters the ball at the output, and
    shrinks diameter and clip level by the quadratic-growth rule. A
    shrink that underflows to zero ends the run early at the current
    iterate (noted in the trace).
    """
    return _localize(
        inst, x0, schedule, budget, cfg, rng,
        kappa=2.0, domain=domain, lipschitz=lipschitz, span=span,
        inner_epochs=inner_epochs,
    )


def kappa_interpolation(
    inst: Instance,
    x0,
    schedule: Schedule,
    budget: PrivacyBudget,
    cfg: InnerSolveConfig,
    rng,
    *,
    domain: Ball | None = None,
    lipschitz: float | None = None,
    span: tuple[int, int] | None = None,
    inner_epochs: int | None = None,
) -> SolverResult:
    """Localization under kappa-growth, kappa strictly above 2.

    Same loop as :func:`interpolation_localization` with the shrink
    raised to the power 1/(kappa - 1) and leading constant
    4 * 2^{12/kappa} * constant_scale. The exponent tends to 0 as kappa
    grows, so successive diameters approach the leading constant alone.
    """
    kappa = inst.constants.kappa
    if not kappa > 2.0:
        raise ValueError(f"kappa-growth localization needs kappa > 2, got {kappa}")
    return _localize(
        inst, x0, schedule, budget, cfg, rng,
        kappa=kappa, domain=domain, lipschitz=lipschitz, span=span,
        inner_epochs=inner_epochs,
    )


def interpolation_width(
    n: int, constants, d: int, budget: PrivacyBudget, beta: float, constant_scale: float
) -> float:
    """Diameter of the ball the adaptive solver trusts around phase 1."""
    if not (isinstance(n, int) and n >= 2):
        raise ValueError(f"need at least 2 samples, got {n}")
    if not (0 < beta < 1):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    lam = constants.growth
    if not lam > 0:
        raise ValueError("interpolation width needs a positive growth coefficient")
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

    Phase 1 runs the clipped growth solver on the first half of the
    data. Phase 2 localizes the second half inside the ball of diameter
    ``interpolation_width`` around phase 1's output; under interpolation
    that ball traps the optimum with probability 1 - beta, and otherwise
    the ball is tight enough that phase 2 cannot lose much more than a
    constant factor. The failure budget beta is split evenly. The
    returned point always lies in the phase 2 ball.
    """
    x = as_point(x0, inst.d)
    if inst.n < 2:
        raise ValueError("adaptive solver needs at least 2 samples")
    half = inst.n // 2
    beta = schedule.beta
    gen = as_generator(rng)
    t1 = (
        default_inner_epochs(half, inst.constants.kappa_floor)
        if inner_epochs is None
        else inner_epochs
    )
    phase1 = lipschitz_wrap(
        epoch_growth_solver, inst, inst.constants.L, x, t1, beta / 2.0, budget, cfg,
        gen, span=(0, half), domain=inst.domain,
    )
    d_int = interpolation_width(
        inst.n, inst.constants, inst.d, budget, beta, schedule.constant_scale
    )
    # the trust region is the domain intersected with the d_int-ball; a
    # ball centered at the (in-domain) phase 1 point with radius capped
    # at the domain diameter contains that intersection
    trust = Ball(phase1.point, min(d_int / 2.0, inst.domain.diameter))
    phase2 = interpolation_localization(
        inst, phase1.point, replace(schedule, beta=beta / 2.0), budget, cfg, gen,
        domain=trust, lipschitz=inst.constants.L, span=(half, inst.n),
        inner_epochs=inner_epochs,
    )
    trace = RunTrace(
        epochs=(),
        children=(phase1.trace, phase2.trace),
        max_consumed_gradient=max(
            phase1.trace.max_consumed_gradient, phase2.trace.max_consumed_gradient
        ),
        note=f"adaptive: interpolation width {d_int!r}",
    )
    # post-processing: pull the iterate back into the declared domain;
    # projection is 1-Lipschitz around the in-domain trust center, so
    # the point also stays inside the phase 2 ball
    final = project_onto_ball(phase2.point, inst.domain)
    return SolverResult(point=final, trace=trace, budget_spent=budget)


def schedule_block_size(
    n: int, constants, d: int, budget: PrivacyBudget, mu: float, constant_scale: float = 1.0
) -> float:
    """Real-valued block size of the default schedule rule (before rounding)."""
    if not (isinstance(n, int) and n >= 2):
        raise ValueError(f"need at least 2 samples, got {n}")
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not constant_scale > 0:
        raise ValueError(f"constant_scale must be positive, got {constant_scale}")
    lam = constants.growth
    if not lam > 0:
        raise ValueError("the schedule rule needs a positive growth coefficient")
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
    when the rule's block size is not finite (an infinite mu or scale).
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
    if not 0 < beta < 1:
        raise ValueError(f"beta = n^-mu = {beta} must lie in (0, 1)")
    return Schedule(T=n // m, m=m, beta=beta, mu=mu, constant_scale=constant_scale)


def sample_complexity(alpha: float, rho: float, d: int, budget: PrivacyBudget) -> float:
    """Samples sufficient for excess risk alpha under rho-growth scaling:

        alpha^{-rho} + (md / (rho * eps)) * ln(1/alpha),

    md = d for pure DP and sqrt(d ln(1/delta)) otherwise.
    """
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not rho > 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not (isinstance(d, int) and d >= 1):
        raise ValueError(f"dimension must be a positive integer, got {d}")
    eps, delta = budget.eps, budget.delta
    md = math.sqrt(d * math.log(1.0 / delta)) if delta > 0 else float(d)
    return alpha**-rho + (md / (rho * eps)) * math.log(1.0 / alpha)
