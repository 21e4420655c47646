"""Core private solvers.

Three layers, innermost first:

* ``solve_regularized_erm``: minimize the span-average loss plus
  ``(1/(eta n0)) ||x - center||^2`` over a ball. Closed form whenever the
  losses are isotropic quadratics and no gradient inside the ball can
  exceed the clip level; projected gradient descent otherwise.
* ``localization_erm``: k = ceil(ln n) phases on disjoint slices. Phase i
  shrinks the step to eta_i = 2^{-4i} eta, solves the regularized ERM in
  a ball of radius 2 L eta_i n0 around the previous iterate, and releases
  it with per-coordinate noise of scale 4 L eta_i sqrt(d)/eps (Laplace
  for pure DP) or 4 L eta_i sqrt(ln(1/delta))/eps (Gaussian otherwise).
* ``epoch_growth_solver``: T epochs on disjoint blocks of n0 = n/T
  samples; epoch i runs ``localization_erm`` inside a ball of radius
  r_i = 2^{-i} r0 around the current iterate with step eta_i = 2^{-i}
  eta0, where r0 is the domain diameter and

      eta0 = (r0 / 2L) min{ 1/sqrt(n0 ln n0 ln(1/beta)),
                            eps / (d ln(1/beta)) }

  (the d in the second branch becomes sqrt(d ln(1/delta)) when delta>0).

Every sample index is consumed by exactly one phase of one epoch, so a
run is private at its stated budget by parallel composition. Gradients
are clipped at the stated Lipschitz level only under ``lipschitz_wrap``
(``extension=True``); an unwrapped run evaluates raw gradients but still
uses the stated level for radii and noise. Intermediate noisy iterates
are used as-is; only the returned point is projected onto the input
domain (post-processing, so privacy is unaffected). An infinite budget
makes every noise scale zero and the draw is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Ball, Vector, as_point, project_onto_ball
from .losses import batch_ext_gradients
from .mechanisms import (
    approx_noise_scale,
    as_generator,
    gaussian_vector,
    laplace_vector,
    pure_noise_scale,
)
from .problems import EpochRecord, Instance, PrivacyBudget, RunTrace


class ConvergenceError(RuntimeError):
    """Inner solve hit its iteration cap; carries the last gradient norm."""

    def __init__(self, message: str, gradient_norm: float):
        super().__init__(message)
        self.gradient_norm = gradient_norm


@dataclass(frozen=True)
class InnerSolveConfig:
    """Knobs for the regularized ERM solves.

    tolerance is a floor; each phase actually stops at
    max(tolerance, noise_scale/100) since polishing far below the noise
    that is about to be added buys nothing. exact_quadratic enables the
    closed form; gradient_hook, if set, receives every batch of consumed
    gradient norms (the clipping instrument).
    """

    tolerance: float = 1e-9
    max_iterations: int = 100_000
    exact_quadratic: bool = True
    gradient_hook: Callable[[np.ndarray], None] | None = None

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if not (isinstance(self.max_iterations, int) and self.max_iterations >= 1):
            raise ValueError(f"max_iterations must be a positive integer")


@dataclass(frozen=True)
class SolverResult:
    """Returned point (inside the input domain), audit trace, budget."""

    point: Vector
    trace: RunTrace
    budget_spent: PrivacyBudget


def _resolve_span(inst: Instance, span: tuple[int, int] | None) -> tuple[int, int]:
    if span is None:
        return 0, inst.n
    lo, hi = int(span[0]), int(span[1])
    if not (0 <= lo < hi <= inst.n):
        raise ValueError(f"span {span} out of range for {inst.n} samples")
    return lo, hi


def _closed_form_valid(H: float, domain: Ball, anchors: np.ndarray, clip: float) -> bool:
    """True when the quadratic closed form equals the clipped-gradient ERM.

    Sufficient condition: the largest per-sample gradient anywhere in the
    ball, H * (||center - s|| + radius) over the anchors s that pull,
    stays at or below the clip level, so clipping can never activate
    during a solve confined to the ball.
    """
    if math.isinf(clip) or anchors.shape[0] == 0:
        return True
    reach = np.linalg.norm(anchors - domain.center[None, :], axis=1).max() + domain.radius
    return H * reach <= clip


def solve_regularized_erm(
    inst: Instance,
    center,
    eta: float,
    domain: Ball,
    cfg: InnerSolveConfig,
    *,
    span: tuple[int, int] | None = None,
    clip: float = math.inf,
    tolerance: float | None = None,
) -> tuple[Vector, float]:
    """Minimize span-average loss + (1/(eta n0))||x - center||^2 over a ball.

    Returns (minimizer, max consumed gradient norm at the minimizer).
    Raises ConvergenceError when gradient descent cannot reach tolerance
    within cfg.max_iterations.
    """
    center = as_point(center, inst.d)
    if not (eta > 0 and math.isfinite(eta)):
        raise ValueError(f"eta must be a positive real, got {eta}")
    if not clip > 0:
        raise ValueError(f"clip level must be positive, got {clip}")
    lo, hi = _resolve_span(inst, span)
    n0 = hi - lo
    pts = inst.dataset.points[lo:hi]
    labels = inst.dataset.labels[lo:hi] if inst.dataset.labels is not None else None
    reg = 2.0 / (eta * n0)  # gradient coefficient of the proximal term
    tol = cfg.tolerance if tolerance is None else max(tolerance, cfg.tolerance)

    def consumed_at(x: Vector) -> float:
        _, norms = batch_ext_gradients(inst.family, x, pts, labels, clip)
        if cfg.gradient_hook is not None:
            cfg.gradient_hook(norms)
        return float(norms.max()) if norms.size else 0.0

    fam = inst.family
    anchors = fam.anchors(pts) if cfg.exact_quadratic and fam.anchors is not None else None
    if anchors is not None and _closed_form_valid(fam.H, domain, anchors, clip):
        k = anchors.shape[0]
        if k == 0:
            best = project_onto_ball(center, domain)
            return best, consumed_at(best)
        # not fam.weight(k, n0): with k == n0, H * k / n0 can differ from H in
        # the last bit, and this rounding is part of every recorded run
        alpha = fam.H * k / n0
        anchor_mean = anchors.mean(axis=0)
        unconstrained = (alpha * anchor_mean + reg * center) / (alpha + reg)
        best = project_onto_ball(unconstrained, domain)
        return best, consumed_at(best)

    # projected gradient descent; the proximal term makes the objective
    # reg-strongly convex so this contracts linearly
    step = 1.0 / (inst.constants.H + reg)
    x = project_onto_ball(center, domain)
    max_consumed = 0.0
    move = math.inf
    for _ in range(cfg.max_iterations):
        grads, norms = batch_ext_gradients(inst.family, x, pts, labels, clip)
        if cfg.gradient_hook is not None:
            cfg.gradient_hook(norms)
        if norms.size:
            max_consumed = max(max_consumed, float(norms.max()))
        g = grads.mean(axis=0) + reg * (x - center)
        x_next = project_onto_ball(x - step * g, domain)
        move = float(np.linalg.norm(x - x_next)) / step
        x = x_next
        if move <= tol:
            return x, max_consumed
    raise ConvergenceError(
        f"regularized ERM did not reach tolerance {tol:.3e} within "
        f"{cfg.max_iterations} iterations (last projected-gradient norm {move:.3e})",
        gradient_norm=move,
    )


def localization_erm(
    inst: Instance,
    x0,
    eta: float,
    budget: PrivacyBudget,
    cfg: InnerSolveConfig,
    rng,
    *,
    clipL: float,
    span: tuple[int, int] | None = None,
    domain: Ball | None = None,
    extension: bool = False,
) -> SolverResult:
    """Localized private ERM: shrinking phases plus output perturbation.

    k = max(1, ceil(ln n)) phases over disjoint slices of n0 = n // k
    samples (leftovers dropped and recorded in the trace). Noise scales
    in the trace are exactly the stated formulas at the given clip level.
    """
    x = as_point(x0, inst.d)
    if not (clipL > 0 and math.isfinite(clipL)):
        raise ValueError(f"clip level must be a positive real, got {clipL}")
    if not (eta > 0 and math.isfinite(eta)):
        raise ValueError(f"eta must be a positive real, got {eta}")
    lo, hi = _resolve_span(inst, span)
    n_span = hi - lo
    out_domain = inst.domain if domain is None else domain
    k = max(1, math.ceil(math.log(n_span))) if n_span > 1 else 1
    n0 = n_span // k
    if n0 < 1:
        raise ValueError(f"{n_span} samples cannot feed {k} localization phases")
    dropped = n_span - k * n0
    clip = clipL if extension else math.inf
    gen = as_generator(rng)
    gaussian = budget.delta > 0

    records: list[EpochRecord] = []
    max_consumed = 0.0
    for i in range(1, k + 1):
        eta_i = eta * 2.0 ** (-4 * i)
        radius = 2.0 * clipL * eta_i * n0
        ball = Ball(x, radius)
        s_lo = lo + (i - 1) * n0
        s_hi = s_lo + n0
        if gaussian:
            sigma = approx_noise_scale(clipL, eta_i, budget.eps, budget.delta)
        else:
            sigma = pure_noise_scale(clipL, eta_i, inst.d, budget.eps)
        solved, consumed = solve_regularized_erm(
            inst, x, eta_i, ball, cfg, span=(s_lo, s_hi), clip=clip,
            tolerance=sigma / 100.0 if sigma > 0 else None,
        )
        max_consumed = max(max_consumed, consumed)
        if sigma > 0:
            noise = (
                gaussian_vector(sigma, inst.d, gen)
                if gaussian
                else laplace_vector(sigma, inst.d, gen)
            )
            x = solved + noise
        else:
            x = solved
        records.append(
            EpochRecord(
                index=i,
                diameter=2.0 * radius,
                lipschitz=clipL,
                iterate=x,
                noise_scale=sigma,
                samples=(s_lo, s_hi),
            )
        )
    trace = RunTrace(
        epochs=tuple(records), dropped=dropped, max_consumed_gradient=max_consumed
    )
    return SolverResult(
        point=project_onto_ball(x, out_domain), trace=trace, budget_spent=budget
    )


def growth_step_size(
    r0: float, clipL: float, n0: int, beta: float, d: int, budget: PrivacyBudget
) -> float:
    """Initial step of the epoch growth solver (its two-branch minimum)."""
    if not (0 < beta < 1):
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    log_term = math.log(1.0 / beta)
    stat = (
        1.0 / math.sqrt(n0 * math.log(n0) * log_term) if n0 >= 2 else math.inf
    )
    if budget.delta > 0:
        priv = budget.eps / (math.sqrt(d * math.log(1.0 / budget.delta)) * log_term)
    else:
        priv = budget.eps / (d * log_term)
    return (r0 / (2.0 * clipL)) * min(stat, priv)


def epoch_growth_solver(
    inst: Instance,
    x0,
    T: int,
    beta: float,
    budget: PrivacyBudget,
    cfg: InnerSolveConfig,
    rng,
    *,
    clipL: float,
    span: tuple[int, int] | None = None,
    domain: Ball | None = None,
    extension: bool = False,
) -> SolverResult:
    """Epoch solver for growth instances: halving radii and steps.

    Epoch i (0-based) runs ``localization_erm`` on its own block of
    n0 = n // T samples, confined to a ball of radius r_i = 2^{-i} r0
    around the current iterate with step eta_i = 2^{-i} eta0.
    """
    x = as_point(x0, inst.d)
    if not (isinstance(T, int) and T >= 1):
        raise ValueError(f"T must be a positive integer, got {T}")
    if not (clipL > 0 and math.isfinite(clipL)):
        raise ValueError(f"clip level must be a positive real, got {clipL}")
    lo, hi = _resolve_span(inst, span)
    n_span = hi - lo
    n0 = n_span // T
    if n0 < 1:
        raise ValueError(f"{n_span} samples cannot feed {T} epochs")
    out_domain = inst.domain if domain is None else domain
    r0 = out_domain.diameter
    if r0 == 0.0:
        trace = RunTrace(epochs=(), dropped=n_span, note="degenerate-domain")
        return SolverResult(
            point=out_domain.center.copy(), trace=trace, budget_spent=budget
        )
    eta0 = growth_step_size(r0, clipL, n0, beta, inst.d, budget)
    gen = as_generator(rng)

    records: list[EpochRecord] = []
    children: list[RunTrace] = []
    max_consumed = 0.0
    for i in range(T):
        r_i = r0 * 2.0 ** (-i)
        eta_i = eta0 * 2.0 ** (-i)
        ball = Ball(x, r_i)
        block = (lo + i * n0, lo + (i + 1) * n0)
        inner = localization_erm(
            inst, x, eta_i, budget, cfg, gen,
            clipL=clipL, span=block, domain=ball, extension=extension,
        )
        x = inner.point
        children.append(inner.trace)
        max_consumed = max(max_consumed, inner.trace.max_consumed_gradient)
        records.append(
            EpochRecord(
                index=i + 1,
                diameter=2.0 * r_i,
                lipschitz=clipL,
                iterate=x,
                noise_scale=inner.trace.epochs[-1].noise_scale,
                samples=block,
            )
        )
    trace = RunTrace(
        epochs=tuple(records),
        dropped=n_span - T * n0,
        children=tuple(children),
        max_consumed_gradient=max_consumed,
    )
    return SolverResult(
        point=project_onto_ball(x, out_domain), trace=trace, budget_spent=budget
    )


def lipschitz_wrap(solver, inst: Instance, clipL: float, *args, **kwargs) -> SolverResult:
    """Run a solver against the clipL-Lipschitz extension of the losses.

    With clipL at or above the instance's true Lipschitz constant the
    extension never activates and the wrapped run is bit-for-bit the
    unwrapped one; with a smaller clipL every consumed gradient norm is
    capped at clipL.
    """
    if not (clipL > 0 and math.isfinite(clipL)):
        raise ValueError(f"clip level must be a positive real, got {clipL}")
    return solver(inst, *args, clipL=clipL, extension=True, **kwargs)
