"""Core private solvers: run plans and the one executor that walks them.

A run is a plan fixed before any sample is read: a tree whose leaves are
noisy releases. Each release's sample span, ball radius, clip level,
step and noise scale follow from n, the schedule, the budget and the
declared constants alone, never from the iterates or the noise drawn.
``_execute`` walks the tree. Each step recentres a ball on the current
iterate (or keeps the enclosing domain), then either solves its phase
and adds noise or runs its nested plan inside that ball and projects
back onto it, and writes its ``EpochRecord``. Innermost first:

* ``solve_regularized_erm``: one phase. Minimize the span-average loss
  plus ``(1/(eta n0)) ||x - center||^2`` over a ball. Closed form whenever
  the losses are isotropic quadratics and no gradient inside the ball
  can exceed the clip level; projected gradient descent otherwise.
* ``erm_plan`` (``localization_erm``): k = ceil(ln n) releases on
  disjoint slices. Release i shrinks the step to eta_i = 2^{-4i} eta,
  solves the regularized ERM in a ball of radius 2 L eta_i n0 around the
  previous iterate, and adds per-coordinate noise of scale
  ``noise_scale``: 4 L eta_i sqrt(d)/eps (Laplace for pure DP) or
  4 L eta_i sqrt(ln(1/delta))/eps (Gaussian otherwise).
* ``growth_plan`` (``epoch_growth_solver``): T epochs on disjoint blocks
  of n0 = n/T samples; epoch i runs an ``erm_plan`` inside a ball of
  radius r_i = 2^{-i} r0 around the current iterate with step
  eta_i = 2^{-i} eta0, where r0 is the domain diameter and

      eta0 = (r0 / 2L) min{ 1/sqrt(n0 ln n0 ln(1/beta)),
                            eps / (d ln(1/beta)) }

  (the d in the second branch becomes sqrt(d ln(1/delta)) when delta>0).

Every sample index is consumed by exactly one release, so a run is
private at its stated budget by parallel composition. Every release
clips the gradients it consumes at the level its radius and noise are
calibrated to: the instance's declared L, or the lower level a shrink
rule sets. Intermediate noisy iterates are used as-is; only the end of
a nested plan is projected onto its ball, and the returned point onto
the input domain (post-processing, so privacy is unaffected). An
infinite budget makes every noise scale zero and the draw is skipped.

Inputs are validated once, at entry: the public solvers check x0 and
the plan builders check every release, so ``_execute`` builds no
``Ball`` and solves every phase on raw arrays and raw (center, radius)
balls. ``_releases`` walks the releases of one ``erm_plan`` as a block:
it chains their closed forms with no pass over the rows, checks the
whole chain in one batched pass (``_closed_form_count``), and solves a
release that fails the check by the one gradient-descent loop
(``_phase``) before it resumes. The noise of a whole run is drawn
before its first phase, in one ``release_noise`` batch over the
releases with sigma > 0 in run order (depth first). That batch equals
the per-release draws bit for bit, but a caller-supplied ``Generator``
advances by the whole run's draw even when a phase raises.

A solver runs on its whole instance: all n samples, the instance's
domain and its declared Lipschitz level. To run on a sub-span, inside a
sub-ball or at another level, build that instance with
``dataclasses.replace`` (a new ``Dataset``, ``domain``, or
``constants`` with another L, and ``optimum=None``); ``lipschitz_wrap``
builds the last for any solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import (
    Ball, Vector, _check_count, _check_positive, _check_probability, _project, as_point,
)
from .losses import _row_norms, clip_gradients
from .mechanisms import noise_scale, release_noise
from .problems import EpochRecord, Instance, PrivacyBudget, RunTrace


class ConvergenceError(RuntimeError):
    """Inner solve hit its iteration cap; carries the last gradient norm."""

    def __init__(self, message: str, gradient_norm: float):
        super().__init__(message)
        self.gradient_norm = gradient_norm


@dataclass(frozen=True)
class InnerSolveConfig:
    """Stopping rule of gradient-descent phases.

    tolerance is a floor; each phase actually stops at
    max(tolerance, noise_scale/100) since polishing far below the noise
    that is about to be added buys nothing. A phase that has not stopped
    after max_iterations steps raises ``ConvergenceError``.
    """

    tolerance: float = 1e-9
    max_iterations: int = 100_000

    def __post_init__(self):
        _check_positive("tolerance", self.tolerance)
        _check_count("max_iterations", self.max_iterations)


@dataclass(frozen=True)
class SolverResult:
    """Returned point (inside the instance's domain) and audit trace."""

    point: Vector
    trace: RunTrace


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
    within cfg.max_iterations. This is the executor's release walk on a
    block of one release, without noise. The clip level is a positive
    real that may also be infinite: no clipping, the default.
    """
    center = as_point(center, inst.d)
    if domain.d != inst.d:
        raise ValueError(f"domain has dimension {domain.d}, expected {inst.d}")
    _check_positive("eta", eta)
    if clip != math.inf:
        _check_positive("clip level", clip)
    if tolerance is not None:
        _check_positive("tolerance", tolerance)
    lo, hi = (0, inst.n) if span is None else span
    _check_count("span start", lo, lo=0, hi=inst.n - 1)
    _check_count("span end", hi, lo=lo + 1, hi=inst.n)
    step = Step((lo, hi), None, None, clip, 0.0, eta)
    (x,), (consumed,) = _releases(
        inst, (step,), center, domain.center, domain.radius, cfg, iter(()), tolerance
    )
    return x, consumed


def _closed_form_count(H, block, pulls, empty, centers, radii, clip) -> int:
    """How many leading releases of a block the quadratic closed form
    solves exactly.

    Release i qualifies when it has no anchor (``empty[i]``) or when the
    largest per-sample gradient anywhere in its ball (centers[i],
    radii[i]), H * (max_s ||s - centers[i]|| + radii[i]) over the rows s
    of its slice of ``block`` that pull, is at most ``clip``: clipping
    can then never activate during a solve confined to the ball.
    """
    dist = np.where(pulls, _row_norms(block - centers[:, None, :]), 0.0)
    reaches = np.maximum.reduce(dist, axis=1).tolist()
    for i, (reach, r, no_anchor) in enumerate(zip(reaches, radii, empty)):
        if not (no_anchor or H * (reach + r) <= clip):
            return i
    return len(radii)


def _releases(inst, steps, x, center, radius, cfg, noise, tolerance=None):
    """Solve the releases of one ``erm_plan`` in order from x: the one
    place a release is solved and noised.

    The releases lie on equal, contiguous slices of n0 rows and clip at
    one level. A release with ``radius`` None solves in the ball (center,
    radius); otherwise in the ball of its radius around the current
    iterate. ``noise`` yields the pre-drawn rows of the releases with
    sigma > 0, one per release in release order; a release with sigma 0
    runs gradient descent to ``tolerance`` (or ``cfg``'s).

    On an anchor family the releases are walked as one block. The chain
    of closed forms (alpha_i m_i + reg_i x)/(alpha_i + reg_i), each
    projected onto its ball and noised, needs no pass over the rows;
    ``_closed_form_count`` then checks every release of the chain at
    once. The accepted releases are kept, and their consumed gradients
    go through ``clip_gradients`` in one batch. The first rejected
    release runs gradient descent (``_phase``) from the same iterate,
    with its own noise row, and the walk resumes after it. The hinge has
    no anchors, so every release runs gradient descent.

    Returns each release's iterate (noise added) and the largest
    gradient norm it consumed.
    """
    fam, k, clip = inst.family, len(steps), steps[0].clip
    lo, n0 = steps[0].span[0], steps[0].span[1] - steps[0].span[0]
    rows = [next(noise) if step.sigma > 0 else None for step in steps]
    radii = [radius if step.radius is None else step.radius for step in steps]
    iterates, consumed = [], []
    if fam.anchors is not None:
        block = inst.dataset.points[lo:lo + k * n0].reshape(k, n0, inst.d)
        means, counts, pulls = fam.block_anchors(block)
        # not fam.weight(k, n0): with k == n0, H * k / n0 can differ from H
        # in the last bit, and this rounding is part of every recorded run
        alpha = [fam.H * count / n0 for count in counts]
        pull = np.array(alpha)[:, None] * means
        regs = [2.0 / (step.eta * n0) for step in steps]  # proximal gradient coefficients
        empty = [count == 0 for count in counts]
    i = 0
    while i < k:
        j = i
        if fam.anchors is not None:
            y, centers, bests, chain = x, [], [], []
            for m in range(i, k):
                c = center if steps[m].radius is None else y
                target = y if empty[m] else (pull[m] + regs[m] * y) / (alpha[m] + regs[m])
                best = _project(target, c, radii[m])
                y = best if rows[m] is None else best + rows[m]
                centers.append(c)
                bests.append(best)
                chain.append(y)
            j += _closed_form_count(fam.H, block[i:], pulls[i:], empty[i:], np.array(centers),
                                    radii[i:], clip)
            if j > i:
                grads = fam.gradients(np.array(bests[:j - i]), block[i:j])
                _, norms = clip_gradients(grads.reshape(-1, inst.d), clip)
                consumed += np.maximum.reduce(norms.reshape(j - i, n0), axis=1).tolist()
                iterates += chain[:j - i]
                x = iterates[-1]
        if j < k:
            step = steps[j]
            c = center if step.radius is None else x
            tol = step.sigma / 100.0 if step.sigma > 0 else tolerance
            x, used = _phase(inst, x, step.eta, c, radii[j], cfg, *step.span, clip, tol)
            if rows[j] is not None:
                x = x + rows[j]
            iterates.append(x)
            consumed.append(used)
        i = j + 1
    return iterates, consumed


def _phase(inst, center, eta, ball_center, radius, cfg, lo, hi, clip, tolerance):
    """One release by projected gradient descent on validated inputs and a
    raw ball; the proximal term makes the objective reg-strongly convex,
    so this contracts linearly."""
    pts = inst.dataset.points[lo:hi]
    labels = inst.dataset.labels[lo:hi] if inst.dataset.labels is not None else None
    reg = 2.0 / (eta * (hi - lo))  # gradient coefficient of the proximal term
    tol = cfg.tolerance if tolerance is None else max(tolerance, cfg.tolerance)
    fam = inst.family
    step = 1.0 / (inst.constants.H + reg)
    x = _project(center, ball_center, radius)
    max_consumed = 0.0
    move = math.inf
    for _ in range(cfg.max_iterations):
        grads, norms = clip_gradients(fam.gradients(x, pts, labels), clip)
        if norms.size:
            max_consumed = max(max_consumed, float(norms.max()))
        g = grads.mean(axis=0) + reg * (x - center)
        x_next = _project(x - step * g, ball_center, radius)
        move = float(np.linalg.norm(x - x_next)) / step
        x = x_next
        if move <= tol:
            return x, max_consumed
    raise ConvergenceError(
        f"regularized ERM did not reach tolerance {tol:.3e} within "
        f"{cfg.max_iterations} iterations (last projected-gradient norm {move:.3e})",
        gradient_norm=move,
    )


@dataclass(frozen=True)
class Step:
    """One entry of a run plan.

    A release (``sub`` None) solves the regularized ERM on ``span`` with
    step ``eta`` in a ball of ``radius`` around the current iterate,
    clipping gradients at ``clip``, and adds noise of scale ``sigma``
    calibrated at that level.
    Otherwise the step runs the nested plan ``sub`` in that ball.
    ``radius`` None keeps the enclosing domain; ``diameter`` is what the
    step's EpochRecord reports, and None writes no record.
    """

    span: tuple[int, int]
    radius: float | None
    diameter: float | None
    clip: float
    sigma: float
    eta: float = 0.0
    sub: Plan | None = None


@dataclass(frozen=True)
class Plan:
    """Steps in run order, samples the run leaves unused, trace note."""

    steps: tuple[Step, ...]
    dropped: int = 0
    note: str = ""


def _nested(span: tuple[int, int], radius, diameter, clip: float, sub: Plan) -> Step:
    """A step running ``sub``; its record reports the last release's noise."""
    sigma = sub.steps[-1].sigma if sub.steps else 0.0
    return Step(span, radius, diameter, clip, sigma, sub=sub)


def erm_plan(lo: int, hi: int, eta: float, clipL: float, d: int, budget: PrivacyBudget) -> Plan:
    """k = max(1, ceil(ln n)) releases over disjoint slices of n0 = n // k
    samples of [lo, hi); the leftovers are dropped."""
    _check_positive("clip level", clipL)
    _check_positive("eta", eta)
    n_span = hi - lo
    k = max(1, math.ceil(math.log(n_span))) if n_span > 1 else 1
    n0 = n_span // k
    steps = []
    for i in range(1, k + 1):
        eta_i = eta * 2.0 ** (-4 * i)
        span = (lo + (i - 1) * n0, lo + i * n0)
        if eta_i == 0.0 or math.isinf(2.0 / (eta_i * n0)):
            raise ValueError(
                f"release {span}: step {eta_i!r} overflows the proximal coefficient "
                "2/(eta n0); the step or the schedule's constant_scale is too small"
            )
        radius = 2.0 * clipL * eta_i * n0
        steps.append(
            Step(span, radius, 2.0 * radius, clipL, noise_scale(clipL, eta_i, d, budget), eta_i)
        )
    return Plan(tuple(steps), n_span - k * n0)


def default_inner_epochs(m: int) -> int:
    """Epoch count for the inner growth solver on a block of m samples:
    2 ln(m) / (kappa - 1) at the growth-exponent floor kappa = 2, which
    lies in [1, m] for every m >= 2."""
    _check_count("m", m)
    if m < 2:
        return 1
    return math.ceil(2.0 * math.log(m))


def growth_step_size(
    r0: float, clipL: float, n0: int, beta: float, d: int, budget: PrivacyBudget
) -> float:
    """Initial step of the epoch growth solver (its two-branch minimum)."""
    _check_positive("r0", r0)
    _check_positive("clip level", clipL)
    _check_count("n0", n0)
    _check_probability("beta", beta)
    _check_count("d", d)
    log_term = math.log(1.0 / beta)
    stat = (
        1.0 / math.sqrt(n0 * math.log(n0) * log_term) if n0 >= 2 else math.inf
    )
    if budget.delta > 0:
        priv = budget.eps / (math.sqrt(d * math.log(1.0 / budget.delta)) * log_term)
    else:
        priv = budget.eps / (d * log_term)
    return (r0 / (2.0 * clipL)) * min(stat, priv)


def growth_plan(
    lo: int, hi: int, T: int | None, beta: float, clipL: float, radius: float,
    d: int, budget: PrivacyBudget,
) -> Plan:
    """T epochs (``default_inner_epochs`` when None) on blocks of
    n0 = n // T samples of [lo, hi), in a domain of the given radius."""
    n_span = hi - lo
    if T is None:
        T = default_inner_epochs(n_span)
    _check_count("T", T)
    _check_positive("clip level", clipL)
    n0 = n_span // T
    if n0 < 1:
        raise ValueError(f"{n_span} samples cannot feed {T} epochs")
    r0 = 2.0 * radius
    if r0 == 0.0:
        return Plan((), n_span, "degenerate-domain")
    eta0 = growth_step_size(r0, clipL, n0, beta, d, budget)
    steps = []
    for i in range(T):
        r_i = r0 * 2.0 ** (-i)
        block = (lo + i * n0, lo + (i + 1) * n0)
        sub = erm_plan(*block, eta0 * 2.0 ** (-i), clipL, d, budget)
        steps.append(_nested(block, r_i, 2.0 * r_i, clipL, sub))
    return Plan(tuple(steps), n_span - T * n0)


def _leaf_sigmas(plan: Plan) -> list[float]:
    """Noise scales of the releases that draw noise, in run order."""
    sigmas = []
    for step in plan.steps:
        if step.sub is not None:
            sigmas += _leaf_sigmas(step.sub)
        elif step.sigma > 0:
            sigmas.append(step.sigma)
    return sigmas


def _execute(inst, plan, x, center, radius, cfg, noise):
    """Walk ``plan`` from x inside the ball (center, radius): the one
    place a step is recorded. A plan's steps are all releases (an
    ``erm_plan``, solved by ``_releases``) or all nested plans.
    ``noise`` yields the run's pre-drawn noise rows in release order.
    Returns the end point projected onto the ball (its centre for an
    empty plan) and the run's trace."""
    if not plan.steps:
        return center.copy(), RunTrace(epochs=(), dropped=plan.dropped, note=plan.note)
    children = []
    if plan.steps[0].sub is None:
        iterates, consumed = _releases(inst, plan.steps, x, center, radius, cfg, noise)
    else:
        iterates, consumed = [], []
        for step in plan.steps:
            c, r = (center, radius) if step.radius is None else (x, step.radius)
            x, child = _execute(inst, step.sub, x, c, r, cfg, noise)
            iterates.append(x)
            children.append(child)
            consumed.append(child.max_consumed_gradient)
    records = tuple(
        EpochRecord(index, step.diameter, step.clip, it, step.sigma, step.span)
        for index, (step, it) in enumerate(zip(plan.steps, iterates), start=1)
        if step.diameter is not None
    )
    trace = RunTrace(records, plan.dropped, tuple(children), max([0.0, *consumed]), plan.note)
    return _project(iterates[-1], center, radius), trace


def _run(inst, plan, x, budget, cfg, rng) -> SolverResult:
    """Execute a top-level plan from a validated x inside the instance's
    domain, with every release's noise drawn up front in one batch."""
    noise = release_noise(_leaf_sigmas(plan), inst.d, rng, budget)
    point, trace = _execute(
        inst, plan, x, inst.domain.center, inst.domain.radius, cfg, iter(noise)
    )
    return SolverResult(point=point, trace=trace)


def localization_erm(
    inst: Instance,
    x0,
    eta: float,
    budget: PrivacyBudget,
    cfg: InnerSolveConfig,
    rng,
) -> SolverResult:
    """Localized private ERM: shrinking phases plus output perturbation.

    Runs ``erm_plan``: k = max(1, ceil(ln n)) phases over disjoint slices
    of n0 = n // k samples (leftovers dropped and recorded in the trace).
    Noise scales in the trace are exactly the stated formulas at the
    instance's declared L, the level every phase clips at.
    """
    x = as_point(x0, inst.d)
    plan = erm_plan(0, inst.n, eta, inst.constants.L, inst.d, budget)
    return _run(inst, plan, x, budget, cfg, rng)


def epoch_growth_solver(
    inst: Instance,
    x0,
    T: int,
    beta: float,
    budget: PrivacyBudget,
    cfg: InnerSolveConfig,
    rng,
) -> SolverResult:
    """Epoch solver for growth instances: halving radii and steps.

    Runs ``growth_plan`` at the instance's declared L: epoch i (0-based)
    localizes on its own block of n0 = n // T samples, confined to a ball
    of radius r_i = 2^{-i} r0 around the current iterate with step
    eta_i = 2^{-i} eta0.
    """
    x = as_point(x0, inst.d)
    _check_count("T", T)  # None too: the default epoch count is for nested runs only
    plan = growth_plan(
        0, inst.n, T, beta, inst.constants.L, inst.domain.radius, inst.d, budget
    )
    return _run(inst, plan, x, budget, cfg, rng)


def lipschitz_wrap(solver, inst: Instance, clipL: float, *args, **kwargs) -> SolverResult:
    """Run any solver at clip level clipL instead of the declared L.

    A solver clips at and calibrates its noise to its instance's declared
    L, so the run is on ``inst`` itself when clipL is that L and on the
    instance redeclared at clipL otherwise. Below the losses' true
    Lipschitz constant, every consumed gradient norm is capped at clipL.
    """
    _check_positive("clip level", clipL)
    if clipL != inst.constants.L:
        inst = replace(inst, constants=replace(inst.constants, L=clipL))
    return solver(inst, *args, **kwargs)
