"""Core private solvers: run plans and the one executor that walks them.

A run is a plan fixed before any sample is read: a tree whose leaves are
noisy releases. Each release's sample span, ball radius, clip level,
step and noise scale follow from n, the schedule, the budget and the
declared constants alone, never from the iterates or the noise drawn.
Each step recentres a ball on the current iterate (or keeps the
enclosing domain), then either solves its phase and adds noise or runs
its nested plan inside that ball and projects back onto it. The run's
trace records the plan's own steps. Innermost first:

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
the plan builders check every release, so the executor builds no
``Ball`` and solves every phase on raw arrays and raw (center, radius)
balls. A run is walked as one block, across leaf and nested-plan
boundaries. ``_flatten`` lays the tree out in run order (depth first):
its releases, and between them the frame ops that enter a nested
plan's ball and leave it, where leaving projects the iterate onto the
ball. ``_execute`` walks that layout in windows of releases: it chains
their closed forms and the frame ops between them with no pass over
the rows, checks the whole window in one batched pass per segment of
at most ``_SEGMENT_ROWS`` rows (``_certify``), and solves the first
release that fails the check by the one gradient-descent loop
(``_phase``) before it resumes. The first window is the whole run;
after a rejection a window is one release, doubling after each fully
accepted one. ``_trace`` then pairs the plan's steps with the walk's
iterates, building no object per step. The noise of a whole run is
drawn before its first phase, in one ``release_noise`` batch over the
releases with a positive noise scale, in run order. That batch equals
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
from itertools import groupby, islice
from typing import NamedTuple

import numpy as np

from .geometry import (
    Ball, Vector, _check_count, _check_positive, _check_probability, _project, as_point,
)
from .losses import _row_norms, clip_gradients
from .mechanisms import noise_scale, release_noise
from .problems import Instance, PrivacyBudget, RunTrace


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
    within cfg.max_iterations. This is the executor's walk on a run of
    one release, without noise. The clip level is a positive real that
    may also be infinite: no clipping, the default.
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
    flat = _flatten(Plan((Step((lo, hi), None, None, clip, 0.0, eta),)))
    (x,), (consumed,), _ = _execute(
        inst, flat, center, domain.center, domain.radius, cfg, (), tolerance
    )
    return x, consumed


def _closed_form_count(H, block, pulls, empty, centers, radii, clips) -> int:
    """How many leading releases of a block the quadratic closed form
    solves exactly.

    Release i qualifies when it has no anchor (``empty[i]``) or when the
    largest per-sample gradient anywhere in its ball (centers[i],
    radii[i]), H * (max_s ||s - centers[i]|| + radii[i]) over the rows s
    of its slice of ``block`` that pull, is at most its clip level
    ``clips[i]``: clipping can then never activate during a solve
    confined to the ball.
    """
    dist = np.where(pulls, _row_norms(block - centers[:, None, :]), 0.0)
    reaches = np.maximum.reduce(dist, axis=1).tolist()
    for i, (reach, r, clip, no_anchor) in enumerate(zip(reaches, radii, clips, empty)):
        if not (no_anchor or H * (reach + r) <= clip):
            return i
    return len(radii)


class _Frames:
    """The balls a run's walk is inside: frame 0 is the run's own ball,
    frame g > 0 the ball of its g-th nested plan in run order. Radii are
    fixed by the plan; a centre is set when the walk enters the frame."""

    def __init__(self, spec, center, radius):
        self.spec = spec
        self.center = [center] * len(spec)
        self.radius = [radius]
        for parent, r, _ in spec[1:]:
            self.radius.append(self.radius[parent] if r is None else r)
        self.exits = [None] * len(spec)  # each frame's end point, once left

    def step(self, op, y):
        """Apply one frame op to the iterate y and return the new iterate.
        Op g > 0 enters frame g: its centre is y, or the enclosing centre
        when the nested step has no radius of its own. Op ~g leaves frame
        g: y is projected onto its ball (an empty plan ends at the
        centre instead)."""
        if op > 0:
            parent, r, _ = self.spec[op]
            self.center[op] = self.center[parent] if r is None else y
            return y
        f = ~op
        if self.spec[f][2]:
            y = self.center[f].copy()
        else:
            y = _project(y, self.center[f], self.radius[f])
        self.exits[f] = y
        return y


# rows per segment: the walk's batched temporaries stay a few hundred KB
_SEGMENT_ROWS = 4096


class _Anchors:
    """A run's releases on an anchor family, prepared for the closed form.
    Each maximal stretch of releases with one slice length n0 and at most
    ``_SEGMENT_ROWS`` rows is a segment ``(first, end, starts, pulls)``:
    releases first..end-1, their slices' first rows and the (end - first,
    n0) mask of the rows that pull. Per release it holds the anchor pull
    alpha m (a row of ``pull``), the proximal coefficient reg, the
    denominator alpha + reg, whether the slice has no anchor, its ball
    radius and its clip level."""

    def __init__(self, inst, leaves, radii):
        fam = inst.family
        self.family, self.points, self.radii = fam, inst.dataset.points, radii
        self.clips = [step.lipschitz for step in leaves]
        self.segments, self.segment = [], []
        pull, self.regs, self.dens, self.empty = [], [], [], []
        first = 0
        while first < len(leaves):
            lo, hi = leaves[first].samples
            n0, end = hi - lo, first + 1
            last = min(len(leaves), first + max(1, _SEGMENT_ROWS // n0))
            while end < last and leaves[end].samples[1] - leaves[end].samples[0] == n0:
                end += 1
            starts = np.array([step.samples[0] for step in leaves[first:end]])
            means, counts, pulls = fam.block_anchors(self.rows(starts, n0))
            # not fam.weight(k, n0): with k == n0, H * k / n0 can differ from H
            # in the last bit, and this rounding is part of every recorded run
            alpha = [fam.H * count / n0 for count in counts]
            regs = [2.0 / (step.eta * n0) for step in leaves[first:end]]  # proximal coefficients
            pull.append(np.array(alpha)[:, None] * means)
            self.regs += regs
            self.dens += [a + reg for a, reg in zip(alpha, regs)]
            self.empty += [count == 0 for count in counts]
            self.segment += [len(self.segments)] * (end - first)
            self.segments.append((first, end, starts, pulls))
            first = end
        self.pull = np.concatenate(pull)

    def rows(self, starts, n0):
        """The (k, n0, d) block of the slices that start at ``starts``,
        gathered afresh each time so that no run holds a copy of its data."""
        return np.take(self.points, starts[:, None] + np.arange(n0), axis=0)


def _certify(anchors, i, centers, bests) -> tuple[int, list[float]]:
    """Check chained releases i, i + 1, ... with ball centres ``centers``
    and closed-form minimizers ``bests``: how many leading ones the
    closed form solves exactly (``_closed_form_count``, one batched pass
    per segment), and the largest gradient norm each of those consumed.
    The consumed gradients go through ``clip_gradients`` at each
    release's own level."""
    fam, stop = anchors.family, i + len(centers)
    accepted, used = 0, []
    while i + accepted < stop:
        m = i + accepted
        first, end, starts, pulls = anchors.segments[anchors.segment[m]]
        end = min(end, stop)
        rows = anchors.rows(starts[m - first:end - first], pulls.shape[1])
        count = _closed_form_count(
            fam.H, rows, pulls[m - first:end - first], anchors.empty[m:end],
            _stack(centers[accepted:end - i]), anchors.radii[m:end], anchors.clips[m:end],
        )
        if count:
            grads = fam.gradients(_stack(bests[accepted:accepted + count]), rows[:count])
            used += _consumed(grads, anchors.clips[m:m + count])
        accepted += count
        if m + count < end:
            break
    return accepted, used


def _stack(points) -> np.ndarray:
    """Equal-length vectors as the rows of one array (``np.array``'s
    values at half its cost)."""
    return np.concatenate(points).reshape(len(points), -1)


def _consumed(grads, clips) -> list[float]:
    """Largest consumed norm of each release in a (k, n0, d) gradient
    block, clipped at that release's level; one ``clip_gradients`` call
    per run of releases sharing a level."""
    used, a = [], 0
    for clip, run in groupby(clips):
        b = a + sum(1 for _ in run)
        _, norms = clip_gradients(grads[a:b].reshape(-1, grads.shape[2]), clip)
        used += np.maximum.reduce(norms.reshape(b - a, -1), axis=1).tolist()
        a = b
    return used


def _execute(inst, flat, x, center, radius, cfg, noise, tolerance=None):
    """Walk a flattened plan from x inside the ball (center, radius): the
    one place a release is solved and noised.

    A release with ``radius`` None solves in the ball of its frame (the
    innermost nested plan around it); otherwise in the ball of its radius
    around the current iterate. ``noise`` holds the pre-drawn rows of
    the releases with a positive noise scale, one per release in run
    order; a release with noise scale 0 runs gradient descent to
    ``tolerance`` (or ``cfg``'s).

    On an anchor family the releases are walked in windows. From the
    current iterate the walk chains each release's closed form
    (alpha_i m_i + reg_i x)/(alpha_i + reg_i), projected onto its ball
    and noised, and every frame op between releases, with no pass over
    the rows; ``_certify`` then checks the whole window in one batched
    pass per segment and gives the accepted releases' consumed norms.
    The first rejected release runs gradient descent (``_phase``) from
    its incoming iterate, with its own noise row, and the walk resumes
    after it. The first window is the whole run; after a rejection the
    window is one release, doubling after each fully accepted window,
    so a run of R releases checks at most 3R. The hinge has no anchors,
    so every release runs gradient descent.

    Returns each release's iterate (noise added), the largest gradient
    norm it consumed, and each frame's end point (``_Frames.exits``).
    """
    leaves, frame, pre = flat.leaves, flat.frame, flat.pre
    frames = _Frames(flat.frames, center, radius)
    total = len(leaves)
    draw = iter(range(len(noise)))
    row_of = [next(draw) if step.noise_scale > 0 else None for step in leaves]
    radii = [frames.radius[f] if step.radius is None else step.radius
             for step, f in zip(leaves, frame)]
    iterates, consumed = [None] * total, [None] * total
    anchors = None
    if total and inst.family.anchors is not None:
        anchors = _Anchors(inst, leaves, radii)
        pull, regs, dens, empty = anchors.pull, anchors.regs, anchors.dens, anchors.empty
    i, window = 0, total
    while i < total:
        if anchors is not None:
            stop = min(i + window, total)
            y, entries, centers, bests, chain = x, [], [], [], []
            for m in range(i, stop):
                for op in pre[m]:
                    y = frames.step(op, y)
                c = frames.center[frame[m]] if leaves[m].radius is None else y
                target = y if empty[m] else (pull[m] + regs[m] * y) / dens[m]
                best = _project(target, c, radii[m])
                entries.append(y)
                centers.append(c)
                bests.append(best)
                y = best if row_of[m] is None else best + noise[row_of[m]]
                chain.append(y)
            accepted, used = _certify(anchors, i, centers, bests)
            iterates[i:i + accepted] = chain[:accepted]
            consumed[i:i + accepted] = used
            if i + accepted == stop:
                i, x, window = stop, y, 2 * window
                continue
            i, x, c, window = i + accepted, entries[accepted], centers[accepted], 1
        else:
            for op in pre[i]:
                x = frames.step(op, x)
            c = frames.center[frame[i]] if leaves[i].radius is None else x
        step = leaves[i]
        tol = step.noise_scale / 100.0 if step.noise_scale > 0 else tolerance
        x, consumed[i] = _phase(inst, x, step.eta, c, radii[i], cfg, *step.samples,
                                step.lipschitz, tol)
        if row_of[i] is not None:
            x = x + noise[row_of[i]]
        iterates[i] = x
        i += 1
    for op in flat.post:
        x = frames.step(op, x)
    return iterates, consumed, frames.exits


def _phase(inst, center, eta, ball_center, radius, cfg, lo, hi, clip, tolerance):
    """One release by projected gradient descent on validated inputs and a
    raw ball; the proximal term makes the objective reg-strongly convex,
    so this contracts linearly."""
    pts = inst.dataset.points[lo:hi]
    labels = inst.dataset.labels[lo:hi] if inst.dataset.labels is not None else None
    n0 = hi - lo
    reg = 2.0 / (eta * n0)  # gradient coefficient of the proximal term
    tol = cfg.tolerance if tolerance is None else max(tolerance, cfg.tolerance)
    fam = inst.family
    step = 1.0 / (inst.constants.H + reg)
    x = _project(center, ball_center, radius)
    max_consumed = 0.0
    move = math.inf
    # mean, max and norm written as the reductions numpy's own wrappers run,
    # bit for bit, without the wrappers
    for _ in range(cfg.max_iterations):
        grads, norms = clip_gradients(fam.gradients(x, pts, labels), clip)
        max_consumed = max(max_consumed, float(np.maximum.reduce(norms)))
        g = np.add.reduce(grads, axis=0) / n0 + reg * (x - center)
        x_next = _project(x - step * g, ball_center, radius)
        diff = x - x_next
        move = math.sqrt(diff.dot(diff)) / step
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
    """One entry of a run plan, and its record in the run's trace.

    A release (``sub`` None) solves the regularized ERM on the sample
    span ``samples`` with step ``eta`` in a ball of ``radius`` around the
    current iterate, clipping gradients at ``lipschitz``, and adds noise
    of scale ``noise_scale`` calibrated at that level. Otherwise the step
    runs the nested plan ``sub`` in that ball; its ``noise_scale`` is its
    plan's last release's (``_nested``) and its ``eta`` is 0.0.
    ``radius`` None keeps the enclosing domain; ``diameter`` is what the
    step's record reports, and None writes no record.
    """

    samples: tuple[int, int]
    radius: float | None
    diameter: float | None
    lipschitz: float
    noise_scale: float
    eta: float = 0.0
    sub: Plan | None = None


@dataclass(frozen=True)
class Plan:
    """Steps in run order, samples the run leaves unused, trace note."""

    steps: tuple[Step, ...]
    dropped: int = 0
    note: str = ""


def _nested(samples: tuple[int, int], radius, diameter, lipschitz: float, sub: Plan) -> Step:
    """A step running ``sub``; its record reports the last release's noise."""
    sigma = sub.steps[-1].noise_scale if sub.steps else 0.0
    return Step(samples, radius, diameter, lipschitz, sigma, sub=sub)


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


class _Flat(NamedTuple):
    """A plan in run order: its releases (``leaves``), the frame each lies
    in (``frame``, see ``_Frames``), the frame ops before each release
    (``pre``) and after the last (``post``, ending with leaving frame 0),
    and per frame its (parent, radius, empty) from the plan: radius None
    keeps the enclosing ball, and an empty plan ends at its centre. Op
    g > 0 enters frame g; op ~g leaves it."""

    leaves: tuple[Step, ...]
    frame: tuple[int, ...]
    pre: tuple[tuple[int, ...], ...]
    post: tuple[int, ...]
    frames: tuple[tuple[int, float | None, bool], ...]


def _flatten(plan: Plan) -> _Flat:
    """``plan`` laid out in run order (depth first), as frame 0."""
    leaves, frame, pre, frames, ops = [], [], [], [(-1, None, not plan.steps)], []
    _lay_out(plan, 0, leaves, frame, pre, frames, ops)
    ops.append(~0)
    return _Flat(tuple(leaves), tuple(frame), tuple(pre), tuple(ops), tuple(frames))


def _lay_out(plan, f, leaves, frame, pre, frames, ops) -> None:
    """Append ``plan``, the plan of frame f, to a layout. A plan's steps
    are all releases (an ``erm_plan``) or all nested plans; ``ops`` holds
    the frame ops not yet placed before a release."""
    if plan.steps and plan.steps[0].sub is None:
        leaves += plan.steps
        frame += [f] * len(plan.steps)
        pre += [tuple(ops)] + [()] * (len(plan.steps) - 1)
        ops.clear()
        return
    for step in plan.steps:
        g = len(frames)
        frames.append((f, step.radius, not step.sub.steps))
        ops.append(g)
        _lay_out(step.sub, g, leaves, frame, pre, frames, ops)
        ops.append(~g)


def _trace(plan: Plan, iterates, consumed, exits) -> RunTrace:
    """The trace of a walked plan: the one place a step is recorded.
    ``iterates`` and ``consumed`` yield each release's iterate and
    largest consumed norm in run order, ``exits`` each nested plan's end
    point in run order; a nested step records its plan's end point and
    largest consumed norm. The records are the plan's own steps, and a
    plan records all its steps (their diameters are set) or none."""
    if plan.steps and plan.steps[0].sub is None:
        k = len(plan.steps)
        points, used, children = tuple(islice(iterates, k)), list(islice(consumed, k)), ()
    else:
        points, used, children = [], [], []
        for step in plan.steps:
            points.append(next(exits))
            children.append(_trace(step.sub, iterates, consumed, exits))
            used.append(children[-1].max_consumed_gradient)
        points, children = tuple(points), tuple(children)
    if plan.steps and plan.steps[0].diameter is None:
        return RunTrace((), (), plan.dropped, children, max([0.0, *used]), plan.note)
    return RunTrace(plan.steps, points, plan.dropped, children, max([0.0, *used]), plan.note)


def _run(inst, plan, x, budget, cfg, rng) -> SolverResult:
    """Execute a top-level plan from a validated x inside the instance's
    domain. Every release's noise is drawn up front in one batch, in run
    order; the returned point is the plan's end point, projected onto
    the domain (its centre for an empty plan)."""
    flat = _flatten(plan)
    sigmas = [step.noise_scale for step in flat.leaves if step.noise_scale > 0]
    noise = release_noise(sigmas, inst.d, rng, budget)
    iterates, consumed, exits = _execute(
        inst, flat, x, inst.domain.center, inst.domain.radius, cfg, noise
    )
    trace = _trace(plan, iter(iterates), iter(consumed), iter(exits[1:]))
    return SolverResult(point=exits[0], trace=trace)


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
