"""Hard-instance generators and certified oracle checks.

Generators produce :class:`Instance` objects with honest declared
constants and, for the interpolating ones, a certificate that every
per-sample gradient vanishes at the optimum. Oracles measure what a
construction actually delivers (minimizer shift, stability, growth after
removals, pinched-minimizer location) against the closed-form bounds it
is supposed to satisfy, and say so in small report objects. Every
generator and oracle takes its parameters as plain arguments and checks
them itself.

All quadratic-family oracles exploit that per-sample Hessians are
isotropic (c * I with c = H or 0), which makes adversarial choices exact
rather than greedy: the worst r-sample removal for growth drops the r
largest curvature contributions, and the worst k-sample replacement for
the minimizer shift swaps the k smallest (or largest) anchors for the
domain-boundary anchor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Ball, _check_count, _check_positive, as_point
from .losses import IndicatorQuadratic, QuadraticAnchor, SmoothedHingeMargin
from .mechanisms import as_generator
from .problems import (
    Dataset,
    Instance,
    LossConstants,
    Optimum,
    exact_minimizer,
    interpolation_certificate,
    is_interpolating,
)

# -- generators --------------------------------------------------------------


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot products of a (m, d) with b (m, d) or (d,).

    A stack of 1 x d by d x 1 products runs numpy's vector dot kernel on
    each row, so entry i is bit-equal to ``a[i] @ b[i]`` (or ``a[i] @ b``)
    and ``sqrt(_row_dots(a, a))[i]`` to ``np.linalg.norm(a[i])``. A plain
    ``a @ b``, ``einsum`` or ``add.reduce(a * b, axis=1)`` sums in another
    order and can differ in the last bits once d > 1.
    """
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def make_noiseless_least_squares(
    d: int, n: int, xstar, H: float, *, radius: float | None = None
) -> Instance:
    """Interpolating least squares: every anchor sits exactly at xstar.

    Population risk (H/2)||x - xstar||^2, so the growth coefficient is
    exactly H. Deterministic, so it takes no random stream.
    """
    _check_count("d", d)
    _check_count("n", n)
    xstar = as_point(xstar, d)
    R = float(radius) if radius is not None else max(1.0, 2.0 * float(np.linalg.norm(xstar)))
    domain = Ball(np.zeros(d), R)
    if not domain.contains(xstar):
        raise ValueError("xstar must lie inside the domain ball")
    points = np.tile(xstar, (n, 1))
    L = H * (float(np.linalg.norm(xstar)) + R)
    inst = Instance(
        family=QuadraticAnchor(H),
        dataset=Dataset(points),
        domain=domain,
        constants=LossConstants(L=L, H=H, growth=H, kappa=2.0),
        optimum=Optimum(xstar),
    )
    assert interpolation_certificate(inst) == 0.0
    return inst


def make_noisy_least_squares(
    d: int, n: int, xstar, H: float, noise_std: float, rng, radius: float | None = None
) -> Instance:
    """Least squares with anchors xstar + noise_std * N(0, I): no longer
    interpolating, but still H-growth around the anchor mean."""
    _check_count("d", d)
    _check_count("n", n)
    xstar = as_point(xstar, d)
    _check_positive("noise_std", noise_std)
    gen = as_generator(rng)
    points = xstar[None, :] + noise_std * gen.standard_normal((n, d))
    mean = points.mean(axis=0)
    R = (
        float(radius)
        if radius is not None
        else max(1.0, 2.0 * float(np.linalg.norm(xstar)) + 4.0 * noise_std)
    )
    domain = Ball(np.zeros(d), R)
    if not domain.contains(mean):
        raise ValueError("anchor mean fell outside the domain; enlarge the radius")
    L = H * (float(np.linalg.norm(points, axis=1).max()) + R)
    return Instance(
        family=QuadraticAnchor(H),
        dataset=Dataset(points),
        domain=domain,
        constants=LossConstants(L=L, H=H, growth=H, kappa=2.0),
        optimum=Optimum(mean),
    )


def make_margin_classification(d: int, n: int, margin: float, rng) -> Instance:
    """Separable margin classification with a slack-3/2 witness.

    Every unit-norm feature satisfies |<a, witness>| >= 1.5 * margin and
    labels agree with the sign, so the witness classifies with margin to
    spare: moves of margin/2 along any feature direction keep every
    sample loss at zero.

    Features are drawn by rejection in batches: each pass draws exactly
    the number of rows still needed and writes those that pass into the
    next free rows of the output. No row is drawn that a one-row-at-a-time
    loop would not draw, so the points, labels and the generator's final
    state equal that loop's bit for bit.
    """
    _check_count("d", d)
    _check_count("n", n)
    _check_positive("margin", margin)
    gen = as_generator(rng)
    direction = gen.standard_normal(d)
    direction /= np.linalg.norm(direction)
    witness = 2.0 * margin * math.sqrt(d) * direction
    bound = 1.5 * margin
    points = np.empty((n, d))
    labels = np.empty(n)
    have = 0
    while have < n:
        a = gen.standard_normal((n - have, d))
        norms = np.sqrt(_row_dots(a, a))
        drawn = norms >= 1e-12
        if not drawn.all():  # a near-zero row has no direction; skip it
            a, norms = a[drawn], norms[drawn]
        a /= norms[:, None]
        score = _row_dots(a, witness)
        keep = np.flatnonzero(np.abs(score) >= bound)  # the rest lie too close to the boundary
        end = have + keep.size
        np.take(a, keep, axis=0, out=points[have:end])
        lab = np.take(score, keep, out=labels[have:end])
        np.sign(lab, out=lab)  # |score| >= bound > 0, so its sign is the label
        have = end
    family = SmoothedHingeMargin(margin)
    H = 1.0 / family.tau  # max ||a||^2 / tau at unit-norm features
    inst = Instance(
        family=family,
        dataset=Dataset(points, labels),
        domain=Ball(np.zeros(d), 2.0 * float(np.linalg.norm(witness))),
        constants=LossConstants(L=1.0, H=H, growth=0.0, kappa=2.0),
        optimum=Optimum(witness),
    )
    assert interpolation_certificate(inst) == 0.0
    return inst


def make_lower_bound_instance(d: int, n: int, k: int, v, H: float) -> Instance:
    """n - k off samples followed by k samples anchored at v.

    Population risk is (k H / 2n) ||x - v||^2: interpolating, with
    growth coefficient exactly k H / n.
    """
    _check_count("d", d)
    _check_count("n", n)
    _check_count("k", k, hi=n)
    v = as_point(v, d)
    if not v.any():
        raise ValueError("v must be nonzero (the zero payload is the off state)")
    _check_positive("H", H)
    points = np.zeros((n, d))
    points[n - k :] = v
    R = max(1.0, 2.0 * float(np.linalg.norm(v)))
    domain = Ball(np.zeros(d), R)
    if not domain.contains(v):
        raise ValueError("v must lie inside the domain ball")
    L = H * (float(np.linalg.norm(v)) + R)
    inst = Instance(
        family=IndicatorQuadratic(H),
        dataset=Dataset(points),
        domain=domain,
        constants=LossConstants(L=L, H=H, growth=k * H / n, kappa=2.0),
        optimum=Optimum(v),
    )
    assert interpolation_certificate(inst) == 0.0
    return inst


def make_packing(D: float, gamma: float, d: int) -> np.ndarray:
    """Axis-aligned gamma-grid inside the centered ball of diameter D.

    Points are gamma * z for integer vectors z with norm at most D/2
    (boundary included), in lexicographic order, for d <= 3. Pairwise
    separation is exactly gamma along each axis; the 1-D count is
    2*floor(D/(2 gamma)) + 1 >= D / (2 gamma).
    """
    _check_positive("D", D)
    if not (0 < gamma <= D / 2):
        raise ValueError(f"gamma must lie in (0, D/2], got {gamma}")
    _check_count("d", d, hi=3)
    half = D / 2.0
    reach = int(math.floor(half / gamma + 1e-12))
    axis = np.arange(-reach, reach + 1, dtype=np.float64) * gamma
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    keep = np.linalg.norm(pts, axis=1) <= half + 1e-12
    return pts[keep]


# -- oracle reports ----------------------------------------------------------


@dataclass(frozen=True)
class SuperefficiencyReport:
    instance: Instance
    shift: float
    lower_bound: float
    upper_bound: float
    passed: bool
    base_minimizer: float


@dataclass(frozen=True)
class ModulusReport:
    """Certified minimizer-shift lower bounds omega(0..k) over the
    boundary-anchor replacement family."""

    values: tuple[float, ...]


@dataclass(frozen=True)
class StabilityReport:
    distance: float
    bound: float
    differing: int
    passed: bool


@dataclass(frozen=True)
class GrowthReport:
    coefficient: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class Quadratic1D:
    """(coef/2) (x - minimizer)^2; curvature and growth both equal coef."""

    coef: float
    minimizer: float

    def __post_init__(self):
        _check_positive("coef", self.coef)
        as_point(self.minimizer, 1)  # finite, or ValueError


@dataclass(frozen=True)
class PinchReport:
    x_star: float
    lower: float
    upper: float
    gradient_lower_ok: bool
    gradient_upper_ok: bool
    passed: bool


# -- oracle checks -----------------------------------------------------------


def _active_values_1d(inst: Instance) -> np.ndarray:
    """1-D anchor values that actually pull (all points for the plain
    quadratic, nonzero ones for the indicator family)."""
    if inst.d != 1:
        raise ValueError(f"this oracle is one-dimensional, got d = {inst.d}")
    if inst.family.anchors is None:
        raise ValueError(f"this oracle needs a quadratic family, got {type(inst.family).__name__}")
    return inst.family.anchors(inst.dataset.points)[:, 0]


def superefficiency_construct(base: Instance, r: int, anchor: float) -> SuperefficiencyReport:
    """Swap the last r samples for anchors at +anchor and measure the shift.

    Preconditions enforced, not generalized: 1-D, interpolating,
    positive declared growth, population minimizer at most 0, r < n.
    The shift of the population minimizer is then sandwiched between
    r D / n and 8 H D r / (lambda n) with D the domain radius.
    """
    _check_count("r", r)
    lam, H = base.constants.growth, base.constants.H
    _check_positive("growth", lam)
    if not is_interpolating(base):
        raise ValueError("base instance must interpolate (zero gradients at the optimum)")
    if r >= base.n:
        raise ValueError(f"must keep at least one sample: r = {r}, n = {base.n}")
    _active_values_1d(base)  # 1-D quadratic family, or ValueError
    base_min = float(exact_minimizer(base)[0])
    if base_min > 0.0:
        raise ValueError(f"largest population minimizer must be <= 0, got {base_min}")
    D = base.domain.radius
    if abs(anchor) > D:
        raise ValueError(f"anchor {anchor} lies outside the domain radius {D}")

    points = base.dataset.points.copy()
    points[base.n - r :, 0] = anchor
    anchors = base.family.anchors(points)
    growth_new = base.family.weight(anchors.shape[0], base.n)
    min_new = float(anchors[:, 0].mean())
    L_new = H * (float(np.abs(points[:, 0]).max()) + D)
    shifted = Instance(
        family=base.family,
        dataset=Dataset(points),
        domain=base.domain,
        constants=LossConstants(L=L_new, H=H, growth=growth_new, kappa=base.constants.kappa),
        optimum=Optimum(np.array([min_new])),
    )
    shift = min_new - base_min
    lower = r * D / base.n
    upper = 8.0 * H * D * r / (lam * base.n)
    return SuperefficiencyReport(
        instance=shifted,
        shift=shift,
        lower_bound=lower,
        upper_bound=upper,
        passed=bool(lower - 1e-12 <= shift <= upper + 1e-12),
        base_minimizer=base_min,
    )


def modulus_oracle(base: Instance, k: int) -> ModulusReport:
    """Certified lower bounds on the minimizer shift after <= j swaps.

    For each j <= k, maximizes |new minimizer - old| over the family
    that replaces j samples with anchors at +/- the domain radius. With
    isotropic quadratics the extremal choice is exact: for the +D anchor
    swap out the j smallest anchors (for -D, the largest), enumerating
    how many of the swapped rows were previously off (none for the plain
    quadratic). Values are cumulative maxima, hence monotone in j.
    """
    _check_count("k", k, lo=0, hi=base.n - 1)
    vals = np.sort(_active_values_1d(base))
    D = base.domain.radius
    n = base.n
    k_active = vals.size
    zeros = n - k_active
    prefix = np.concatenate([[0.0], np.cumsum(vals)])  # sum of j smallest
    suffix = np.concatenate([[0.0], np.cumsum(vals[::-1])])  # sum of j largest
    total = float(prefix[-1])
    base_min = total / k_active if k_active else 0.0

    def best_shift(j: int) -> float:
        if j == 0:
            return 0.0
        best = 0.0
        for anchor in (D, -D):
            # j_on swapped rows were active, j - j_on <= zeros were off
            for j_on in range(max(0, j - zeros), min(j, k_active) + 1):
                drop = suffix[j_on] if anchor < 0 else prefix[j_on]
                new_actives = k_active - j_on + j  # anchors at +/-D are on
                new_min = (total - float(drop) + j * anchor) / new_actives
                best = max(best, abs(new_min - base_min))
        return best

    values = []
    running = 0.0
    for j in range(k + 1):
        running = max(running, best_shift(j))
        values.append(running)
    return ModulusReport(values=tuple(values))


def stability_bound_check(
    base: Instance, swapped: Instance, k: int, constants: LossConstants
) -> StabilityReport:
    """Minimizer shift of a <= k-sample swap against 4 k L / (lambda n)."""
    _check_count("k", k, lo=0)
    if base.n != swapped.n or base.d != swapped.d:
        raise ValueError("instances must share n and d")
    if type(base.family) is not type(swapped.family):
        raise ValueError("instances must share a loss family")
    differ = (base.dataset.points != swapped.dataset.points).any(axis=1)
    if base.dataset.labels is not None:
        differ |= base.dataset.labels != swapped.dataset.labels
    differing = int(differ.sum())
    if differing > k:
        raise ValueError(f"instances differ in {differing} samples, more than k = {k}")
    _check_positive("growth", constants.growth)
    distance = float(np.linalg.norm(exact_minimizer(base) - exact_minimizer(swapped)))
    bound = 4.0 * k * constants.L / (constants.growth * base.n)
    return StabilityReport(
        distance=distance,
        bound=bound,
        differing=differing,
        passed=bool(distance <= bound + 1e-12),
    )


def growth_closure_check(base: Instance, r: int) -> GrowthReport:
    """Worst-case growth coefficient after dropping r samples.

    Keeps the 1/n weighting, so dropping a sample removes its curvature
    contribution from the average. Per-sample Hessians are isotropic, so
    dropping the r largest contributions is the exact adversary. The
    bound is lambda - H / (n * (1/r)), that is lambda - H r / n computed
    through 1/r; r = 0 leaves the declared coefficient untouched.
    """
    _check_count("r", r, lo=0, hi=base.n - 1)
    if base.family.anchors is None:
        raise ValueError("growth closure needs a quadratic family")
    H = base.constants.H
    contributions = base.family.curvatures(base.dataset.points)
    worst = float(np.sort(contributions)[::-1][:r].sum())
    coefficient = (float(contributions.sum()) - worst) / base.n
    bound = base.constants.growth - (0.0 if r == 0 else H / (base.n * (1.0 / r)))
    return GrowthReport(
        coefficient=coefficient,
        bound=bound,
        passed=bool(coefficient >= bound - 1e-12),
    )


def pinch_check(h: Quadratic1D, g: Quadratic1D) -> PinchReport:
    """Locate the minimizer of the average of two 1-D quadratics.

    Checks the pinch inequalities

        (c_g/2) / (c_g/2 + c_h) <= t <= c_g / (c_h/2 + c_g),
        t = (x* - m_h) / (m_g - m_h),

    (trivially 0 when the minimizers coincide) and, on 41 evenly spaced
    points around both minimizers, the gradient envelope
    (lambda/2) dist <= |F'| <= H dist for the averaged objective.
    """
    gap = g.minimizer - h.minimizer
    lower = (g.coef / 2.0) / (g.coef / 2.0 + h.coef)
    upper = g.coef / (h.coef / 2.0 + g.coef)
    if gap == 0.0:
        # coinciding minimizers: the average is minimized exactly there, and
        # the weighted-average formula would only add rounding drift
        x_star = h.minimizer
        pinch_ok = True
        lower_pt, upper_pt = h.minimizer, h.minimizer
    else:
        x_star = (h.coef * h.minimizer + g.coef * g.minimizer) / (h.coef + g.coef)
        t = (x_star - h.minimizer) / gap
        pinch_ok = lower - 1e-12 <= t <= upper + 1e-12
        lower_pt = h.minimizer + lower * gap
        upper_pt = h.minimizer + upper * gap
    avg_coef = (h.coef + g.coef) / 2.0  # curvature of the averaged objective
    span = max(abs(gap), 1.0)
    xs = np.linspace(
        min(h.minimizer, g.minimizer) - span, max(h.minimizer, g.minimizer) + span, 41
    )
    fprime = 0.5 * (h.coef * (xs - h.minimizer) + g.coef * (xs - g.minimizer))
    dist = np.abs(xs - x_star)
    glow = bool(np.all(np.abs(fprime) >= (avg_coef / 2.0) * dist - 1e-12))
    ghigh = bool(np.all(np.abs(fprime) <= avg_coef * dist + 1e-12))
    return PinchReport(
        x_star=x_star,
        lower=min(lower_pt, upper_pt),
        upper=max(lower_pt, upper_pt),
        gradient_lower_ok=glow,
        gradient_upper_ok=ghigh,
        passed=bool(pinch_ok and glow and ghigh),
    )
