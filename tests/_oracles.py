"""Independent numerical oracles shared by the test modules.

Everything here is re-derived from the loss definitions alone — no
imports from the package under test — so agreement between the library's
closed forms and these oracles is evidence, not circularity. The two
exceptions are fakes rather than oracles, at the end of the module:
``unclipped`` reruns a solver with the library's own releases minus
their clipping, and ``gradient_descent_only`` minus their closed form.

The central tool is a grid evaluation of the Lipschitzian extension

    f_L(x) = inf_y  f(y) + L * ||x - y||.

Since every loss here is nonnegative, y = x gives objective f(x), and
any y with ||x - y|| > f(x) / L has objective above f(x); the infimum is
therefore attained inside the closed ball of radius f(x) / L around x.
That makes a finite search box rigorous.  In one dimension the box is
scanned outright at the requested step (the grid is centered at x so the
kink of the distance term sits exactly on a node).  In two dimensions a
full scan at step 1e-4 is unaffordable, so the box is refined in stages:
each stage lays a 121x121 grid, recenters on the argmin, and shrinks the
half-width to ten cells; the objective is convex with a single basin, so
the running best value is monotone and the final effective step is
driven below the 1-D step.  The reported value can only ever err high
(it is a minimum over a finite subset), which is the safe direction for
an oracle: a disagreement beyond tolerance always indicts the closed
form or the grid resolution, never masks a bug.

Gradient oracle, by case on the distance from x to the grid argmin y*:

* ``||x - y*||`` at grid resolution (the infimum is attained at x): the
  extension agrees with f near x, so the gradient is a central finite
  difference of the raw loss at x.
* ``||x - y*||`` large (clearly clipped): the extension gradient is
  L * (x - y*) / ||x - y*||; y* is sharpened by two extra refinement
  stages so the unit vector is trustworthy.
* anything in between sits near the clip boundary, where the criterion
  explicitly does not measure; those queries are skipped for the
  gradient comparison only (values are always compared).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np

# -- raw losses, written straight from their definitions ---------------------


def quad_loss(H: float, s: np.ndarray):
    """f(y) = (H/2) ||y - s||^2 as a batch callable over (m, d) arrays."""

    def f(Y: np.ndarray) -> np.ndarray:
        diff = np.atleast_2d(Y) - s
        return 0.5 * H * np.sum(diff * diff, axis=1)

    return f


def indicator_quad_loss(H: float, s: np.ndarray):
    """Quadratic anchor loss, identically zero when the payload is zero."""
    if not np.any(s):
        return lambda Y: np.zeros(np.atleast_2d(Y).shape[0])
    return quad_loss(H, s)


def hinge_loss(margin: float, tau: float, s: np.ndarray, label: float):
    """f(y) = psi(margin - label <s, y>), psi the tau-smoothed hinge."""

    def f(Y: np.ndarray) -> np.ndarray:
        u = margin - label * (np.atleast_2d(Y) @ s)
        quad = u * u / (2.0 * tau)
        lin = u - tau / 2.0
        return np.where(u <= 0.0, 0.0, np.where(u <= tau, quad, lin))

    return f


def fd_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite difference of a batch-callable scalar function."""
    d = x.shape[0]
    probes = np.repeat(x[None, :], 2 * d, axis=0)
    for j in range(d):
        probes[2 * j, j] += h
        probes[2 * j + 1, j] -= h
    vals = f(probes)
    return (vals[0::2] - vals[1::2]) / (2.0 * h)


# -- grid infimal convolution -------------------------------------------------

STEP_1D = 1e-4
GRID_2D = 121  # points per axis and stage
SHRINK_CELLS = 10  # new half-width, in cells of the finished stage
TARGET_CELL_2D = 8e-5  # refine until at or below the 1-D step
ARGMIN_EXTRA_STAGES = 2  # sharpen y* beyond what the value needs


@dataclass(frozen=True)
class InfConv:
    value: float
    argmin: np.ndarray
    cell: float  # final grid resolution around the argmin


def _infconv_1d(f, x: np.ndarray, L: float) -> InfConv:
    fx = float(f(x[None, :])[0])
    span = fx / L + 0.25
    half_steps = int(math.ceil(span / STEP_1D))
    ys = x[0] + np.arange(-half_steps, half_steps + 1, dtype=np.float64) * STEP_1D
    vals = f(ys[:, None]) + L * np.abs(ys - x[0])
    j = int(np.argmin(vals))
    return InfConv(value=float(vals[j]), argmin=np.array([ys[j]]), cell=STEP_1D)


def _stage_2d(f, x: np.ndarray, L: float, center: np.ndarray, half: float):
    axes = [np.linspace(center[k] - half, center[k] + half, GRID_2D) for k in range(2)]
    g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
    Y = np.stack([g0.ravel(), g1.ravel()], axis=1)
    vals = f(Y) + L * np.linalg.norm(Y - x[None, :], axis=1)
    j = int(np.argmin(vals))
    cell = 2.0 * half / (GRID_2D - 1)
    return float(vals[j]), Y[j], cell


def _infconv_2d(f, x: np.ndarray, L: float) -> InfConv:
    fx = float(f(x[None, :])[0])
    half = fx / L + 0.25
    center = x.copy()
    best_val, best_y = fx, x.copy()  # y = x is always feasible
    cell = 2.0 * half / (GRID_2D - 1)
    stages_past_target = 0
    for _ in range(24):  # generous cap; typically 4-6 stages
        val, ymin, cell = _stage_2d(f, x, L, center, half)
        if val < best_val:
            best_val, best_y = val, ymin.copy()
        center = ymin
        half = SHRINK_CELLS * cell
        if cell <= TARGET_CELL_2D:
            stages_past_target += 1
            if stages_past_target > ARGMIN_EXTRA_STAGES:
                break
    return InfConv(value=best_val, argmin=best_y, cell=cell)


def grid_infconv(f, x: np.ndarray, L: float) -> InfConv:
    """Grid value of inf_y f(y) + L ||x - y|| for d in {1, 2}."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 1:
        return _infconv_1d(f, x, L)
    if x.shape[0] == 2:
        return _infconv_2d(f, x, L)
    raise ValueError(f"grid oracle supports d in {{1, 2}}, got d = {x.shape[0]}")


# -- gradient classification ---------------------------------------------------

UNCLIPPED_DIST = 3e-4  # argmin this close to x: the extension is just f
CLIPPED_DIST = 0.1  # argmin this far from x: safely past the clip boundary
BOUNDARY_NORM_GAP = 5e-3  # raw-gradient norms this close to L are ambiguous


def gradient_oracle(f, x: np.ndarray, L: float, conv: InfConv):
    """(kind, gradient) with kind in {"unclipped", "clipped", "boundary"}.

    "boundary" means the query sits too close to the clip boundary to
    classify at grid resolution; the criterion's gradient comparison
    skips those.  Values are never skipped.
    """
    dist = float(np.linalg.norm(x - conv.argmin))
    if dist <= UNCLIPPED_DIST:
        grad = fd_gradient(f, x)
        if abs(float(np.linalg.norm(grad)) - L) <= BOUNDARY_NORM_GAP:
            return "boundary", None
        return "unclipped", grad
    if dist >= CLIPPED_DIST:
        return "clipped", L * (x - conv.argmin) / dist
    return "boundary", None


# -- query corpus ---------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    x: np.ndarray
    payload: np.ndarray
    L: float
    label: float | None  # only the hinge carries one


def make_queries(kind: str, count: int, rng: np.random.Generator) -> list[Query]:
    """Random extension queries for one loss family, mixing d = 1 and 2.

    Payload/query spreads are tuned so each corpus mixes the unclipped,
    clipped, and near-boundary regimes.
    """
    queries: list[Query] = []
    while len(queries) < count:
        d = 1 if rng.random() < 0.5 else 2
        x = 1.5 * rng.standard_normal(d)
        if kind in ("quad", "indicator"):
            s = 1.5 * rng.standard_normal(d)
            if kind == "indicator" and rng.random() < 0.1:
                s = np.zeros(d)
            L = rng.uniform(0.5, 2.5)
            queries.append(Query(x=x, payload=s, L=L, label=None))
        elif kind == "hinge":
            direction = rng.standard_normal(d)
            norm = float(np.linalg.norm(direction))
            if norm < 1e-9:
                continue
            s = direction * (rng.uniform(0.6, 2.0) / norm)
            L = rng.uniform(0.3, 2.0)
            queries.append(Query(x=x, payload=s, L=L, label=float(rng.choice([-1.0, 1.0]))))
        else:
            raise ValueError(f"unknown query kind {kind!r}")
    return queries


def raw_loss_for(kind: str, q: Query, margin: float = 1.0, tau: float = 0.5, H: float = 1.0):
    if kind == "quad":
        return quad_loss(H, q.payload)
    if kind == "indicator":
        return indicator_quad_loss(H, q.payload)
    if kind == "hinge":
        return hinge_loss(margin, tau, q.payload, q.label)
    raise ValueError(f"unknown query kind {kind!r}")


def ext_argmin(kind: str, q: Query, margin: float = 1.0, tau: float = 0.5, H: float = 1.0):
    """A point y(x) attaining inf_y f(y) + L ||x - y||, in closed form.

    Quadratic anchor: y = x while the gradient H ||x - s|| is at most L,
    else the point between s and x where it equals L.  Hinge with slack
    u = margin - label <a, x>: the slope of psi is capped at c = L / ||a||,
    so y = x unless c < 1 and u > c tau, and then y moves x along
    label * a until its slack is c tau.  An off indicator row gives y = x.
    """
    x, s = np.asarray(q.x, dtype=np.float64), np.asarray(q.payload, dtype=np.float64)
    if kind in ("quad", "indicator"):
        diff = x - s
        r = float(np.linalg.norm(diff))
        if (kind == "indicator" and not s.any()) or H * r <= q.L:
            return x.copy()
        return s + (q.L / (H * r)) * diff
    if kind == "hinge":
        u = margin - q.label * float(s @ x)
        a_norm = float(np.linalg.norm(s))
        c = q.L / a_norm if a_norm > 0.0 else math.inf
        if c >= 1.0 or u <= c * tau:
            return x.copy()
        return x + ((u - c * tau) / (a_norm * a_norm)) * q.label * s
    raise ValueError(f"unknown query kind {kind!r}")


# -- generator references ---------------------------------------------------------


def margin_features_per_row(d: int, n: int, margin: float, gen: np.random.Generator):
    """(points, labels, witness) of the margin generator, one row per draw.

    The one-row-at-a-time rejection loop that the library's batched draw
    must reproduce bit for bit: draw one standard-normal row, skip it if
    its norm is below 1e-12, normalise it, and keep it when
    |<a, witness>| >= 1.5 * margin, labelled by the sign.
    """
    direction = gen.standard_normal(d)
    direction /= np.linalg.norm(direction)
    witness = 2.0 * margin * math.sqrt(d) * direction
    rows, labels = [], []
    while len(rows) < n:
        a = gen.standard_normal(d)
        norm = float(np.linalg.norm(a))
        if norm < 1e-12:
            continue
        a /= norm
        score = float(a @ witness)
        if abs(score) < 1.5 * margin:
            continue
        rows.append(a)
        labels.append(1.0 if score > 0 else -1.0)
    return np.array(rows), np.array(labels), witness


# -- gradient-descent reference ---------------------------------------------------


def quad_gradients(H: float, points: np.ndarray):
    """x -> the (n, d) per-sample gradients H (x - s) of the quadratic anchor loss."""
    return lambda x: H * (x - points)


def hinge_gradients(margin: float, tau: float, points: np.ndarray, labels: np.ndarray):
    """x -> the (n, d) per-sample gradients of psi(margin - label <s, x>),
    psi the tau-smoothed hinge: slope clamp(u / tau, 0, 1) along -label s."""

    def grads(x: np.ndarray) -> np.ndarray:
        u = margin - labels * (points @ x)
        return (-np.clip(u / tau, 0.0, 1.0) * labels)[:, None] * points

    return grads


def ball_projection(y, center, radius):
    """The point of the ball (center, radius) nearest to y."""
    offset = y - center
    dist = np.linalg.norm(offset)
    return y.copy() if dist <= radius else center + offset * (radius / dist)


def projected_gradient_descent(gradients, center, eta, H, ball_center, radius, clip, tol,
                               max_iterations=100_000):
    """(x, largest consumed norm) of projected gradient descent on the
    mean loss + (1 / (eta n0)) ||x - center||^2 over the ball (ball_center,
    radius), from the projection of center, at step 1 / (H + 2 / (eta n0)).

    Every per-sample gradient with norm above ``clip`` is scaled back onto
    the clip sphere and its consumed norm recomputed. The loop stops once
    ||x - x_next|| / step <= tol. Written in the plainest numpy forms
    (``mean``, ``np.linalg.norm``), the loop a gradient-descent phase of
    regularized ERM must equal bit for bit.
    """
    x = ball_projection(center, ball_center, radius)
    used = 0.0
    for _ in range(max_iterations):
        grads = gradients(x)
        norms = np.linalg.norm(grads, axis=1)
        over = norms > clip
        if over.any():
            grads[over] *= (clip / norms[over])[:, None]
            norms[over] = np.linalg.norm(grads[over], axis=1)
        used = max(used, float(norms.max()))
        reg = 2.0 / (eta * grads.shape[0])
        step = 1.0 / (H + reg)
        x_next = ball_projection(x - step * (grads.mean(axis=0) + reg * (x - center)),
                                 ball_center, radius)
        move = float(np.linalg.norm(x - x_next)) / step
        x = x_next
        if move <= tol:
            return x, used
    raise AssertionError(f"no convergence to {tol} in {max_iterations} iterations")


# -- fakes over the library -------------------------------------------------------


def unclipped(fn):
    """fn with every release consuming raw gradients: ``base_solvers._execute``
    gets the run's releases at an infinite clip level, while radii, noise
    and the trace keep the planned level. The reference a clipped run is
    compared against."""
    from dpsco import base_solvers

    def run(*args, **kwargs):
        execute = base_solvers._execute

        def raw(inst, flat, *rest):
            leaves = tuple(replace(s, lipschitz=math.inf) for s in flat.leaves)
            return execute(inst, flat._replace(leaves=leaves), *rest)

        with mock.patch.object(base_solvers, "_execute", raw):
            return fn(*args, **kwargs)
    return run


def gradient_descent_only(fn):
    """fn with every release on gradient descent: the block check
    ``base_solvers._closed_form_count`` accepts no closed form."""
    from dpsco import base_solvers

    def run(*args, **kwargs):
        with mock.patch.object(base_solvers, "_closed_form_count", lambda *a: 0):
            return fn(*args, **kwargs)
    return run
