"""Loss families and their Lipschitzian extensions.

Three convex per-sample losses, each with closed-form value, gradient,
and L-Lipschitz extension

    f_L(x) = inf_y  f(y) + L * ||x - y||,

which agrees with f wherever ||grad f|| <= L and continues it with slope
exactly L elsewhere. The extension gradient is grad f(x) when
||grad f(x)|| <= L (including the boundary case of equality) and
L * (x - y(x)) / ||x - y(x)|| otherwise, where y(x) attains the infimum.

Families:

* ``QuadraticAnchor(H)``: f(x; s) = (H/2) ||x - s||^2. Extension is the
  Huber function of the distance to the anchor.
* ``IndicatorQuadratic(H)``: same, except the all-zero payload switches
  the sample off (loss identically 0).
* ``SmoothedHingeMargin(margin)``: f(x; (a, y)) = psi(margin -
  y <a, x>) with psi(u) = 0 for u <= 0, u^2/(2 tau) on (0, tau], and
  u - tau/2 beyond, where tau = margin / 2. Margin-satisfied points pay
  nothing.

Each family's math lives on its class: ``tag`` (its sweep id),
``labeled``, batch ``values`` / ``gradients`` over an (n, d) payload
block, and the single-sample extension value ``ext_value``. The two
anchor families also give ``anchors(points)`` (the rows that pull),
``block_anchors(block)`` (the same per slice of a (k, n0, d) block, as
anchor means, counts and a pull mask), ``weight(k, n)`` (the curvature of an
n-sample average around the mean of its k anchors) and
``curvatures(points)`` (each row's Hessian is c * I); their
``gradients`` also take one point per slice of such a block. The hinge
has no anchors, so its ``anchors`` is None.

The module functions validate inputs and call those methods. The batch
forms are the only code path the solvers use; ``loss_value`` and
``loss_gradient`` are the batch forms applied to one row, and
``lip_ext_gradient`` is ``clip_gradients`` over ``batch_gradients`` on
one row. The two ``lip_ext_*`` functions take one query as plain
arguments: point, payload, label (None for the unlabeled families) and
clip level. Clipping is done with a mask and the input array is returned
untouched when no row clips (runs with a slack clip bound stay bitwise
identical to unclipped runs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .geometry import Vector, _check_positive, as_point


@dataclass(frozen=True)
class QuadraticAnchor:
    """Isotropic quadratic pulled toward a per-sample anchor point."""

    H: float

    tag: ClassVar[str] = "quadratic-anchor"
    labeled: ClassVar[bool] = False

    def __post_init__(self):
        _check_positive("H", self.H)

    def anchors(self, points: np.ndarray) -> np.ndarray:
        """The payload rows that pull: all of them."""
        return points

    def block_anchors(self, block: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
        """Per slice of a (k, n0, d) block: the mean of its anchors (k, d;
        zero for a slice with none), their counts and the (k, n0) mask of
        the rows that pull. Each mean is ``self.anchors(slice).mean(axis=0)``
        bit for bit, ``np.add.reduce(anchors, axis=0) / count``."""
        k, n0 = block.shape[:2]
        return np.add.reduce(block, axis=1) / n0, [n0] * k, np.ones((k, n0), dtype=bool)

    def weight(self, k: int, n: int) -> float:
        """Curvature of the n-sample average loss around its anchor mean."""
        return self.H

    def curvatures(self, points: np.ndarray) -> np.ndarray:
        """Per-row c with Hessian c * I."""
        return np.full(points.shape[0], self.H)

    def values(self, x: Vector, points: np.ndarray, labels=None) -> np.ndarray:
        diff = x[None, :] - points
        return 0.5 * self.H * np.einsum("ij,ij->i", diff, diff)

    def gradients(self, x: Vector, points: np.ndarray, labels=None) -> np.ndarray:
        # x is one point over (n, d) rows, or (k, d) points over a (k, n0, d) block
        return self.H * (x[..., None, :] - points)

    def ext_value(self, x: Vector, s: Vector, label, L: float) -> float:
        H = self.H
        r = float(np.linalg.norm(x - s))
        if H * r <= L:
            return 0.5 * H * r * r
        return L * r - L * L / (2.0 * H)


@dataclass(frozen=True)
class IndicatorQuadratic(QuadraticAnchor):
    """Quadratic anchor loss gated by a nonzero payload.

    Only the gating differs from ``QuadraticAnchor``: an all-zero row is
    off, so it adds no value, no gradient and no curvature.
    """

    tag: ClassVar[str] = "indicator-quadratic"

    def anchors(self, points: np.ndarray) -> np.ndarray:
        """The payload rows that pull: the nonzero ones."""
        return points[points.any(axis=1)]

    def block_anchors(self, block: np.ndarray) -> tuple[np.ndarray, list[int], np.ndarray]:
        # summed slice by slice over the compacted anchors: padding the off
        # rows with -0.0 changes numpy's pairwise summation order at d = 1
        pulls = block.any(axis=2)
        anchors = [rows[on] for rows, on in zip(block, pulls)]
        means = np.array([np.add.reduce(a, axis=0) / max(len(a), 1) for a in anchors])
        return means, [len(a) for a in anchors], pulls

    def weight(self, k: int, n: int) -> float:
        return self.H * k / n

    def curvatures(self, points: np.ndarray) -> np.ndarray:
        return np.where(points.any(axis=1), self.H, 0.0)

    def values(self, x: Vector, points: np.ndarray, labels=None) -> np.ndarray:
        return np.where(points.any(axis=1), super().values(x, points), 0.0)

    def gradients(self, x: Vector, points: np.ndarray, labels=None) -> np.ndarray:
        grads = super().gradients(x, points)
        grads[~points.any(axis=-1)] = 0.0
        return grads

    def ext_value(self, x: Vector, s: Vector, label, L: float) -> float:
        return super().ext_value(x, s, label, L) if s.any() else 0.0


@dataclass(frozen=True)
class SmoothedHingeMargin:
    """Margin loss with a quadratically smoothed hinge corner.

    The corner is smoothed over tau = margin / 2, which keeps per-sample
    smoothness ||a||^2 / tau finite. No row is an anchor, so the family
    has no closed-form minimizer and ``anchors`` is None.
    """

    margin: float
    # a stored field, not a property: the gradient path reads it per call
    tau: float = field(init=False)

    tag: ClassVar[str] = "smoothed-hinge-margin"
    labeled: ClassVar[bool] = True
    anchors: ClassVar[None] = None

    def __post_init__(self):
        _check_positive("margin", self.margin)
        object.__setattr__(self, "tau", self.margin / 2.0)
        _check_positive("tau", self.tau)  # margin / 2 underflows at the tiniest margins

    def values(self, x: Vector, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
        u = self.margin - labels * (points @ x)
        tau = self.tau
        quad = u * u / (2.0 * tau)
        lin = u - tau / 2.0
        return np.where(u <= 0, 0.0, np.where(u <= tau, quad, lin))

    def gradients(self, x: Vector, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
        u = self.margin - labels * (points @ x)
        slope = np.minimum(np.maximum(u / self.tau, 0.0), 1.0)  # np.clip without its wrapper
        return (-slope * labels)[:, None] * points

    def ext_value(self, x: Vector, s: Vector, label, L: float) -> float:
        u = self.margin - label * float(s @ x)
        a_norm = float(np.linalg.norm(s))
        c = L / a_norm if a_norm > 0.0 else math.inf
        tau = self.tau
        if c >= 1.0 or u <= c * tau:
            return float(self.values(x, s[None, :], np.array([float(label)]))[0])
        # slope of psi caps at c from u = c*tau onward
        return c * u - c * c * tau / 2.0


LossFamily = QuadraticAnchor | IndicatorQuadratic | SmoothedHingeMargin

# tag -> class: the one registry of loss families, the ones an Instance accepts
FAMILIES = {cls.tag: cls for cls in (QuadraticAnchor, IndicatorQuadratic, SmoothedHingeMargin)}


def _check_labels(family: LossFamily, labels) -> None:
    if family.labeled and labels is None:
        raise ValueError(f"{type(family).__name__} samples need +/-1 labels")
    if not family.labeled and labels is not None:
        raise ValueError(f"{type(family).__name__} samples carry no label")


def _one_row(x, payload, label) -> tuple[Vector, np.ndarray, np.ndarray | None]:
    """One sample as the (x, points, labels) arguments of a batch form."""
    x = as_point(x)
    payload = as_point(payload, x.shape[0])
    return x, payload[None, :], None if label is None else np.array([float(label)])


def _ext_row(x, payload, label, clipL) -> tuple[Vector, np.ndarray, np.ndarray | None]:
    """``_one_row`` for an extension query, after checking its clip level."""
    row = _one_row(x, payload, label)
    if clipL != math.inf:
        _check_positive("clip level", clipL)
    return row


# -- single-sample values and gradients ------------------------------------


def loss_value(family: LossFamily, x, payload, label=None) -> float:
    return float(batch_values(family, *_one_row(x, payload, label))[0])


def loss_gradient(family: LossFamily, x, payload, label=None) -> Vector:
    return batch_gradients(family, *_one_row(x, payload, label))[0]


# -- Lipschitzian extension -------------------------------------------------


def lip_ext_value(family: LossFamily, x, payload, label, clipL: float) -> float:
    """Extension value at x for one sample. The clip level is a positive
    real that may also be infinite: no clipping, so the extension is the
    loss itself."""
    x, points, _ = _ext_row(x, payload, label, clipL)
    _check_labels(family, label)
    return family.ext_value(x, points[0], label, clipL)


def lip_ext_gradient(family: LossFamily, x, payload, label, clipL: float) -> Vector:
    """Gradient of the extension; norm never exceeds the clip level.

    The raw gradient of one row, scaled back onto the clip sphere by
    ``clip_gradients`` when its norm exceeds clipL. Where
    ||grad f(x)|| <= clipL (equality included) it is exactly grad f(x),
    bit for bit.
    """
    row = _ext_row(x, payload, label, clipL)
    grads, _ = clip_gradients(batch_gradients(family, *row), clipL)
    return grads[0]


# -- batch interface --------------------------------------------------------


def batch_values(family: LossFamily, x, points: np.ndarray, labels=None) -> np.ndarray:
    _check_labels(family, labels)
    return family.values(as_point(x), points, labels)


def batch_gradients(family: LossFamily, x, points: np.ndarray, labels=None) -> np.ndarray:
    _check_labels(family, labels)
    return family.gradients(as_point(x), points, labels)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row (along the last axis):
    ``np.linalg.norm(rows, axis=-1)``'s arithmetic, bit for bit, without
    its dispatch."""
    return np.sqrt(np.add.reduce(rows * rows, axis=-1))


def clip_gradients(grads: np.ndarray, clip: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale rows with norm above ``clip`` back onto the clip sphere.

    Returns (gradients, consumed norms). The input array is returned
    as-is when nothing clips, so a slack clip level leaves downstream
    arithmetic bitwise unchanged. Consumed norms are recomputed from the
    returned rows, not assumed.
    """
    norms = _row_norms(grads)
    if not math.isfinite(clip):
        return grads, norms
    mask = norms > clip
    if not mask.any():
        return grads, norms
    out = grads.copy()
    out[mask] *= (clip / norms[mask])[:, None]
    consumed = norms.copy()
    consumed[mask] = _row_norms(out[mask])
    return out, consumed
