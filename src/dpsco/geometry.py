"""Points and Euclidean balls.

Everything downstream works in a closed ball in R^d. Points are plain
float64 numpy arrays; `as_point` is the single validation funnel so the
rest of the package can assume finite, one-dimensional inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Vector = np.ndarray


def as_point(x, d: int | None = None) -> Vector:
    """Coerce to a finite float64 vector, optionally checking its length."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"point must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point has non-finite coordinates")
    if d is not None and arr.shape[0] != d:
        raise ValueError(f"point has dimension {arr.shape[0]}, expected {d}")
    return arr


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball; radius 0 is a single point."""

    center: Vector
    radius: float

    def __post_init__(self):
        # copy before freezing: the caller's array stays writeable
        object.__setattr__(self, "center", as_point(self.center).copy())
        object.__setattr__(self, "radius", float(self.radius))
        if not np.isfinite(self.radius) or self.radius < 0:
            raise ValueError(f"ball radius must be a nonnegative real, got {self.radius}")
        self.center.setflags(write=False)

    @property
    def d(self) -> int:
        return self.center.shape[0]

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, x) -> bool:
        """Membership up to a 1e-9 slack, so projected points count as inside."""
        x = as_point(x, self.d)
        return float(np.linalg.norm(x - self.center)) <= self.radius + 1e-9


def project_onto_ball(x, ball: Ball) -> Vector:
    """Euclidean projection onto a closed ball.

    Idempotent and 1-Lipschitz; interior points come back unchanged
    (same values, fresh array).
    """
    return _project(as_point(x, ball.d), ball.center, ball.radius)


def _project(x: Vector, center: Vector, radius: float) -> Vector:
    """``project_onto_ball`` on a validated point and a raw (center,
    radius) pair; the distance is ``np.linalg.norm``'s, bit for bit."""
    offset = x - center
    dist = math.sqrt(offset.dot(offset))
    if dist <= radius:
        return x.copy()
    return center + offset * (radius / dist)
