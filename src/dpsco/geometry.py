"""Points and Euclidean balls.

Everything downstream works in a closed ball in R^d. Points are plain
float64 numpy arrays; `as_point` is the single validation funnel so the
rest of the package can assume finite, one-dimensional inputs.

Scalar arguments go through the three checks beside it, one rule each,
and no value is converted or stored in a new form:

* a count is an integer, numpy's included but not a bool, within its
  bounds (``_check_count``);
* a probability lies strictly between 0 and 1 (``_check_probability``);
* a positive real is above zero and finite (``_check_positive``). Two
  may also be infinite, where a formula gives infinity a meaning: a
  privacy budget's eps (no privacy, zero noise) and a clip level (no
  clipping). Their sites skip the check at infinity.
"""

from __future__ import annotations

import math
import numbers
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
    if d is not None:
        _check_count("d", d)
        if arr.shape[0] != d:
            raise ValueError(f"point has dimension {arr.shape[0]}, expected {d}")
    return arr


def _check_count(name: str, value, lo: int = 1, hi: int | None = None) -> None:
    """Raise ValueError unless value is an integer in [lo, hi]; a bool
    is not a count, because True would silently mean 1."""
    # the plain-int test first: the numbers.Integral check costs ten
    # times as much, and noise scales are computed thousands of times a run
    integral = type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral)
    )
    if not integral or value < lo or (hi is not None and value > hi):
        within = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise ValueError(f"{name} must be an integer {within}, got {value!r}")


def _check_probability(name: str, value) -> None:
    """Raise ValueError unless 0 < value < 1."""
    if not 0 < value < 1:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def _check_positive(name: str, value) -> None:
    """Raise ValueError unless value is a finite real above zero."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive real, got {value!r}")


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
