"""Problem instances: data, constants, budgets, schedules, traces.

An :class:`Instance` bundles a loss family, an ordered dataset, a domain
ball, the declared analytic constants and, when known, the population
minimizer as a read-only vector. Constants are *declared*, not
derived: generators in :mod:`dpsco.hardness` set honest values, and an
anchor-family instance with a declared optimum is checked to have zero
excess risk there at construction time. The hinge has no closed form to
check its declared optimum against; its generator certifies the optimum
instead. A :class:`RunTrace` records the steps of the run
plan a solver walked, with each recorded step's end point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import (
    Ball, Vector, _check_count, _check_positive, _check_probability, as_point, project_onto_ball,
)
from .losses import FAMILIES, LossFamily, batch_gradients, batch_values

if TYPE_CHECKING:
    from .base_solvers import Step


@dataclass(frozen=True)
class PrivacyBudget:
    """(eps, delta) differential privacy target; delta = 0 means pure DP.

    eps is a positive real that may also be infinite: the budget-off
    sentinel, under which every noise scale is zero and no noise is drawn.
    """

    eps: float
    delta: float = 0.0

    def __post_init__(self):
        if self.eps != math.inf:
            _check_positive("eps", self.eps)
        if self.delta != 0:  # zero is pure DP
            _check_probability("nonzero delta", self.delta)


@dataclass(frozen=True)
class LossConstants:
    """Declared analytic constants of an instance.

    L: global Lipschitz bound on the domain. H: smoothness. growth:
    quadratic-growth coefficient lambda (0 when no growth is promised).
    kappa: growth exponent, at least 2, the floor the shrink rules and
    ``default_inner_epochs`` assume.
    """

    L: float
    H: float
    growth: float = 0.0
    kappa: float = 2.0

    def __post_init__(self):
        _check_positive("L", self.L)
        _check_positive("H", self.H)
        if not (self.growth >= 0 and math.isfinite(self.growth)):
            raise ValueError(f"growth must be nonnegative, got {self.growth}")
        _check_positive("kappa", self.kappa)
        if not self.kappa >= 2:
            raise ValueError(f"kappa must be at least 2, got {self.kappa}")


@dataclass(frozen=True)
class Dataset:
    """Ordered sample payloads, all of one dimension; labels only for hinge."""

    points: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError(f"need an (n, d) payload array with n >= 1, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("payloads must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            lab = np.array(self.labels, dtype=np.float64, copy=True)
            if lab.shape != (pts.shape[0],):
                raise ValueError(f"labels must have shape ({pts.shape[0]},), got {lab.shape}")
            if not np.all(np.abs(lab) == 1.0):
                raise ValueError("labels must be +/-1")
            lab.setflags(write=False)
            object.__setattr__(self, "labels", lab)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True, eq=False)
class Instance:
    """Loss family + dataset + domain ball + declared constants, and the
    known population minimizer ``optimum`` (stored as a read-only copy),
    or None when none is declared."""

    family: LossFamily
    dataset: Dataset
    domain: Ball
    constants: LossConstants
    optimum: Vector | None = None

    def __post_init__(self):
        if type(self.family) not in FAMILIES.values():
            raise ValueError(f"unknown loss family {self.family!r}")
        if self.dataset.d != self.domain.d:
            raise ValueError(
                f"dataset dimension {self.dataset.d} != domain dimension {self.domain.d}"
            )
        fam = self.family
        if fam.labeled and self.dataset.labels is None:
            raise ValueError(f"{type(fam).__name__} instances need labeled samples")
        if not fam.labeled and self.dataset.labels is not None:
            raise ValueError(f"{type(fam).__name__} instances carry no labels")
        # an anchor family's curvature is its own parameter H
        if fam.anchors is not None and fam.H != self.constants.H:
            raise ValueError(f"family curvature {fam.H} != declared H {self.constants.H}")
        if self.optimum is not None:
            point = as_point(self.optimum).copy()
            point.setflags(write=False)
            object.__setattr__(self, "optimum", point)
            if point.shape[0] != self.dataset.d:
                raise ValueError("optimum dimension does not match the dataset")
            # the hinge has no closed form to check its declared optimum against
            if fam.anchors is not None:
                value = population_value(self, point)
                gap = excess_risk(self, point)
                if gap > 1e-12 * max(1.0, abs(value)):
                    raise ValueError(f"declared optimum has excess risk {gap:.3e}, expected 0")

    @property
    def n(self) -> int:
        return self.dataset.n

    @property
    def d(self) -> int:
        return self.dataset.d


def population_value(inst: Instance, x) -> float:
    """Average loss over the whole dataset."""
    return float(
        np.mean(batch_values(inst.family, x, inst.dataset.points, inst.dataset.labels))
    )


def exact_minimizer(inst: Instance) -> Vector:
    """Minimizer of the average loss over the domain ball.

    Closed form for the quadratic families (projection of the anchor
    mean; exact because the quadratic is isotropic). For the hinge the
    declared optimum is returned; there is no general closed form.
    """
    if inst.family.anchors is not None:
        pts = inst.family.anchors(inst.dataset.points)
        if pts.shape[0] == 0:
            return inst.domain.center.copy()
        return project_onto_ball(pts.mean(axis=0), inst.domain)
    if inst.optimum is not None:
        return project_onto_ball(inst.optimum, inst.domain)
    raise ValueError("hinge instances need a declared optimum")


def excess_risk(inst: Instance, x) -> float:
    """F(x) - min_domain F, exactly, via per-family closed forms.

    Quadratic families reduce to (weight/2) * (||x - c||^2 - ||p - c||^2)
    with c the (active-)anchor mean and p its projection onto the domain,
    so no variance terms are ever subtracted at floating point. The hinge
    measures against the declared optimum.
    """
    x = as_point(x, inst.d)
    fam = inst.family
    if fam.anchors is not None:
        pts = fam.anchors(inst.dataset.points)
        k = pts.shape[0]
        if k == 0:
            return 0.0
        weight = fam.weight(k, inst.n)
        center = pts.mean(axis=0)
        best = project_onto_ball(center, inst.domain)
        gap = 0.5 * weight * (
            float(np.linalg.norm(x - center) ** 2) - float(np.linalg.norm(best - center) ** 2)
        )
        return max(0.0, gap)
    if inst.optimum is None:
        raise ValueError("hinge excess risk needs a declared optimum to measure against")
    gap = population_value(inst, x) - population_value(inst, inst.optimum)
    return max(0.0, gap)


def interpolation_certificate(inst: Instance) -> float:
    """max over samples of ||grad F(x_opt; s)||; 0 means interpolation."""
    if inst.optimum is None:
        raise ValueError("certificate needs a declared optimum")
    grads = batch_gradients(inst.family, inst.optimum, inst.dataset.points, inst.dataset.labels)
    return float(np.linalg.norm(grads, axis=1).max())


# the largest certificate that still counts as interpolation
_CERTIFICATE_TOL = 1e-10


def is_interpolating(inst: Instance) -> bool:
    return inst.optimum is not None and interpolation_certificate(inst) <= _CERTIFICATE_TOL


@dataclass(frozen=True)
class Schedule:
    """Outer-loop plan: T epochs of m samples each (T * m <= n at use)."""

    T: int
    m: int
    beta: float
    constant_scale: float = 1.0

    def __post_init__(self):
        _check_count("T", self.T)
        _check_count("m", self.m)
        _check_probability("beta", self.beta)
        _check_positive("constant_scale", self.constant_scale)


@dataclass(frozen=True)
class RunTrace:
    """Audit trail of a solver run: the plan's own steps that write a
    record (``base_solvers.Step``), each one's end point in ``iterates``,
    and one trace per nested plan in ``children``."""

    epochs: tuple[Step, ...]
    iterates: tuple[Vector, ...]
    dropped: int = 0
    children: tuple["RunTrace", ...] = ()
    max_consumed_gradient: float = 0.0
    note: str = ""
