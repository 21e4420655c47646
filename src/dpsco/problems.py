"""Problem instances: data, constants, budgets, schedules, traces.

An :class:`Instance` bundles a loss family, an ordered dataset, a domain
ball, and the declared analytic constants. Constants are *declared*, not
derived: generators in :mod:`dpsco.hardness` set honest values, and every
instance with a known optimum is checked to have zero excess risk there
at construction time.

Instances serialize to a line-oriented text format (one payload row per
sample, floats written with repr so round-trips are exact)::

    dpsco-instance 1
    family quadratic-anchor
    params 1.0
    constants 3.0 1.0 1.0 2.0 2.0
    domain 0.0 0.0 1.0
    optimum point 0.5 0.0
    samples 2 2 nolabels
    0.5 0.0
    0.5 0.0

The ``params`` line carries family shape parameters (H for the quadratic
families; margin and tau for the hinge). ``constants`` is L, H, growth,
kappa, kappa_floor. ``domain`` is the center followed by the radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Ball, Vector, as_point, project_onto_ball
from .losses import FAMILIES, LossFamily, batch_gradients, batch_values


class UnsupportedFamilyError(ValueError):
    """The requested closed form does not exist for this family."""


@dataclass(frozen=True)
class PrivacyBudget:
    """(eps, delta) differential privacy target; delta = 0 means pure DP."""

    eps: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not (0 <= self.delta < 1):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class LossConstants:
    """Declared analytic constants of an instance.

    L: global Lipschitz bound on the domain. H: smoothness. growth:
    quadratic-growth coefficient lambda (0 when no growth is promised).
    kappa: growth exponent, at least kappa_floor > 1.
    """

    L: float
    H: float
    growth: float = 0.0
    kappa: float = 2.0
    kappa_floor: float = 2.0

    def __post_init__(self):
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError(f"L must be positive, got {self.L}")
        if not (self.H > 0 and math.isfinite(self.H)):
            raise ValueError(f"H must be positive, got {self.H}")
        if not (self.growth >= 0 and math.isfinite(self.growth)):
            raise ValueError(f"growth must be nonnegative, got {self.growth}")
        if not self.kappa_floor > 1:
            raise ValueError(f"kappa_floor must exceed 1, got {self.kappa_floor}")
        if not self.kappa >= self.kappa_floor:
            raise ValueError(
                f"kappa must be at least kappa_floor, got {self.kappa} < {self.kappa_floor}"
            )


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


@dataclass(frozen=True)
class Optimum:
    """Known population minimizer: a point, or an affine set <a, x> = b.

    ``point`` is always a concrete witness; for the plane form it must
    lie on the plane and distances are measured to the whole plane.
    """

    point: Vector
    normal: Vector | None = None
    offset: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "point", as_point(self.point).copy())
        self.point.setflags(write=False)
        if (self.normal is None) != (self.offset is None):
            raise ValueError("plane form needs both a normal and an offset")
        if self.normal is not None:
            normal = as_point(self.normal, self.point.shape[0]).copy()
            if not normal.any():
                raise ValueError("plane normal must be nonzero")
            normal.setflags(write=False)
            object.__setattr__(self, "normal", normal)
            gap = abs(float(normal @ self.point) - float(self.offset))
            if gap > 1e-9 * max(1.0, abs(float(self.offset))):
                raise ValueError("witness point does not lie on the stated plane")

    @property
    def is_plane(self) -> bool:
        return self.normal is not None

    def distance(self, x) -> float:
        """Distance from x to the optimum set."""
        x = as_point(x, self.point.shape[0])
        if self.normal is None:
            return float(np.linalg.norm(x - self.point))
        return abs(float(self.normal @ x) - float(self.offset)) / float(
            np.linalg.norm(self.normal)
        )


@dataclass(frozen=True, eq=False)
class Instance:
    """Loss family + dataset + domain ball + declared constants."""

    family: LossFamily
    dataset: Dataset
    domain: Ball
    constants: LossConstants
    optimum: Optimum | None = None

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
            if self.optimum.point.shape[0] != self.dataset.d:
                raise ValueError("optimum dimension does not match the dataset")
            gap = excess_risk(self, self.optimum.point)
            if gap > 1e-12 * max(1.0, abs(population_value(self, self.optimum.point))):
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
        return project_onto_ball(inst.optimum.point, inst.domain)
    raise UnsupportedFamilyError("hinge instances need a declared optimum")


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
        raise UnsupportedFamilyError(
            "hinge excess risk needs a declared optimum to measure against"
        )
    gap = population_value(inst, x) - population_value(inst, inst.optimum.point)
    return max(0.0, gap)


def interpolation_certificate(inst: Instance) -> float:
    """max over samples of ||grad F(x_opt; s)||; 0 means interpolation."""
    if inst.optimum is None:
        raise ValueError("certificate needs a declared optimum")
    grads = batch_gradients(
        inst.family, inst.optimum.point, inst.dataset.points, inst.dataset.labels
    )
    return float(np.linalg.norm(grads, axis=1).max())


def is_interpolating(inst: Instance, tol: float = 1e-9) -> bool:
    return inst.optimum is not None and interpolation_certificate(inst) <= tol


@dataclass(frozen=True)
class Schedule:
    """Outer-loop plan: T epochs of m samples each (T * m <= n at use)."""

    T: int
    m: int
    beta: float
    constant_scale: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.T, int) and self.T >= 1):
            raise ValueError(f"T must be an integer >= 1, got {self.T}")
        if not (isinstance(self.m, int) and self.m >= 1):
            raise ValueError(f"m must be an integer >= 1, got {self.m}")
        if not (0 < self.beta < 1):
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not self.constant_scale > 0:
            raise ValueError(f"constant_scale must be positive, got {self.constant_scale}")


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of a localization run: geometry, clip level, output, noise."""

    index: int
    diameter: float
    lipschitz: float
    iterate: Vector
    noise_scale: float
    samples: tuple[int, int]  # half-open index range consumed


@dataclass(frozen=True)
class RunTrace:
    """Audit trail of a solver run."""

    epochs: tuple[EpochRecord, ...]
    dropped: int = 0
    children: tuple["RunTrace", ...] = ()
    max_consumed_gradient: float = 0.0
    note: str = ""


# -- text serialization ------------------------------------------------------


def _fmt(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def instance_to_text(inst: Instance) -> str:
    fam = inst.family
    lines = ["dpsco-instance 1", f"family {fam.tag}", f"params {_fmt(fam.params())}"]
    c = inst.constants
    lines.append(f"constants {_fmt([c.L, c.H, c.growth, c.kappa, c.kappa_floor])}")
    lines.append(f"domain {_fmt(list(inst.domain.center) + [inst.domain.radius])}")
    if inst.optimum is None:
        lines.append("optimum none")
    elif inst.optimum.is_plane:
        lines.append(
            "optimum plane "
            + _fmt(list(inst.optimum.normal) + [inst.optimum.offset] + list(inst.optimum.point))
        )
    else:
        lines.append(f"optimum point {_fmt(inst.optimum.point)}")
    labeled = inst.dataset.labels is not None
    lines.append(f"samples {inst.n} {inst.d} {'labels' if labeled else 'nolabels'}")
    for i in range(inst.n):
        row = list(inst.dataset.points[i])
        if labeled:
            row.append(inst.dataset.labels[i])
        lines.append(_fmt(row))
    return "\n".join(lines) + "\n"


def instance_from_text(text: str) -> Instance:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "dpsco-instance 1":
        raise ValueError("not a dpsco instance (missing 'dpsco-instance 1' header)")

    def take(keyword: str) -> list[str]:
        line = lines.pop(0)
        head, *rest = line.split()
        if head != keyword:
            raise ValueError(f"expected '{keyword}' line, got {line!r}")
        return rest

    lines.pop(0)
    tag = take("family")[0]
    if tag not in FAMILIES:
        raise ValueError(f"unknown family tag {tag!r}")
    params = [float(v) for v in take("params")]
    try:
        family = FAMILIES[tag](*params)
    except TypeError as exc:
        raise ValueError(f"bad params for family {tag!r}: {exc}") from exc
    cv = [float(v) for v in take("constants")]
    constants = LossConstants(L=cv[0], H=cv[1], growth=cv[2], kappa=cv[3], kappa_floor=cv[4])
    dom = [float(v) for v in take("domain")]
    domain = Ball(np.array(dom[:-1]), dom[-1])
    d = domain.d
    opt_fields = take("optimum")
    if opt_fields[0] == "none":
        optimum = None
    elif opt_fields[0] == "point":
        optimum = Optimum(np.array([float(v) for v in opt_fields[1:]]))
    elif opt_fields[0] == "plane":
        vals = [float(v) for v in opt_fields[1:]]
        if len(vals) != 2 * d + 1:
            raise ValueError("plane optimum needs a normal, an offset, and a witness")
        optimum = Optimum(
            np.array(vals[d + 1 :]), normal=np.array(vals[:d]), offset=vals[d]
        )
    else:
        raise ValueError(f"unknown optimum form {opt_fields[0]!r}")
    head = take("samples")
    n, dd, labeled = int(head[0]), int(head[1]), head[2] == "labels"
    if dd != d:
        raise ValueError(f"sample dimension {dd} does not match domain dimension {d}")
    if len(lines) != n:
        raise ValueError(f"expected {n} payload rows, found {len(lines)}")
    rows = [[float(v) for v in ln.split()] for ln in lines]
    width = d + (1 if labeled else 0)
    if any(len(r) != width for r in rows):
        raise ValueError(f"every payload row must have {width} fields")
    arr = np.array(rows, dtype=np.float64).reshape(n, width)
    points = arr[:, :d]
    labels = arr[:, d] if labeled else None
    return Instance(
        family=family,
        dataset=Dataset(points, labels),
        domain=domain,
        constants=constants,
        optimum=optimum,
    )
