"""Per-op correctness checks, made from outside the library.

The checks read only the returned objects and use numpy directly, never
a dpsco function, so they add no span to a traced run and do not trust
the code they check. Each returns a list of problems; empty means the
op passed.
"""

from __future__ import annotations

import math

import numpy as np

# the slack Ball.contains allows a point on the boundary
DOMAIN_SLACK = 1e-9
REL_TOL = 1e-12


def _leaf_traces(trace):
    if not trace.children:
        yield trace
    for child in trace.children:
        yield from _leaf_traces(child)


def check_solver(inst, result, risk: float, eps: float) -> list[str]:
    """The returned point, its excess risk and the run's noisy releases.

    A leaf EpochRecord is one noisy release of ``localization_erm``. Its
    ball diameter is 4 L eta n0 for clip level L, step eta and n0 =
    span length, so eta is read back from the record and the pure-DP
    scale 4 L eta sqrt(d) / eps is recomputed at the recorded L.
    """
    problems = []
    point = np.asarray(result.point, dtype=np.float64)
    if point.shape != (inst.d,) or not np.all(np.isfinite(point)):
        problems.append(f"point {point!r} is not a finite {inst.d}-vector")
    else:
        dist = float(np.linalg.norm(point - inst.domain.center))
        if dist > inst.domain.radius + DOMAIN_SLACK:
            problems.append(
                f"point lies {dist!r} from the domain center, radius {inst.domain.radius!r}"
            )
    if not (math.isfinite(risk) and risk >= 0.0):
        problems.append(f"excess risk {risk!r} is not a finite nonnegative number")
    spans = []
    for leaf in _leaf_traces(result.trace):
        if not leaf.epochs:
            continue
        clip = min(rec.lipschitz for rec in leaf.epochs)
        if leaf.max_consumed_gradient > clip * (1.0 + REL_TOL):
            problems.append(
                f"consumed gradient {leaf.max_consumed_gradient!r} exceeds clip level {clip!r}"
            )
        for rec in leaf.epochs:
            lo, hi = rec.samples
            spans.append((lo, hi))
            n0 = hi - lo
            if n0 < 1:
                continue  # reported by the span check below
            eta = rec.diameter / (4.0 * rec.lipschitz * n0)
            sigma = 4.0 * rec.lipschitz * eta * math.sqrt(inst.d) / eps
            if not abs(rec.noise_scale - sigma) <= REL_TOL * sigma:
                problems.append(
                    f"release {rec.samples} has noise scale {rec.noise_scale!r}, "
                    f"pure-DP formula gives {sigma!r} at clip level {rec.lipschitz!r}"
                )
    spans.sort()
    for lo, hi in spans:
        if not 0 <= lo < hi <= inst.n:
            problems.append(f"release span {(lo, hi)} is not inside [0, {inst.n})")
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        if lo < hi:
            problems.append(f"release spans overlap at sample {lo}: parallel composition broken")
    return problems


def check_audit(outcome) -> list[str]:
    problems = []
    if not math.isfinite(outcome.epsilon_hat):
        problems.append(f"eps_hat {outcome.epsilon_hat!r} is not finite")
    if not outcome.passed:
        kind = "control" if outcome.control else "calibrated"
        problems.append(
            f"{kind} audit did not pass: eps_hat {outcome.epsilon_hat!r}, "
            f"threshold {outcome.threshold!r}"
        )
    return problems
