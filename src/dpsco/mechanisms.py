"""Noise primitives and an empirical privacy audit.

All randomness flows through named :class:`RngStream` objects (seed plus
stream id, PCG64 underneath) so any run can be replayed bit for bit.
``release_noise`` draws the noise of many releases at once. A budget
selects its mechanism here and nowhere else: output perturbation adds
per-coordinate noise of scale ``noise_scale``,

    sigma = 4 L eta sqrt(d) / eps            (delta = 0: Laplace)
    sigma = 4 L eta sqrt(ln(1/delta)) / eps  (delta > 0: Gaussian)

where L is the clip level and eta the regularization step of the phase
whose minimizer is being released.

``empirical_epsilon`` lower-bounds the realized privacy loss of a scalar
mechanism by comparing outcome histograms on two neighboring datasets:
64 equal-width bins over the caller's clamp window, add-one smoothing,
and the maximum absolute log ratio across bins. The mechanism is batched:
``mechanism(data, generator, size) -> ndarray`` returns ``size``
independent releases at once, and the audit calls it twice per estimate,
first for every trial on the first dataset, then for every trial on the
second, from one shared generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _check_count, _check_positive
from .problems import PrivacyBudget


class InconclusiveAuditError(RuntimeError):
    """Too little histogram mass to state a privacy-loss estimate."""


@dataclass(frozen=True)
class RngStream:
    """Named random stream: (seed, stream) -> reproducible Generator."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        _check_count("seed", self.seed, lo=0)
        _check_count("stream", self.stream, lo=0)

    def generator(self) -> np.random.Generator:
        """Fresh generator at this stream's initial state (replayable)."""
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(seq))


def as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ValueError(f"need an RngStream or numpy Generator, got {type(rng).__name__}")


def release_noise(sigmas, d: int, rng, budget: PrivacyBudget) -> np.ndarray:
    """Noise for P releases in one draw: row i holds d i.i.d. coordinates
    of scale ``sigmas[i]``, Gaussian N(0, sigma^2) when the budget's
    delta > 0 and Laplace(0, sigma) (std sigma * sqrt(2)) otherwise.

    The draw is ``(P, d)`` unit-scale variates times ``sigmas[:, None]``,
    which on numpy's Generator equals P successive ``laplace(0, sigma_i,
    d)`` (or ``normal``) calls bit for bit and leaves the generator in the
    same state.
    """
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.ndim != 1:
        raise ValueError(f"noise scales must be one-dimensional, got shape {sigmas.shape}")
    if not np.all(sigmas > 0):
        raise ValueError(f"noise scales must be positive, got {sigmas}")
    _check_count("d", d, lo=0)
    gen = as_generator(rng)
    draw = gen.normal if budget.delta > 0 else gen.laplace
    return draw(0.0, 1.0, size=(sigmas.shape[0], d)) * sigmas[:, None]


def noise_scale(L: float, eta: float, d: int, budget: PrivacyBudget) -> float:
    """Per-coordinate scale 4 L eta sqrt(d) / eps (Laplace, pure DP) or
    4 L eta sqrt(ln(1/delta)) / eps (Gaussian, delta > 0) for output
    perturbation at clip level L and step eta; an infinite eps (no
    privacy) gives scale zero."""
    _check_positive("L", L)
    _check_positive("eta", eta)
    _check_count("d", d)
    delta = budget.delta
    return 4.0 * L * eta * math.sqrt(math.log(1.0 / delta) if delta > 0 else d) / budget.eps


# histogram bins of every audit estimate
_AUDIT_BINS = 64


@dataclass(frozen=True)
class AuditConfig:
    """Histogram-audit knobs: the (lo, hi) window outcomes are clamped to
    before binning, and the trials per dataset; trials below 10^4 give
    estimates too noisy to act on, so smaller values are rejected
    outright."""

    clamp: tuple[float, float]
    trials: int = 10_000

    def __post_init__(self):
        _check_count("trials", self.trials, lo=10_000)
        if not self.clamp[0] < self.clamp[1]:
            raise ValueError(f"clamp range must be increasing, got {self.clamp}")


def _check_neighbors(data_a, data_b):
    a, b = np.asarray(data_a, dtype=np.float64), np.asarray(data_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"neighboring datasets must share a shape, got {a.shape} vs {b.shape}")
    rows_differ = (
        (a != b).any(axis=tuple(range(1, a.ndim))) if a.ndim > 1 else (a != b)
    )
    if int(rows_differ.sum()) > 1:
        raise ValueError("datasets must differ in at most one element")


def _release_batch(mechanism, data, gen, size: int) -> np.ndarray:
    out = np.asarray(mechanism(data, gen, size), dtype=np.float64)
    if out.shape != (size,):
        raise ValueError(f"mechanism must return an array of shape ({size},), got shape {out.shape}")
    return out


def empirical_epsilon(mechanism, data_a, data_b, cfg: AuditConfig, rng) -> float:
    """Histogram lower bound on the privacy loss of a scalar mechanism.

    ``mechanism(data, generator, size) -> ndarray`` returns ``size``
    independent releases on ``data`` as an array of shape ``(size,)``.
    It is called once per dataset with ``size=cfg.trials``: first on
    ``data_a``, then on ``data_b``, both from the one generator built
    from ``rng``. Raises ValueError when a release batch has any other
    shape, and InconclusiveAuditError when the clamped outcomes
    concentrate in fewer than two bins (no ratio to measure).
    """
    _check_neighbors(data_a, data_b)
    gen = as_generator(rng)
    out_a = _release_batch(mechanism, data_a, gen, cfg.trials)
    out_b = _release_batch(mechanism, data_b, gen, cfg.trials)
    lo, hi = cfg.clamp
    edges = np.linspace(lo, hi, _AUDIT_BINS + 1)
    counts_a, _ = np.histogram(np.clip(out_a, lo, hi), bins=edges)
    counts_b, _ = np.histogram(np.clip(out_b, lo, hi), bins=edges)
    occupied = int(((counts_a + counts_b) > 0).sum())
    if occupied < 2:
        raise InconclusiveAuditError(f"outcomes landed in {occupied} bin(s); widen the clamp")
    # add-one smoothing keeps empty bins from producing infinite ratios
    p_a = (counts_a + 1.0) / (cfg.trials + _AUDIT_BINS)
    p_b = (counts_b + 1.0) / (cfg.trials + _AUDIT_BINS)
    return float(np.abs(np.log(p_a / p_b)).max())
