"""Random streams, release noise, noise-scale formulas, and the audit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsco import (
    AuditConfig,
    InconclusiveAuditError,
    PrivacyBudget,
    RngStream,
    as_generator,
    empirical_epsilon,
    noise_scale,
    release_noise,
)

PURE = PrivacyBudget(1.0)
GAUSS = PrivacyBudget(1.0, 1e-6)

# ---------------------------------------------------------------- streams


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(1.5)
    with pytest.raises(ValueError):
        RngStream(0, stream=-2)


def test_rng_stream_replays_bit_for_bit():
    a = RngStream(7, 3).generator().standard_normal(100)
    b = RngStream(7, 3).generator().standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_streams_are_empirically_uncorrelated():
    n = 100_000
    a = RngStream(123, 0).generator().standard_normal(n)
    b = RngStream(123, 1).generator().standard_normal(n)
    c = RngStream(124, 0).generator().standard_normal(n)
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.01
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.01
    assert not np.array_equal(a, b)


def test_as_generator_accepts_streams_and_generators():
    gen = RngStream(1).generator()
    assert as_generator(gen) is gen
    assert isinstance(as_generator(RngStream(1)), np.random.Generator)
    with pytest.raises(ValueError):
        as_generator(42)


# ------------------------------------------------------------ release noise


def test_laplace_vector_moments():
    draws = release_noise([2.0], 1_000_000, RngStream(11, 0), PURE)[0]
    assert abs(draws.std() - 2.0 * math.sqrt(2.0)) <= 0.01 * 2.0 * math.sqrt(2.0)
    assert abs(draws.mean()) <= 0.02


def test_gaussian_vector_moments_and_tail():
    sigma = 1.5
    draws = release_noise([sigma], 1_000_000, RngStream(12, 0), GAUSS)[0]
    assert abs(draws.mean()) <= 4.0 * sigma / 1000.0
    assert abs(draws.std() - sigma) <= 0.01 * sigma
    tail = float(np.mean(np.abs(draws) > 1.96 * sigma))
    assert abs(tail - 0.05) <= 0.01


def test_noise_vector_edge_cases():
    for budget in (PURE, GAUSS):
        assert release_noise([1.0], 0, RngStream(0), budget).shape == (1, 0)
        assert release_noise([], 3, RngStream(0), budget).shape == (0, 3)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                release_noise([1.0, bad], 3, RngStream(0), budget)
        with pytest.raises(ValueError):
            release_noise([1.0], -1, RngStream(0), budget)
        with pytest.raises(ValueError):
            release_noise([[1.0]], 3, RngStream(0), budget)


def test_noise_vectors_replay_per_stream():
    a = release_noise([1.0], 16, RngStream(9, 4), PURE)
    b = release_noise([1.0], 16, RngStream(9, 4), PURE)
    c = release_noise([1.0], 16, RngStream(9, 5), PURE)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 9),
    sigmas=st.lists(st.floats(1e-12, 1e6), min_size=0, max_size=12),
    gaussian=st.booleans(),
)
def test_release_noise_equals_one_draw_per_release(seed, d, sigmas, gaussian):
    # the executor draws a run's noise in one batch; that batch must be the
    # per-release draws byte for byte, with the generator left where they leave it
    batch_gen, loop_gen = RngStream(seed).generator(), RngStream(seed).generator()
    batch = release_noise(sigmas, d, batch_gen, GAUSS if gaussian else PURE)
    draw = loop_gen.normal if gaussian else loop_gen.laplace
    loop = np.array([draw(0.0, s, size=d) for s in sigmas]).reshape(len(sigmas), d)
    assert batch.tobytes() == loop.tobytes()
    assert batch_gen.bit_generator.state == loop_gen.bit_generator.state


# ------------------------------------------------------------ scale formulas


def test_pure_noise_scale_worked_examples():
    half = PrivacyBudget(0.5)
    assert noise_scale(1.0, 0.01, 4, half) == 0.16
    assert noise_scale(1.0, 1.0, 1, PrivacyBudget(4.0)) == 1.0
    base = noise_scale(1.0, 0.01, 4, half)
    assert noise_scale(1.0, 0.02, 4, half) == 2.0 * base


def test_approx_noise_scale_worked_examples():
    def scale(L, eta, eps, delta):
        return noise_scale(L, eta, 2, PrivacyBudget(eps, delta))

    assert scale(1.0, 1.0, 4.0, math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)
    assert scale(2.0, 0.5, 1.0, math.exp(-4.0)) == pytest.approx(8.0, abs=1e-12)
    # shrinking delta costs more noise
    assert scale(1.0, 1.0, 1.0, 1e-6) > scale(1.0, 1.0, 1.0, 1e-2)
    # the Gaussian scale does not depend on d
    assert noise_scale(1.0, 1.0, 9, GAUSS) == noise_scale(1.0, 1.0, 1, GAUSS)


def test_noise_scale_validation():
    with pytest.raises(ValueError):
        noise_scale(0.0, 1.0, 1, PURE)
    with pytest.raises(ValueError):
        noise_scale(1.0, 1.0, 0, PURE)
    with pytest.raises(ValueError):
        noise_scale(1.0, 1.0, 0, GAUSS)
    with pytest.raises(ValueError):
        noise_scale(1.0, 1.0, 1, PrivacyBudget(1.0, 1.0))


# ------------------------------------------------------------------- audit


# a clamp window around the test mechanisms' outcomes on _neighbors()
CLAMP = (-1.0, 2.0)


def test_audit_config_validation():
    AuditConfig(CLAMP, trials=10_000)
    with pytest.raises(ValueError):
        AuditConfig(CLAMP, trials=9_999)
    with pytest.raises(ValueError):
        AuditConfig(clamp=(1.0, -1.0))


def _mean_release(scale):
    def mech(data, gen, size):
        return np.mean(data) + gen.laplace(0.0, scale, size=size)

    return mech


def _mean_release_per_trial(scale):
    """Reference for _mean_release: one scalar Laplace draw per trial."""

    def mech(data, gen, size):
        return np.array([float(np.mean(data) + gen.laplace(0.0, scale)) for _ in range(size)])

    return mech


def _neighbors(n=100):
    a = np.zeros(n)
    b = a.copy()
    b[0] = 1.0
    return a, b


def test_audit_detects_a_calibrated_mechanism():
    # mean release with Laplace(1/(n*eps)) noise is exactly eps-private;
    # the histogram bound should land near (and never far above) eps = 1.
    n, eps = 100, 1.0
    scale = 1.0 / (n * eps)
    a, b = _neighbors(n)
    cfg = AuditConfig(trials=100_000, clamp=(-4.0 * scale, 1.0 / n + 4.0 * scale))
    est = empirical_epsilon(_mean_release(scale), a, b, cfg, RngStream(4242, 0))
    assert 0.5 <= est <= 1.3


def test_audit_reports_noise_floor_on_identical_datasets():
    n, eps = 100, 1.0
    scale = 1.0 / (n * eps)
    a, _ = _neighbors(n)
    # 4x the trials over 4x the bins of a 16-bin histogram at 10^5
    # trials: the same expected count per bin, so the same noise floor
    cfg = AuditConfig(trials=400_000, clamp=(-2.0 * scale, 2.0 * scale))
    est = empirical_epsilon(_mean_release(scale), a, a.copy(), cfg, RngStream(4242, 0))
    assert est <= 0.1


def test_audit_flags_an_underscaled_mechanism():
    # half the required noise must blow past the claimed eps = 1 level
    n, eps = 100, 1.0
    claimed = 1.0 / (n * eps)
    a, b = _neighbors(n)
    cfg = AuditConfig(trials=100_000, clamp=(-4.0 * claimed, 1.0 / n + 4.0 * claimed))
    est = empirical_epsilon(_mean_release(claimed / 2.0), a, b, cfg, RngStream(4242, 60))
    assert est >= 1.5


def test_audit_inconclusive_paths():
    # constant outcomes, or a clamp window far from all outcomes, pile
    # everything into one bin
    a, b = _neighbors()
    with pytest.raises(InconclusiveAuditError, match="widen the clamp"):
        empirical_epsilon(
            lambda data, gen, size: np.zeros(size), a, b, AuditConfig(CLAMP), RngStream(0)
        )
    far = AuditConfig(clamp=(100.0, 101.0))
    with pytest.raises(InconclusiveAuditError, match="widen the clamp"):
        empirical_epsilon(_mean_release(0.01), a, b, far, RngStream(0))


def test_audit_rejects_non_neighboring_datasets():
    a = np.zeros(10)
    b = a.copy()
    b[0] = 1.0
    b[1] = 1.0
    with pytest.raises(ValueError):
        empirical_epsilon(_mean_release(0.1), a, b, AuditConfig(CLAMP), RngStream(0))
    with pytest.raises(ValueError):
        empirical_epsilon(
            _mean_release(0.1), np.zeros(10), np.zeros(11), AuditConfig(CLAMP), RngStream(0)
        )


@pytest.mark.parametrize(
    "mech",
    [
        lambda data, gen, size: float(np.mean(data) + gen.laplace(0.0, 0.01)),
        lambda data, gen, size: _mean_release(0.01)(data, gen, size - 1),
        lambda data, gen, size: _mean_release(0.01)(data, gen, size + 1),
        lambda data, gen, size: _mean_release(0.01)(data, gen, (size, 1)),
    ],
    ids=["scalar", "short", "long", "column"],
)
def test_audit_rejects_a_release_batch_of_the_wrong_shape(mech):
    a, b = _neighbors()
    with pytest.raises(ValueError, match="shape"):
        empirical_epsilon(mech, a, b, AuditConfig(CLAMP), RngStream(0))


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    stream=st.integers(0, 1000),
    scale=st.floats(1e-3, 1.0),
)
def test_batched_audit_equals_the_per_trial_loop(seed, stream, scale):
    # N scalar Laplace draws equal one size=N draw bit for bit, so the
    # batched release and the per-trial loop give the same estimate
    n = 100
    a, b = _neighbors(n)
    cfg = AuditConfig(trials=10_000, clamp=(-4.0 * scale, 1.0 / n + 4.0 * scale))
    batched = empirical_epsilon(_mean_release(scale), a, b, cfg, RngStream(seed, stream))
    looped = empirical_epsilon(_mean_release_per_trial(scale), a, b, cfg, RngStream(seed, stream))
    assert batched == looped
