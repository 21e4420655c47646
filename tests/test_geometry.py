"""Points, balls, and projections."""

import numpy as np
import pytest

from dpsco import Ball, as_point, project_onto_ball


def test_as_point_coerces_scalars_and_lists():
    assert as_point(3.0).shape == (1,)
    arr = as_point([1, 2, 3])
    assert arr.dtype == np.float64 and arr.shape == (3,)


def test_as_point_rejects_bad_inputs():
    with pytest.raises(ValueError):
        as_point(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        as_point([np.nan, 0.0])
    with pytest.raises(ValueError):
        as_point([np.inf])
    with pytest.raises(ValueError):
        as_point([1.0, 2.0], d=3)


def test_ball_validation_and_properties():
    ball = Ball(np.array([1.0, 2.0]), 3.0)
    assert ball.d == 2
    assert ball.diameter == 6.0
    with pytest.raises(ValueError):
        Ball(np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        Ball(np.zeros(2), np.inf)


def test_zero_radius_ball_is_a_point():
    ball = Ball(np.array([1.0]), 0.0)
    assert ball.contains([1.0])
    assert not ball.contains([1.1])


def test_contains_has_boundary_slack():
    ball = Ball(np.zeros(1), 1.0)
    assert ball.contains([1.0])
    assert ball.contains([1.0 + 1e-10])  # inside the 1e-9 slack
    assert not ball.contains([1.0 + 1e-6])


def test_projection_worked_examples():
    unit = Ball(np.zeros(2), 1.0)
    assert np.array_equal(project_onto_ball([3.0, 0.0], unit), [1.0, 0.0])

    inside = project_onto_ball([0.5, 0.0], unit)
    assert np.array_equal(inside, [0.5, 0.0])

    corner = project_onto_ball([1.0, 1.0], unit)
    expect = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(corner, expect, rtol=0, atol=1e-15)


def test_projection_returns_fresh_array_for_interior_points():
    unit = Ball(np.zeros(2), 1.0)
    x = np.array([0.25, 0.25])
    out = project_onto_ball(x, unit)
    assert out is not x
    out[0] = 99.0
    assert x[0] == 0.25


def test_projection_is_idempotent_and_nonexpansive():
    rng = np.random.default_rng(61)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        ball = Ball(rng.standard_normal(d), float(rng.uniform(0.1, 2.0)))
        x = 3.0 * rng.standard_normal(d)
        y = 3.0 * rng.standard_normal(d)
        px, py = project_onto_ball(x, ball), project_onto_ball(y, ball)
        assert ball.contains(px) and ball.contains(py)
        assert np.allclose(project_onto_ball(px, ball), px, rtol=0, atol=1e-15)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_frozen_records_copy_the_caller_arrays():
    from dpsco import (
        InnerSolveConfig, PrivacyBudget, RngStream, Schedule,
        interpolation_localization, make_lower_bound_instance, make_noiseless_least_squares,
    )

    center, xstar, x0, v = np.zeros(2), np.array([0.5, 0.0]), np.zeros(2), np.array([0.5, 0.0])
    ball = Ball(center, 1.0)
    inst = make_noiseless_least_squares(2, 256, xstar, 1.0)
    interpolation_localization(
        inst, x0, Schedule(T=2, m=64, beta=0.1, constant_scale=2e-3), PrivacyBudget(1.0),
        InnerSolveConfig(), RngStream(0),
    )
    make_lower_bound_instance(d=2, n=8, k=2, v=v, H=1.0)
    for arr in (center, xstar, x0, v):
        assert arr.flags.writeable
    assert not ball.center.flags.writeable and not inst.optimum.point.flags.writeable
