"""Problem instances: validation, risk bookkeeping, and schedules."""

import math

import numpy as np
import pytest

from dpsco import (
    Ball,
    Dataset,
    Instance,
    LossConstants,
    Optimum,
    PrivacyBudget,
    QuadraticAnchor,
    Schedule,
    SmoothedHingeMargin,
    UnsupportedFamilyError,
    exact_minimizer,
    excess_risk,
    interpolation_certificate,
    is_interpolating,
    population_value,
)
from dpsco.losses import IndicatorQuadratic


def _ls_instance(anchors, radius=5.0, H=1.0, optimum=None):
    pts = np.atleast_2d(np.asarray(anchors, dtype=float))
    if pts.shape[0] == 1 and np.asarray(anchors).ndim == 1:
        pts = np.asarray(anchors, dtype=float)[:, None]
    d = pts.shape[1]
    return Instance(
        family=QuadraticAnchor(H=H),
        dataset=Dataset(pts),
        domain=Ball(np.zeros(d), radius),
        constants=LossConstants(L=H * (np.abs(pts).max() + radius), H=H, growth=H),
        optimum=optimum,
    )


# --------------------------------------------------------------- validation


def test_privacy_budget_validation():
    assert PrivacyBudget(1.0).delta == 0.0
    assert PrivacyBudget(math.inf, 0.0).eps == math.inf  # budget-off sentinel
    with pytest.raises(ValueError):
        PrivacyBudget(0.0)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, delta=1.0)
    with pytest.raises(ValueError):
        PrivacyBudget(1.0, delta=-0.1)


def test_loss_constants_validation():
    LossConstants(L=1.0, H=2.0, growth=0.5, kappa=3.0)
    with pytest.raises(ValueError):
        LossConstants(L=0.0, H=1.0)
    with pytest.raises(ValueError):
        LossConstants(L=1.0, H=math.inf)
    with pytest.raises(ValueError):
        LossConstants(L=1.0, H=1.0, growth=-1.0)
    with pytest.raises(ValueError):
        LossConstants(L=1.0, H=1.0, kappa=1.5)  # below the floor of 2


def test_dataset_validation_and_immutability():
    ds = Dataset([[1.0, 2.0], [3.0, 4.0]])
    assert ds.n == 2 and ds.d == 2
    with pytest.raises(ValueError):
        ds.points[0, 0] = 9.0
    one_d = Dataset([1.0, 2.0, 3.0])
    assert one_d.points.shape == (3, 1)
    with pytest.raises(ValueError):
        Dataset([[np.nan, 0.0]])
    with pytest.raises(ValueError):
        Dataset([[1.0]], labels=[0.5])  # labels must be +/-1
    with pytest.raises(ValueError):
        Dataset([[1.0], [2.0]], labels=[1.0])  # label count mismatch


def test_instance_cross_validation():
    with pytest.raises(ValueError):
        Instance(
            family=QuadraticAnchor(H=1.0),
            dataset=Dataset([[1.0, 0.0]]),
            domain=Ball(np.zeros(3), 1.0),  # dimension mismatch
            constants=LossConstants(L=1.0, H=1.0),
        )
    with pytest.raises(ValueError):
        Instance(
            family=QuadraticAnchor(H=2.0),
            dataset=Dataset([[1.0]]),
            domain=Ball(np.zeros(1), 1.0),
            constants=LossConstants(L=1.0, H=1.0),  # H disagrees with family
        )
    with pytest.raises(ValueError):
        Instance(
            family=QuadraticAnchor(H=1.0),
            dataset=Dataset([[1.0]], labels=None),
            domain=Ball(np.zeros(1), 1.0),
            constants=LossConstants(L=1.0, H=1.0),
            optimum=Optimum(point=[0.9]),  # not the true minimizer
        )
    with pytest.raises(ValueError):
        Instance(
            family=SmoothedHingeMargin(margin=1.0),
            dataset=Dataset([[1.0]]),  # labels required
            domain=Ball(np.zeros(1), 1.0),
            constants=LossConstants(L=1.0, H=1.0),
        )


def test_optimum_point_validation():
    given = np.array([0.5, 0.0])
    opt = Optimum(point=given)
    assert np.array_equal(opt.point, given)
    with pytest.raises(ValueError):
        opt.point[0] = 9.0  # frozen
    given[0] = 9.0  # the caller's array stays its own
    assert opt.point[0] == 0.5
    with pytest.raises(ValueError, match="non-finite"):
        Optimum(point=[np.nan, 0.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        Optimum(point=[[0.5, 0.0]])
    with pytest.raises(ValueError, match="optimum dimension"):
        _ls_instance([[0.5, 0.0]], optimum=Optimum(point=[0.5]))


def test_unlabeled_families_reject_labels():
    for fam in (QuadraticAnchor(H=1.0), IndicatorQuadratic(H=1.0)):
        with pytest.raises(ValueError, match="carry no labels"):
            Instance(
                family=fam,
                dataset=Dataset([[1.0, 0.0], [0.0, 1.0]], labels=[1.0, -1.0]),
                domain=Ball(np.zeros(2), 2.0),
                constants=LossConstants(L=3.0, H=1.0),
            )


def test_instance_rejects_a_family_outside_the_registry():
    class Unregistered(QuadraticAnchor):
        pass

    for fam in (Unregistered(H=1.0), object()):
        with pytest.raises(ValueError, match="unknown loss family"):
            Instance(
                family=fam,
                dataset=Dataset([[1.0]]),
                domain=Ball(np.zeros(1), 1.0),
                constants=LossConstants(L=2.0, H=1.0),
            )


def test_schedule_validation():
    s = Schedule(T=4, m=512, beta=0.05)
    assert s.constant_scale == 1.0
    with pytest.raises(ValueError):
        Schedule(T=0, m=1, beta=0.1)
    with pytest.raises(ValueError):
        Schedule(T=1, m=0, beta=0.1)
    with pytest.raises(ValueError):
        Schedule(T=1, m=1, beta=1.0)
    with pytest.raises(ValueError):
        Schedule(T=1, m=1, beta=0.1, constant_scale=0.0)
    # bool is an int subclass; True would plan a one-epoch or one-sample run
    for sizes in (dict(T=True, m=4), dict(T=4, m=True)):
        with pytest.raises(ValueError, match="must be an integer >= 1, got True"):
            Schedule(beta=0.1, **sizes)


# ------------------------------------------------------------------ risk


def test_population_value_is_the_mean_loss():
    inst = _ls_instance([2.0, 2.0, 2.0])
    assert population_value(inst, [0.0]) == 2.0
    assert population_value(inst, [2.0]) == 0.0


def test_excess_risk_zero_at_minimizer_and_positive_elsewhere():
    inst = _ls_instance([[1.0, 0.0], [3.0, 0.0]])
    xstar = exact_minimizer(inst)
    assert np.allclose(xstar, [2.0, 0.0], atol=1e-15)
    assert excess_risk(inst, xstar) == 0.0
    assert excess_risk(inst, [0.0, 0.0]) == pytest.approx(2.0, abs=1e-12)
    # never negative, even at points numerically indistinguishable from best
    assert excess_risk(inst, xstar + 1e-300) >= 0.0


def test_exact_minimizer_respects_the_domain_ball():
    inst = _ls_instance([[4.0, 0.0]], radius=1.0)
    assert np.allclose(exact_minimizer(inst), [1.0, 0.0], atol=1e-15)


def test_indicator_minimizer_uses_only_active_samples():
    fam = IndicatorQuadratic(H=1.0)
    inst = Instance(
        family=fam,
        dataset=Dataset([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0]]),
        domain=Ball(np.zeros(2), 10.0),
        constants=LossConstants(L=20.0, H=1.0),
    )
    assert np.allclose(exact_minimizer(inst), [3.0, 0.0], atol=1e-15)
    # all-zero payloads leave the objective flat: center is returned
    flat = Instance(
        family=fam,
        dataset=Dataset([[0.0, 0.0]]),
        domain=Ball(np.array([1.0, 1.0]), 2.0),
        constants=LossConstants(L=1.0, H=1.0),
    )
    assert np.array_equal(exact_minimizer(flat), [1.0, 1.0])
    assert excess_risk(flat, [9.0, 9.0]) == 0.0


def test_hinge_minimizer_requires_declared_optimum():
    inst = Instance(
        family=SmoothedHingeMargin(margin=1.0),
        dataset=Dataset([[1.0, 0.0]], labels=[1.0]),
        domain=Ball(np.zeros(2), 3.0),
        constants=LossConstants(L=1.0, H=2.0),
        optimum=Optimum(point=[1.5, 0.0]),
    )
    assert np.allclose(exact_minimizer(inst), [1.5, 0.0], atol=1e-15)
    bare = Instance(
        family=SmoothedHingeMargin(margin=1.0),
        dataset=Dataset([[1.0, 0.0]], labels=[1.0]),
        domain=Ball(np.zeros(2), 3.0),
        constants=LossConstants(L=1.0, H=2.0),
    )
    with pytest.raises(UnsupportedFamilyError):
        exact_minimizer(bare)
    with pytest.raises(UnsupportedFamilyError):
        excess_risk(bare, [0.0, 0.0])


def test_interpolation_certificate_detects_shared_minimizers():
    shared = _ls_instance([[0.5, 0.0], [0.5, 0.0]], optimum=Optimum(point=[0.5, 0.0]))
    assert interpolation_certificate(shared) == 0.0
    assert is_interpolating(shared)
    spread = _ls_instance([[0.0, 0.0], [1.0, 0.0]], optimum=Optimum(point=[0.5, 0.0]))
    assert interpolation_certificate(spread) == pytest.approx(0.5, abs=1e-12)
    assert not is_interpolating(spread)
    with pytest.raises(ValueError):
        interpolation_certificate(_ls_instance([[1.0, 0.0]]))  # no declared optimum

