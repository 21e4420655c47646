"""Problem instances: risk bookkeeping, schedules, and text round-trips."""

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
    instance_from_text,
    instance_to_text,
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
    c = LossConstants(L=1.0, H=2.0, growth=0.5, kappa=3.0)
    assert c.kappa_floor == 2.0
    with pytest.raises(ValueError):
        LossConstants(L=0.0, H=1.0)
    with pytest.raises(ValueError):
        LossConstants(L=1.0, H=math.inf)
    with pytest.raises(ValueError):
        LossConstants(L=1.0, H=1.0, growth=-1.0)
    with pytest.raises(ValueError):
        LossConstants(L=1.0, H=1.0, kappa=1.5)  # below the floor
    with pytest.raises(ValueError):
        LossConstants(L=1.0, H=1.0, kappa_floor=1.0)


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


def test_optimum_plane_validation_and_distance():
    with pytest.raises(ValueError):
        Optimum(point=[0.0], normal=[1.0])  # offset missing
    with pytest.raises(ValueError):
        Optimum(point=[0.0, 0.0], normal=[0.0, 0.0], offset=0.0)
    with pytest.raises(ValueError):
        Optimum(point=[0.0, 0.0], normal=[1.0, 0.0], offset=0.5)  # witness off plane
    plane = Optimum(point=[0.5, 0.0], normal=[1.0, 0.0], offset=0.5)
    assert plane.is_plane
    assert plane.distance([2.0, 7.0]) == pytest.approx(1.5, abs=1e-12)
    point = Optimum(point=[1.0, 0.0])
    assert point.distance([1.0, 2.0]) == pytest.approx(2.0, abs=1e-12)


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


# ----------------------------------------------------------- serialization


def _roundtrip(inst):
    text = instance_to_text(inst)
    back = instance_from_text(text)
    assert instance_to_text(back) == text  # canonical form is a fixed point
    return back


def test_text_roundtrip_quadratic_exact():
    rng = np.random.default_rng(71)
    inst = _ls_instance(1.5 * rng.standard_normal((7, 2)))
    back = _roundtrip(inst)
    assert np.array_equal(back.dataset.points, inst.dataset.points)
    assert np.array_equal(back.domain.center, inst.domain.center)
    assert back.domain.radius == inst.domain.radius
    assert back.constants == inst.constants
    assert back.optimum is None


def test_text_roundtrip_hinge_with_labels_and_point_optimum():
    inst = Instance(
        family=SmoothedHingeMargin(margin=1.0, tau=0.25),
        dataset=Dataset([[1.0, 0.0], [0.0, -1.0]], labels=[1.0, -1.0]),
        domain=Ball(np.zeros(2), 4.0),
        constants=LossConstants(L=1.0, H=4.0),
        optimum=Optimum(point=[1.25, -1.25]),
    )
    back = _roundtrip(inst)
    assert isinstance(back.family, SmoothedHingeMargin)
    assert back.family.tau == 0.25
    assert np.array_equal(back.dataset.labels, inst.dataset.labels)
    assert np.array_equal(back.optimum.point, inst.optimum.point)
    # a negative tau is rejected, not read as the margin / 2 default
    bad = instance_to_text(inst).replace("params 1.0 0.25", "params 0.25 -1.0")
    with pytest.raises(ValueError, match="tau"):
        instance_from_text(bad)


def test_text_roundtrip_plane_optimum_and_indicator():
    plane_inst = Instance(
        family=QuadraticAnchor(H=1.0),
        dataset=Dataset([[0.5, 0.0], [0.5, 0.0]]),
        domain=Ball(np.zeros(2), 2.0),
        constants=LossConstants(L=2.5, H=1.0, growth=1.0),
        optimum=Optimum(point=[0.5, 0.0], normal=[1.0, 0.0], offset=0.5),
    )
    back = _roundtrip(plane_inst)
    assert back.optimum.is_plane
    assert np.array_equal(back.optimum.normal, [1.0, 0.0])
    assert back.optimum.offset == 0.5

    iq = Instance(
        family=IndicatorQuadratic(H=2.0),
        dataset=Dataset([[0.0], [0.3], [0.0]]),
        domain=Ball(np.zeros(1), 1.0),
        constants=LossConstants(L=2.6, H=2.0),
    )
    back = _roundtrip(iq)
    assert isinstance(back.family, IndicatorQuadratic)
    assert np.array_equal(back.dataset.points, iq.dataset.points)


def test_text_parse_error_paths():
    good = instance_to_text(_ls_instance([1.0, 2.0]))
    with pytest.raises(ValueError):
        instance_from_text("garbage\n" + good)
    with pytest.raises(ValueError):
        instance_from_text(good.replace("family quadratic-anchor", "family mystery"))
    with pytest.raises(ValueError):
        instance_from_text(good.replace("optimum none", "optimum sphere 1.0"))
    truncated = "\n".join(good.strip().splitlines()[:-1]) + "\n"
    with pytest.raises(ValueError):
        instance_from_text(truncated)  # payload row count mismatch
    with pytest.raises(ValueError):
        instance_from_text(good + "0.25\n")  # extra payload row
