"""Loss families, Lipschitzian extensions, and batch gradient helpers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracles
from dpsco import (
    IndicatorQuadratic,
    QuadraticAnchor,
    SmoothedHingeMargin,
    batch_gradients,
    batch_values,
    clip_gradients,
    lip_ext_gradient,
    lip_ext_value,
    loss_gradient,
    loss_value,
)
from dpsco.losses import _row_norms

QA = QuadraticAnchor(H=1.0)
IQ = IndicatorQuadratic(H=1.0)
HINGE = SmoothedHingeMargin(margin=1.0)


def _families():
    return [("quad", QA), ("indicator", IQ), ("hinge", HINGE)]


def _raw(kind, x, payload, label):
    if kind == "quad":
        return _oracles.quad_loss(1.0, payload)(x[None])[0]
    if kind == "indicator":
        return _oracles.indicator_quad_loss(1.0, payload)(x[None])[0]
    return _oracles.hinge_loss(1.0, 0.5, payload, label)(x[None])[0]


# ---------------------------------------------------------------- raw losses


def test_quadratic_anchor_worked_example():
    assert loss_value(QA, [0.0, 0.0], [1.0, 0.0]) == 0.5
    assert np.array_equal(loss_gradient(QA, [2.0, 0.0], [0.0, 0.0]), [2.0, 0.0])


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        QuadraticAnchor(H=0.0)
    with pytest.raises(ValueError):
        IndicatorQuadratic(H=-1.0)
    with pytest.raises(ValueError):
        SmoothedHingeMargin(margin=0.0)


def test_hinge_tau_defaults_to_half_margin():
    fam = SmoothedHingeMargin(margin=0.8)
    assert fam.tau == 0.4


def test_indicator_zero_payload_gates_the_loss_off():
    zero = np.zeros(2)
    x = np.array([3.0, -1.0])
    assert loss_value(IQ, x, zero) == 0.0
    assert np.array_equal(loss_gradient(IQ, x, zero), zero)
    # nonzero payload behaves exactly like the plain quadratic
    s = np.array([1.0, 0.0])
    assert loss_value(IQ, x, s) == loss_value(QA, x, s)


def test_hinge_label_contract():
    s = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        loss_value(HINGE, [0.0, 0.0], s)  # label required
    with pytest.raises(ValueError):
        loss_value(QA, [0.0, 0.0], s, label=1.0)  # label rejected


def test_hinge_piecewise_branches():
    s = np.array([1.0, 0.0])
    # y<a,x> = 2 >= margin: flat zero region
    assert loss_value(HINGE, [2.0, 0.0], s, label=1.0) == 0.0
    assert np.array_equal(loss_gradient(HINGE, [2.0, 0.0], s, label=1.0), [0.0, 0.0])
    # margin - y<a,x> = 1 > tau: linear branch value = u - tau/2
    assert loss_value(HINGE, [0.0, 0.0], s, label=1.0) == pytest.approx(0.75, abs=1e-15)
    assert np.allclose(loss_gradient(HINGE, [0.0, 0.0], s, label=1.0), [-1.0, 0.0])
    # 0 < u <= tau: quadratic branch value = u^2 / (2 tau)
    assert loss_value(HINGE, [0.75, 0.0], s, label=1.0) == pytest.approx(
        0.25**2 / 1.0, abs=1e-15
    )


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(62)
    for kind, fam in _families():
        for _ in range(100):
            d = int(rng.integers(1, 4))
            x = 1.5 * rng.standard_normal(d)
            s = 1.5 * rng.standard_normal(d)
            label = float(rng.choice([-1.0, 1.0])) if kind == "hinge" else None
            if kind == "hinge":
                s = s / max(np.linalg.norm(s), 1e-9)  # keep kinks away from x
                margin_arg = label * float(s @ x)
                if min(abs(margin_arg - 1.0), abs(margin_arg - 0.5)) < 1e-3:
                    continue  # on a smoothing seam, FD is one-sided
            grad = loss_gradient(fam, x, s, label=label)
            fd = _oracles.fd_gradient(
                lambda z: np.array([loss_value(fam, p, s, label=label) for p in z]), x
            )
            scale = max(1.0, np.linalg.norm(grad))
            assert np.linalg.norm(grad - fd) <= 1e-5 * scale


# ------------------------------------------------------------- extensions


def test_extension_worked_example_one_dimensional():
    x, s = np.array([3.0]), np.array([0.0])
    assert lip_ext_value(QA, x, s, None, 1.0) == pytest.approx(2.5, abs=1e-12)
    assert np.allclose(lip_ext_gradient(QA, x, s, None, 1.0), [1.0])
    assert np.allclose(_oracles.ext_argmin("quad", _oracles.Query(x, s, 1.0, None)),
                       [1.0], atol=1e-12)


def test_extension_query_validation():
    for ext in (lip_ext_value, lip_ext_gradient):
        with pytest.raises(ValueError, match="^clip level must be a positive real, got 0.0$"):
            ext(QA, [1.0], [0.0], None, 0.0)
        with pytest.raises(ValueError, match="^point has dimension 1, expected 2$"):
            ext(QA, [1.0, 2.0], [0.0], None, 1.0)


def test_extension_equals_loss_in_the_unclipped_region():
    rng = np.random.default_rng(63)
    checked = 0
    while checked < 1000:
        kind, fam = _families()[int(rng.integers(0, 3))]
        d = int(rng.integers(1, 3))
        x = 1.5 * rng.standard_normal(d)
        s = 1.5 * rng.standard_normal(d)
        label = float(rng.choice([-1.0, 1.0])) if kind == "hinge" else None
        clip = float(rng.uniform(0.5, 3.0))
        grad = loss_gradient(fam, x, s, label=label)
        if np.linalg.norm(grad) > clip - 1e-6:
            continue
        value = lip_ext_value(fam, x, s, label, clip)
        assert abs(value - loss_value(fam, x, s, label=label)) <= 1e-9
        assert np.allclose(lip_ext_gradient(fam, x, s, label, clip), grad, atol=1e-9)
        checked += 1


def test_extension_gradient_norm_never_exceeds_clip():
    rng = np.random.default_rng(64)
    for _ in range(1000):
        kind, fam = _families()[int(rng.integers(0, 3))]
        d = int(rng.integers(1, 3))
        x = 4.0 * rng.standard_normal(d)
        s = 1.5 * rng.standard_normal(d)
        label = float(rng.choice([-1.0, 1.0])) if kind == "hinge" else None
        clip = float(rng.uniform(0.2, 2.0))
        if kind == "hinge" and np.linalg.norm(s) <= 1e-9:
            continue
        norm = float(np.linalg.norm(lip_ext_gradient(fam, x, s, label, clip)))
        assert norm <= clip * (1 + 1e-12)


def test_clipped_quadratic_gradient_points_away_from_anchor():
    grad = lip_ext_gradient(QA, [3.0, 4.0], [0.0, 0.0], None, 1.0)
    assert np.allclose(grad, np.array([0.6, 0.8]), atol=1e-12)
    assert np.linalg.norm(grad) == pytest.approx(1.0, abs=1e-12)


def test_huber_branch_boundary_is_bitwise_continuous():
    # At distance r = clip / H the two quadratic-extension branches meet;
    # the gradient there must equal the raw gradient exactly.
    for clip in (1.0, 0.5, 2.0):
        x = np.array([clip / 1.0, 0.0])  # H = 1 so the knee is at r = clip
        raw = loss_gradient(QA, x, [0.0, 0.0])
        assert np.array_equal(lip_ext_gradient(QA, x, [0.0, 0.0], None, clip), raw)


def test_extension_argmin_attains_the_extension_value():
    rng = np.random.default_rng(65)
    for _ in range(300):
        kind, fam = _families()[int(rng.integers(0, 3))]
        d = int(rng.integers(1, 3))
        x = 3.0 * rng.standard_normal(d)
        s = 1.5 * rng.standard_normal(d)
        label = float(rng.choice([-1.0, 1.0])) if kind == "hinge" else None
        if kind == "hinge":
            nrm = np.linalg.norm(s)
            if nrm <= 1e-6:
                continue
            s = s * float(rng.uniform(0.6, 2.0)) / nrm
        clip = float(rng.uniform(0.3, 2.0))
        y = _oracles.ext_argmin(kind, _oracles.Query(x, s, clip, label))
        attained = loss_value(fam, y, s, label=label) + clip * float(
            np.linalg.norm(np.asarray(x, dtype=float) - y)
        )
        value = lip_ext_value(fam, x, s, label, clip)
        assert abs(attained - value) <= 1e-9 * max(1.0, abs(attained))


def test_extension_value_is_convex_along_lines():
    rng = np.random.default_rng(66)
    for _ in range(200):
        kind, fam = _families()[int(rng.integers(0, 3))]
        d = 2
        s = 1.5 * rng.standard_normal(d)
        label = float(rng.choice([-1.0, 1.0])) if kind == "hinge" else None
        if kind == "hinge":
            nrm = np.linalg.norm(s)
            if nrm <= 1e-6:
                continue
            s = s / nrm
        clip = float(rng.uniform(0.3, 2.0))
        a = 3.0 * rng.standard_normal(d)
        b = 3.0 * rng.standard_normal(d)

        def val(p):
            return lip_ext_value(fam, p, s, label, clip)

        va, vb, vm = val(a), val(b), val(0.5 * (a + b))
        assert vm <= 0.5 * (va + vb) + 1e-9


def test_extension_gradient_matches_finite_differences_off_the_knee():
    rng = np.random.default_rng(67)
    checked = 0
    while checked < 150:
        kind, fam = _families()[int(rng.integers(0, 3))]
        d = int(rng.integers(1, 3))
        x = 3.0 * rng.standard_normal(d)
        s = 1.5 * rng.standard_normal(d)
        label = float(rng.choice([-1.0, 1.0])) if kind == "hinge" else None
        if kind == "hinge":
            nrm = np.linalg.norm(s)
            if nrm <= 1e-6:
                continue
            s = s * float(rng.uniform(0.6, 2.0)) / nrm
        clip = float(rng.uniform(0.3, 2.0))
        raw_norm = np.linalg.norm(loss_gradient(fam, x, s, label=label))
        if abs(raw_norm - clip) < 1e-2:
            continue  # too close to the clip knee for two-sided FD
        if kind == "hinge":
            margin_arg = label * float(s @ x)
            seams = (abs(margin_arg - 1.0), abs(margin_arg - 0.5))
            if min(seams) < 1e-2:
                continue
        grad = lip_ext_gradient(fam, x, s, label, clip)

        def val(z):
            return np.array([lip_ext_value(fam, p, s, label, clip) for p in z])

        fd = _oracles.fd_gradient(val, x)
        assert np.linalg.norm(grad - fd) <= 2e-5 * max(1.0, np.linalg.norm(grad))
        checked += 1


def test_extension_agrees_with_grid_infimal_convolution():
    rng = np.random.default_rng(68)
    for kind in ("quad", "indicator", "hinge"):
        for q in _oracles.make_queries(kind, 40, rng):
            fam = {"quad": QA, "indicator": IQ, "hinge": HINGE}[kind]
            f = _oracles.raw_loss_for(kind, q)
            conv = _oracles.grid_infconv(f, q.x, q.L)
            assert abs(lip_ext_value(fam, q.x, q.payload, q.label, q.L) - conv.value) <= 1e-3
            status, grad = _oracles.gradient_oracle(f, q.x, q.L, conv)
            if status != "boundary":
                lib = lip_ext_gradient(fam, q.x, q.payload, q.label, q.L)
                assert np.linalg.norm(lib - grad) <= 1e-3


# ------------------------------------------------------------ batch helpers


def test_batch_values_and_gradients_match_singles():
    rng = np.random.default_rng(69)
    x = rng.standard_normal(2)
    pts = 1.5 * rng.standard_normal((50, 2))
    labels = rng.choice([-1.0, 1.0], size=50)
    for kind, fam in _families():
        lab = labels if kind == "hinge" else None
        vals = batch_values(fam, x, pts, lab)
        grads = batch_gradients(fam, x, pts, lab)
        assert vals.shape == (50,) and grads.shape == (50, 2)
        for i in range(50):
            li = labels[i] if kind == "hinge" else None
            assert vals[i] == pytest.approx(loss_value(fam, x, pts[i], label=li), abs=1e-12)
            assert np.allclose(grads[i], loss_gradient(fam, x, pts[i], label=li), atol=1e-12)
        # row for row, the block the solvers clip equals the single-sample extension
        block = pts.copy()
        block[::10] = 0.0  # rows the indicator family switches off
        norms = np.linalg.norm(batch_gradients(fam, x, block, lab), axis=1)
        clip = float(np.median(norms[norms > 0]))
        assert 0 < np.count_nonzero(norms > clip) < 50
        ext, _ = clip_gradients(batch_gradients(fam, x, block, lab), clip)
        for i in range(50):
            li = labels[i] if kind == "hinge" else None
            single = lip_ext_gradient(fam, x, block[i], li, clip)
            assert np.allclose(ext[i], single, rtol=0, atol=1e-12)


def test_clip_gradients_identity_when_nothing_clips():
    grads = np.array([[0.3, 0.4], [0.0, -0.5]])
    out, consumed = clip_gradients(grads, 1.0)
    assert out is grads  # bitwise untouched path
    assert np.allclose(consumed, [0.5, 0.5], atol=1e-15)
    out_inf, _ = clip_gradients(grads, math.inf)
    assert out_inf is grads


def test_clip_gradients_scales_onto_the_clip_sphere():
    grads = np.array([[3.0, 4.0], [0.1, 0.0]])
    out, consumed = clip_gradients(grads, 1.0)
    assert out is not grads
    assert np.allclose(out[0], [0.6, 0.8], atol=1e-12)
    assert np.array_equal(out[1], grads[1])
    # consumed is recomputed from the clipped rows
    assert consumed[0] == pytest.approx(np.linalg.norm(out[0]), abs=0)
    assert consumed[0] <= 1.0 + 1e-12
    assert consumed[1] == pytest.approx(0.1, abs=1e-15)


def test_clip_gradients_over_a_loss_batch_keeps_direction_and_bounds_norm():
    rng = np.random.default_rng(70)
    x = np.array([2.0, -1.0])
    pts = 1.5 * rng.standard_normal((30, 2))
    raw = batch_gradients(QA, x, pts, None)
    raw_norms = np.linalg.norm(raw, axis=1)
    clipped = raw_norms > 0.7
    assert 0 < np.count_nonzero(clipped) < 30
    out, consumed = clip_gradients(raw, 0.7)
    assert np.all(consumed <= 0.7 + 1e-12)
    assert np.array_equal(out[~clipped], raw[~clipped])
    assert np.allclose(np.linalg.norm(out[clipped], axis=1), 0.7, rtol=0, atol=1e-12)
    assert np.allclose(out[clipped] * raw_norms[clipped, None], 0.7 * raw[clipped],
                       rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["quad", "indicator"]),
    d=st.integers(1, 9),
    k=st.integers(1, 5),
    n0=st.integers(1, 300),
    off=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="indicator", d=1, k=3, n0=200, off=0.4, seed=3)  # pairwise sums at d = 1
def test_block_forms_equal_the_per_slice_forms(kind, d, k, n0, off, seed):
    # the block walk sums, masks, differentiates and measures a (k, n0, d)
    # block in one call each; every slice must give the bits of the
    # one-slice forms, signed zeros included, at every d (at d = 1 numpy
    # sums a slice pairwise, so padding off rows would move its bits)
    fam = QA if kind == "quad" else IQ
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((k, n0, d)) * 10.0 ** rng.integers(-3, 4, (k, n0, 1))
    block[rng.random((k, n0)) < off] = 0.0
    block[rng.random(block.shape) < 0.05] = -0.0
    points = rng.standard_normal((k, d))
    means, counts, pulls = fam.block_anchors(block)
    grads = fam.gradients(points, block)
    norms = _row_norms(block)
    for i in range(k):
        anchors = fam.anchors(block[i])
        if anchors.shape[0]:
            assert means[i].tobytes() == anchors.mean(axis=0).tobytes()
        assert counts[i] == anchors.shape[0]
        assert np.array_equal(block[i][pulls[i]], anchors)
        assert grads[i].tobytes() == fam.gradients(points[i], block[i]).tobytes()
        assert norms[i].tobytes() == _row_norms(block[i]).tobytes()
