"""Hard-instance generators and certified hardness checkers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles

from dpsco import (
    Ball,
    Dataset,
    GrowthReport,
    Instance,
    LossConstants,
    QuadraticAnchor,
    Quadratic1D,
    RngStream,
    exact_minimizer,
    excess_risk,
    growth_closure_check,
    interpolation_certificate,
    is_interpolating,
    loss_gradient,
    loss_value,
    make_lower_bound_instance,
    make_margin_classification,
    make_noiseless_least_squares,
    make_noisy_least_squares,
    make_packing,
    modulus_oracle,
    pinch_check,
    population_value,
    stability_bound_check,
    superefficiency_construct,
)

# ------------------------------------------------------- argument checks


def test_lower_bound_instance_validation():
    make_lower_bound_instance(d=2, n=10, k=5, v=[1.0, 0.0], H=1.0)
    with pytest.raises(ValueError, match=r"^k must be an integer in 1\.\.10, got 0$"):
        make_lower_bound_instance(d=2, n=10, k=0, v=[1.0, 0.0], H=1.0)
    with pytest.raises(ValueError, match=r"^k must be an integer in 1\.\.10, got 11$"):
        make_lower_bound_instance(d=2, n=10, k=11, v=[1.0, 0.0], H=1.0)
    off = r"^v must be nonzero \(the zero payload is the off state\)$"
    with pytest.raises(ValueError, match=off):
        make_lower_bound_instance(d=2, n=10, k=5, v=[0.0, 0.0], H=1.0)
    with pytest.raises(ValueError, match="^H must be a positive real, got 0.0$"):
        make_lower_bound_instance(d=2, n=10, k=5, v=[1.0, 0.0], H=0.0)


def test_packing_validation():
    assert make_packing(D=1.0, gamma=0.5, d=3).shape[1] == 3
    with pytest.raises(ValueError, match="^D must be a positive real, got 0.0$"):
        make_packing(D=0.0, gamma=0.1, d=1)
    with pytest.raises(ValueError, match=r"^gamma must lie in \(0, D/2\], got 0.6$"):
        make_packing(D=1.0, gamma=0.6, d=1)  # above D/2
    with pytest.raises(ValueError, match=r"^d must be an integer in 1\.\.3, got 4$"):
        make_packing(D=1.0, gamma=0.25, d=4)


def test_superefficiency_swap_count_validation():
    base = make_noiseless_least_squares(1, 100, [0.0], 1.0, radius=1.0)
    with pytest.raises(ValueError, match="^r must be an integer >= 1, got 0$"):
        superefficiency_construct(base, r=0, anchor=1.0)


# -------------------------------------------------------------- generators


def test_noiseless_least_squares_interpolates_with_growth():
    inst = make_noiseless_least_squares(2, 16, [0.5, 0.0], 2.0)
    assert interpolation_certificate(inst) == 0.0
    assert excess_risk(inst, inst.optimum) == 0.0
    assert inst.constants.growth == 2.0
    assert inst.constants.H == 2.0
    # deterministic: a second call builds the same samples
    again = make_noiseless_least_squares(2, 16, [0.5, 0.0], 2.0)
    assert np.array_equal(inst.dataset.points, again.dataset.points)
    with pytest.raises(ValueError):
        make_noiseless_least_squares(2, 16, [3.0, 0.0], 1.0, radius=1.0)


def test_noisy_least_squares_breaks_interpolation():
    inst = make_noisy_least_squares(2, 64, [0.5, 0.0], 1.0, 0.5, RngStream(40, 0))
    assert not is_interpolating(inst)
    assert interpolation_certificate(inst) > 1e-3
    assert excess_risk(inst, inst.optimum) == 0.0  # mean is still optimal
    with pytest.raises(ValueError):
        make_noisy_least_squares(2, 64, [0.5, 0.0], 1.0, 0.0, RngStream(40, 0))


def test_margin_classification_witness_is_slack():
    inst = make_margin_classification(3, 40, 0.25, RngStream(41, 0))
    assert interpolation_certificate(inst) == 0.0
    assert population_value(inst, inst.optimum) == 0.0
    assert np.all(np.abs(inst.dataset.labels) == 1.0)
    witness = inst.optimum
    fam = inst.family
    # a margin/2 move along any feature direction keeps every loss at zero
    for i in range(inst.n):
        a = inst.dataset.points[i]
        label = float(inst.dataset.labels[i])
        for sign in (1.0, -1.0):
            x = witness + sign * (0.25 / 2.0) * a
            assert loss_value(fam, x, a, label=label) == 0.0
            assert np.all(loss_gradient(fam, x, a, label=label) == 0.0)
    with pytest.raises(ValueError):
        make_margin_classification(3, 10, 0.0, RngStream(0))


def _assert_matches_per_row_draw(d, n, margin, seed):
    _assert_draws_match(d, n, margin, np.random.default_rng(seed), np.random.default_rng(seed))


def _assert_draws_match(d, n, margin, gen, ref_gen):
    inst = make_margin_classification(d, n, margin, gen)
    points, labels, witness = _oracles.margin_features_per_row(d, n, margin, ref_gen)
    assert inst.dataset.points.shape == points.shape
    assert inst.dataset.points.tobytes() == points.tobytes()
    assert inst.dataset.labels.tobytes() == labels.tobytes()
    assert inst.optimum.tobytes() == witness.tobytes()
    assert gen.bit_generator.state == ref_gen.bit_generator.state


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 12),
    n=st.integers(1, 400),
    margin=st.floats(0.05, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_margin_batched_draw_equals_per_row_draw(d, n, margin, seed):
    # the generator draws the rows still needed in one batch per pass; that
    # must be the one-row-at-a-time rejection loop byte for byte, with the
    # caller's generator left where the loop leaves it
    _assert_matches_per_row_draw(d, n, margin, seed)


def test_margin_batched_draw_equals_per_row_draw_at_benchmark_shape():
    _assert_matches_per_row_draw(8, 16384, 0.25, 7)


class _ShrunkRows(np.random.Generator):
    """A Generator whose standard-normal rows of d values come out scaled
    by ``factor`` at chosen positions in its stream, counting the witness
    direction as row 0, so a batched and a one-row draw shrink the same
    rows."""

    def __init__(self, seed, d, rows, factor):
        super().__init__(np.random.PCG64(seed))
        self.d, self.rows, self.factor, self.drawn = d, frozenset(rows), factor, 0

    def standard_normal(self, size=None, *args, **kwargs):
        out = super().standard_normal(size, *args, **kwargs)
        first = self.drawn // self.d
        block = out.reshape(-1, self.d)
        for j in range(block.shape[0]):
            if first + j in self.rows:
                block[j] *= self.factor
        self.drawn += out.size
        return out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    d=st.integers(1, 6),
    n=st.integers(1, 60),
    rows=st.sets(st.integers(1, 150), max_size=40),
    factor=st.sampled_from([0.0, 1e-14]),
    seed=st.integers(0, 2**32 - 1),
)
def test_margin_draw_skips_near_zero_rows_like_the_per_row_draw(d, n, rows, factor, seed):
    # a standard-normal row with norm below 1e-12 has probability about 0,
    # so shrink chosen rows of the stream below it (zero, or 1e-14 times
    # their draw): both draws must skip exactly those rows. Under errstate
    # a zero row that reached the division would raise, and a kept 1e-14
    # row would be a unit feature the per-row draw never has.
    with np.errstate(divide="raise", invalid="raise"):
        _assert_draws_match(d, n, 0.25, *(_ShrunkRows(seed, d, rows, factor) for _ in range(2)))


_SIZE_CASES = [
    pytest.param(
        *((bad, 4) if name == "d" else (2, bad)),
        f"{name} must be an integer >= 1, got {bad!r}",
        id=f"{name}={bad}",
    )
    for name, bad in (("d", 0), ("d", -1), ("d", 2.0), ("d", True), ("n", 0), ("n", -3), ("n", 5.5))
]
_GENERATORS = {
    "noiseless": lambda d, n: make_noiseless_least_squares(d, n, [0.5, 0.0], 1.0),
    "noisy": lambda d, n: make_noisy_least_squares(d, n, [0.5, 0.0], 1.0, 0.5, RngStream(0)),
    "margin": lambda d, n: make_margin_classification(d, n, 0.25, RngStream(0)),
    "lower-bound": lambda d, n: make_lower_bound_instance(d=d, n=n, k=1, v=[0.5, 0.0], H=1.0),
}


@pytest.mark.parametrize("generator", sorted(_GENERATORS))
@pytest.mark.parametrize("d, n, message", _SIZE_CASES)
def test_generators_reject_bad_sizes_at_once(generator, d, n, message):
    # before the shared check: d = 0 hung the margin generator and built a
    # 0-dimensional noiseless instance, n = 0 failed deep in the noisy one, a
    # float n was accepted by the margin generator, and d = True by the
    # lower-bound generator
    with pytest.raises(ValueError, match=f"^{message}$"):
        _GENERATORS[generator](d, n)


def test_generators_accept_numpy_integer_sizes():
    inst = make_margin_classification(np.int64(3), np.int64(5), 0.25, RngStream(0))
    assert inst.dataset.points.shape == (5, 3)


def test_lower_bound_instance_population_risk():
    inst = make_lower_bound_instance(d=2, n=10, k=5, v=[1.0, 0.0], H=1.0)
    # (k H / 2n) ||x - v||^2 at x = 0 is 5/20 = 0.25
    assert population_value(inst, [0.0, 0.0]) == 0.25
    assert inst.constants.growth == 0.5
    assert interpolation_certificate(inst) == 0.0
    rng = np.random.default_rng(42)
    for _ in range(50):
        x = rng.standard_normal(2)
        expect = (5 * 1.0 / (2.0 * 10)) * float(np.sum((x - inst.optimum) ** 2))
        assert abs(population_value(inst, x) - expect) <= 1e-12 * max(1.0, expect)
    # k = n reduces to the plain anchored quadratic
    full = make_lower_bound_instance(d=2, n=10, k=10, v=[1.0, 0.0], H=1.0)
    plain = make_noiseless_least_squares(2, 10, [1.0, 0.0], 1.0)
    for _ in range(20):
        x = rng.standard_normal(2)
        assert abs(population_value(full, x) - population_value(plain, x)) <= 1e-12


def test_packing_one_dimensional_worked_example():
    pts = make_packing(D=1.0, gamma=0.25, d=1)
    assert np.array_equal(pts, np.array([[-0.5], [-0.25], [0.0], [0.25], [0.5]]))
    assert pts.shape[0] >= 1.0 / (2 * 0.25)


def test_packing_separation_and_containment():
    for d in (1, 2, 3):
        pts = make_packing(D=2.0, gamma=0.5, d=d)
        assert pts.shape[0] >= 2
        assert np.all(np.linalg.norm(pts, axis=1) <= 2.0 / 2 + 1e-12)
        diffs = pts[:, None, :] - pts[None, :, :]
        dist = np.linalg.norm(diffs, axis=2)
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 0.5 - 1e-12


# ------------------------------------------------------------- checkers


def test_superefficiency_worked_example():
    base = make_noiseless_least_squares(1, 100, [0.0], 1.0, radius=1.0)
    report = superefficiency_construct(base, r=1, anchor=1.0)
    assert report.base_minimizer == 0.0
    assert report.shift == 0.01  # one swapped anchor moves the mean by D/n
    assert report.lower_bound == 0.01
    assert report.upper_bound == 0.08
    assert report.passed
    assert not is_interpolating(report.instance)


def test_superefficiency_sandwich_across_sizes():
    for n in (100, 1000):
        base = make_noiseless_least_squares(1, n, [0.0], 1.0, radius=1.0)
        for r in range(1, 11):
            rep = superefficiency_construct(base, r=r, anchor=1.0)
            assert rep.passed
            assert rep.lower_bound - 1e-12 <= rep.shift <= rep.upper_bound + 1e-12


def test_superefficiency_indicator_family():
    base = make_lower_bound_instance(d=1, n=50, k=10, v=[-0.5], H=1.0)
    rep = superefficiency_construct(base, r=2, anchor=0.8)
    assert rep.passed
    # swapped rows were active: 8 anchors stay at -0.5, 2 move to +0.8
    assert rep.shift == pytest.approx((8 * -0.5 + 2 * 0.8) / 10 - (-0.5), abs=1e-12)


def test_superefficiency_preconditions():
    good = make_noiseless_least_squares(1, 100, [0.0], 1.0, radius=1.0)
    with pytest.raises(ValueError):  # not interpolating
        superefficiency_construct(
            make_noisy_least_squares(1, 100, [0.0], 1.0, 0.3, RngStream(42, 0)),
            r=1, anchor=1.0,
        )
    with pytest.raises(ValueError):  # r >= n
        superefficiency_construct(good, r=100, anchor=1.0)
    with pytest.raises(ValueError):  # anchor outside the domain
        superefficiency_construct(good, r=1, anchor=2.0)
    with pytest.raises(ValueError):  # population minimizer above zero
        superefficiency_construct(
            make_noiseless_least_squares(1, 100, [0.3], 1.0),
            r=1, anchor=1.0,
        )
    with pytest.raises(ValueError):  # one-dimensional oracle
        superefficiency_construct(
            make_noiseless_least_squares(2, 100, [0.0, 0.0], 1.0),
            r=1, anchor=1.0,
        )


def test_modulus_oracle_worked_example():
    base = make_noiseless_least_squares(1, 100, [0.0], 1.0, radius=1.0)
    assert modulus_oracle(base, 3) == (0.0, 0.01, 0.02, 0.03)
    assert modulus_oracle(base, 0) == (0.0,)


def test_modulus_is_monotone_and_dominates_the_swap_rate():
    gen = RngStream(43, 0).generator()
    pts = np.clip(0.3 * gen.standard_normal(60), -0.9, 0.9)
    base = Instance(
        family=QuadraticAnchor(H=1.0),
        dataset=Dataset(pts),
        domain=Ball(np.zeros(1), 1.0),
        constants=LossConstants(L=2.0, H=1.0, growth=1.0),
    )
    vals = modulus_oracle(base, 10)
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # each extra swap can move the mean by at least (D - max|anchor|)/n
    slack = (1.0 - float(np.abs(pts).max())) / 60
    for j in range(1, 11):
        assert vals[j] >= j * slack - 1e-12


def test_modulus_indicator_enumeration():
    base = make_lower_bound_instance(d=1, n=4, k=2, v=[-0.5], H=1.0)
    # best single swap: turn an active -0.5 anchor into +1 (j_on = 1):
    # new mean (-0.5 + 1) / 2 = 0.25, shift 0.75 from the base mean -0.5
    assert modulus_oracle(base, 1)[1] == pytest.approx(0.75, abs=1e-15)


def test_modulus_validation():
    base = make_noiseless_least_squares(1, 10, [0.0], 1.0)
    with pytest.raises(ValueError):
        modulus_oracle(base, -1)
    with pytest.raises(ValueError):
        modulus_oracle(base, 10)
    with pytest.raises(ValueError):
        modulus_oracle(make_noiseless_least_squares(2, 10, [0.0, 0.0], 1.0), 2)


def _anchored(pts):
    return Instance(
        family=QuadraticAnchor(H=1.0),
        dataset=Dataset(np.asarray(pts, dtype=float)),
        domain=Ball(np.zeros(1), 1.0),
        constants=LossConstants(L=2.0, H=1.0, growth=1.0),
    )


def test_stability_worked_example():
    constants = LossConstants(L=2.0, H=1.0, growth=1.0)
    base = make_noiseless_least_squares(1, 100, [0.0], 1.0, radius=1.0)
    pts = base.dataset.points.copy()
    pts[-1] = 1.0
    swapped = _anchored(pts)
    report = stability_bound_check(base, swapped, 1, constants)
    assert report.bound == 0.08  # 4 k L / (lambda n) = 4 * 2 / 100
    assert report.distance == pytest.approx(0.01, abs=1e-15)
    assert report.differing == 1
    assert report.passed
    same = stability_bound_check(base, base, 1, constants)
    assert same.distance == 0.0 and same.differing == 0


def test_stability_holds_over_random_single_swaps():
    constants = LossConstants(L=2.0, H=1.0, growth=1.0)
    gen = RngStream(44, 0).generator()
    n = 100
    for _ in range(1000):
        pts = np.clip(0.4 * gen.standard_normal(n), -1.0, 1.0)
        base = _anchored(pts)
        swapped_pts = pts.copy()
        swapped_pts[int(gen.integers(0, n))] = float(gen.uniform(-1.0, 1.0))
        report = stability_bound_check(base, _anchored(swapped_pts), 1, constants)
        assert report.passed


def test_stability_validation():
    constants = LossConstants(L=2.0, H=1.0, growth=1.0)
    base = make_noiseless_least_squares(1, 10, [0.0], 1.0)
    pts = base.dataset.points.copy()
    pts[0], pts[1] = 0.5, 0.5
    with pytest.raises(ValueError):  # two rows differ but k = 1
        stability_bound_check(base, _anchored(pts), 1, constants)
    with pytest.raises(ValueError):  # sizes differ
        stability_bound_check(base, make_noiseless_least_squares(1, 11, [0.0], 1.0), 1, constants)
    with pytest.raises(ValueError):  # no growth to divide by
        stability_bound_check(base, base, 1, LossConstants(L=2.0, H=1.0, growth=0.0))


def test_growth_closure_keeps_the_declared_coefficient_at_zero_removals():
    base = make_noiseless_least_squares(1, 100, [0.0], 1.0)
    report = growth_closure_check(base, 0)
    assert report.coefficient == 1.0
    assert report.bound == 1.0  # lambda exactly: no removal, no discount
    assert report.passed


def test_growth_closure_worked_example():
    base = make_noiseless_least_squares(1, 100, [0.0], 1.0)
    report = growth_closure_check(base, 1)
    assert report.coefficient == 0.99
    assert report.bound == 0.99  # lambda - H r / n at the default eps = 1/r
    assert report.passed


def test_growth_closure_indicator_drops_active_rows_first():
    inst = make_lower_bound_instance(d=1, n=10, k=5, v=[0.5], H=1.0)
    report = growth_closure_check(inst, 2)
    assert report.coefficient == pytest.approx(0.3, abs=1e-15)
    assert report.bound == pytest.approx(0.3, abs=1e-15)
    assert report.passed


def test_growth_closure_bound_property_and_validation():
    base = make_noiseless_least_squares(1, 50, [0.0], 1.0)
    for r in (0, 1, 5, 20):
        rep = growth_closure_check(base, r)
        assert rep.coefficient >= base.constants.growth - base.constants.H * r / 50 - 1e-12
    with pytest.raises(ValueError):
        growth_closure_check(base, 50)
    margin_inst = make_margin_classification(2, 8, 0.25, RngStream(45, 0))
    with pytest.raises(ValueError):
        growth_closure_check(margin_inst, 1)


def test_pinch_worked_example():
    report = pinch_check(Quadratic1D(1.0, 0.0), Quadratic1D(1.0, 1.0))
    assert report.x_star == 0.5
    assert report.lower == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert report.upper == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert report.lower - 1e-12 <= report.x_star <= report.upper + 1e-12
    assert report.gradient_lower_ok and report.gradient_upper_ok and report.passed


def test_pinch_equal_minimizers_collapse():
    report = pinch_check(Quadratic1D(2.0, 0.7), Quadratic1D(5.0, 0.7))
    assert report.x_star == 0.7
    assert report.lower == report.upper == 0.7
    assert report.passed


def test_pinch_holds_over_random_pairs():
    gen = RngStream(46, 0).generator()
    for _ in range(1000):
        h = Quadratic1D(float(gen.uniform(0.1, 10.0)), float(2.0 * gen.standard_normal()))
        g = Quadratic1D(float(gen.uniform(0.1, 10.0)), float(2.0 * gen.standard_normal()))
        report = pinch_check(h, g)
        assert report.passed
        assert report.lower - 1e-12 <= report.x_star <= report.upper + 1e-12


def test_pinch_validation():
    with pytest.raises(ValueError):
        Quadratic1D(0.0, 1.0)


def test_growth_report_is_a_plain_record():
    rep = GrowthReport(coefficient=1.0, bound=0.9, passed=True)
    assert rep.coefficient == 1.0 and rep.passed
