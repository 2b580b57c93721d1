"""Edge-preserving filter contracts: coefficient bounds, identity limits,
oracle equivalence, and the cross-guided generalization."""

import numpy as np
import pytest

from lepfuse import (
    FilterParams,
    Image,
    box_mean,
    gradient_magnitude,
    guided_filter,
    lep_filter,
    lep_filter_guided,
)

from lepfuse.filters import _STRIP_ROWS
from oracles import (
    constant_image,
    lep_oracle,
    reference_box_mean,
    reference_lep_filter_guided,
    reference_linear_fit,
    window_has_gradient,
)


def _random_image(seed, shape=(8, 8), lo=0.0, hi=255.0):
    rng = np.random.default_rng(seed)
    return Image(rng.uniform(lo, hi, shape))


def _structured_images():
    """Constant, step edge, ramp, checkerboard, impulse: the cases where
    variance, gradient, or both vanish somewhere."""
    y, x = np.mgrid[0:12, 0:12].astype(float)
    step = np.where(x < 6, 40.0, 200.0)
    checker = np.where((x.astype(int) + y.astype(int)) % 2 == 0, 30.0, 220.0)
    impulse = np.zeros((12, 12))
    impulse[6, 6] = 255.0
    return [
        constant_image(12, 12, 1, 128.0),
        Image(step),
        Image(3.0 * x + 2.0 * y),
        Image(checker),
        Image(impulse),
    ]


@pytest.mark.parametrize("radius", [1, 2])
def test_lep_filter_matches_per_window_least_squares(radius):
    """The integral-image path must agree with coefficients obtained by
    solving each window's ridge normal equations explicitly."""
    params = FilterParams(radius=radius, alpha=0.1, beta=1.0)
    img = _random_image(40 + radius)
    out, _ = lep_filter(img, params)
    expected, _, _ = lep_oracle(img.plane(), img.plane(), radius, params.alpha, params.beta)
    err = np.abs(out.plane() - expected).max()
    print(f"lep_filter radius {radius}: max |fast - oracle| = {err:.3e}")
    assert err < 1e-9


@pytest.mark.parametrize("radius", [1, 2])
@pytest.mark.parametrize("beta", [0.0, 1.0, 1.7])
def test_lep_filter_guided_matches_oracle(radius, beta):
    params = FilterParams(radius=radius, alpha=0.05, beta=beta)
    p = _random_image(60 + radius)
    guide = _random_image(600 + radius)
    out = lep_filter_guided(p, guide, params)
    expected, _, _ = lep_oracle(p.plane(), guide.plane(), radius, params.alpha, beta)
    assert np.abs(out.plane() - expected).max() < 1e-9


def test_slope_bounded_and_one_only_without_regularizer():
    """Slopes live in [0, 1]; a slope of exactly 1 needs the window's
    regularizer term to be mathematically zero (every gradient sample in
    the window is zero, decided exactly by integer counting)."""
    params = FilterParams(radius=2, alpha=0.1, beta=1.0)
    images = [_random_image(s, (16, 16)) for s in range(20)] + _structured_images()
    for img in images:
        _, coeffs = lep_filter(img, params)
        slope = coeffs.slope.plane()
        assert slope.min() >= 0.0
        assert slope.max() <= 1.0
        grad_power = gradient_magnitude(img).plane() ** (2.0 - params.beta)
        nonzero_term = window_has_gradient(grad_power, params.radius)
        assert np.all(slope[nonzero_term] < 1.0)


def test_checkerboard_hits_slope_one():
    """A two-phase checkerboard has zero central differences away from the
    replicated border (neighbors two apart share a phase), so interior
    windows see a zero regularizer while their variance does not vanish:
    those slopes must be exactly 1."""
    y, x = np.mgrid[0:10, 0:10]
    checker = Image(np.where((x + y) % 2 == 0, 30.0, 220.0))
    grad = gradient_magnitude(checker).plane()
    assert np.array_equal(grad[1:-1, 1:-1], np.zeros((8, 8)))
    _, coeffs = lep_filter(checker, FilterParams(radius=2, alpha=0.1))
    # Windows centered at [3..6]^2 only touch gradient samples from the
    # zero interior.
    assert np.all(coeffs.slope.plane()[3:7, 3:7] == 1.0)


def test_zero_alpha_is_identity():
    img = _random_image(77, (16, 16))
    out, _ = lep_filter(img, FilterParams(radius=3, alpha=0.0))
    assert np.abs(out.data - img.data).max() < 1e-9


def test_constant_input_is_exact_identity():
    img = constant_image(15, 11, 1, 123.456)
    out, coeffs = lep_filter(img, FilterParams(radius=4, alpha=0.1))
    assert np.array_equal(out.data, img.data)
    # Flat windows take the a = 0 branch everywhere.
    assert np.array_equal(coeffs.slope.data, np.zeros_like(coeffs.slope.data))


def test_output_within_input_range():
    params = FilterParams(radius=3, alpha=0.1)
    for seed in range(10):
        img = _random_image(seed, (20, 20))
        out, _ = lep_filter(img, params)
        assert out.data.min() >= img.data.min() - 1e-12
        assert out.data.max() <= img.data.max() + 1e-12


def test_guided_with_self_equals_self_filter():
    img = _random_image(9, (16, 16))
    params = FilterParams(radius=2, alpha=0.1)
    direct, _ = lep_filter(img, params)
    via_guide = lep_filter_guided(img, img, params)
    assert np.abs(direct.data - via_guide.data).max() < 1e-12


def test_guided_constant_guide_averages_input():
    """A flat guide carries no structure, so every window takes the a = 0
    branch: the output degenerates to the window mean of the window means
    of the input."""
    p = _random_image(31, (12, 12))
    guide = constant_image(12, 12, 1, 50.0)
    out = lep_filter_guided(p, guide, FilterParams(radius=2, alpha=0.1))
    expected = box_mean(box_mean(p, 2), 2)
    assert np.abs(out.data - expected.data).max() < 1e-9


def test_guided_dimension_mismatch():
    with pytest.raises(ValueError):
        lep_filter_guided(
            constant_image(8, 8, 1, 0.0),
            constant_image(8, 9, 1, 0.0),
            FilterParams(radius=1),
        )


def test_lep_rejects_color_input():
    with pytest.raises(ValueError):
        lep_filter(constant_image(8, 8, 3, 1.0), FilterParams(radius=1))


def test_guided_filter_baseline_against_oracle():
    """The constant-regularizer baseline is the alpha-as-epsilon special
    case of the windowed ridge fit: reuse the oracle with a constant
    regularizer by zeroing the gradient term."""
    rng = np.random.default_rng(55)
    p = Image(rng.uniform(0, 255, (8, 8)))
    guide = Image(rng.uniform(0, 255, (8, 8)))
    out = guided_filter(p, guide, 2, 0.4)

    # Oracle with beta = 2 turns |grad|^0 into all-ones, so alpha becomes a
    # flat additive epsilon, except at exact zero gradients where 0^0 = 1
    # keeps the term constant anyway.
    expected, _, _ = lep_oracle(p.plane(), guide.plane(), 2, 0.4, 2.0)
    assert np.abs(out.plane() - expected).max() < 1e-9


def test_guided_filter_is_lep_filter_guided_at_beta_2():
    # At beta = 2 the gradient regularizer is the constant alpha, so the
    # baseline and the gradient-adaptive filter agree bit for bit.
    rng = np.random.default_rng(56)
    p = Image(rng.uniform(0, 255, (16, 16)))
    guide = Image(rng.uniform(0, 255, (16, 16)))
    for radius, epsilon in ((1, 1e-4), (3, 0.4), (5, 250.0)):
        got = guided_filter(p, guide, radius, epsilon)
        want = lep_filter_guided(p, guide, FilterParams(radius, epsilon, beta=2.0))
        assert np.array_equal(got.data, want.data)


def test_guided_filter_smooths_more_with_larger_epsilon():
    img = _random_image(8, (16, 16))
    mild = guided_filter(img, img, 2, 1e-4)
    strong = guided_filter(img, img, 2, 1e12)
    # Epsilon far above any window variance forces a -> 0, collapsing the
    # output to repeated window means.
    assert np.var(strong.data) < np.var(mild.data)
    assert np.abs(strong.data - box_mean(box_mean(img, 2), 2).data).max() < 1e-3


def test_guided_filter_validates_arguments():
    img = constant_image(8, 8, 1, 1.0)
    with pytest.raises(ValueError):
        guided_filter(img, img, 0, 0.1)
    with pytest.raises(ValueError):
        guided_filter(img, img, 2, 0.0)
    with pytest.raises(ValueError):
        guided_filter(img, constant_image(8, 7, 1, 1.0), 2, 0.1)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


TALLER = 5 * _STRIP_ROWS + 3


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (20, 31), (64, 64), (TALLER, 13), (TALLER, 1), (1, TALLER)])
@pytest.mark.parametrize("radius", [1, 3, 15, 40])
def test_fit_core_bitwise_equal_reference(shape, radius):
    """The streamed fit performs the allocating reference's operations in
    the same order, so every output bit agrees.  The inputs mix flat
    patches (zero variance, and with alpha = 0 a zero denominator) with
    noise; radius 15 exceeds every side but the 64x64 one and radius 40
    exceeds a strip; the tall shapes run both window-mean streams over
    several strips; beta 0.5 takes numpy's general power loop instead of a
    scalar-power fast path."""
    rng = np.random.default_rng(shape[0] * 1000 + shape[1] * 10 + radius)
    p = rng.uniform(0, 1, shape)
    guide = rng.uniform(0, 255, shape)
    guide[: shape[0] // 2, : shape[1] // 2] = 77.0
    p_img, guide_img = Image(p, 1.0), Image(guide)
    for alpha, beta in ((0.3, 0.0), (0.3, 0.5), (0.3, 1.0), (0.3, 2.0), (0.0, 1.0)):
        params = FilterParams(radius, alpha, beta)
        out, coeffs = lep_filter(guide_img, params)
        slope, intercept = reference_linear_fit(guide, guide, radius, alpha, beta)
        assert _same_bits(coeffs.slope.plane(), slope)
        assert _same_bits(coeffs.intercept.plane(), intercept)
        assert _same_bits(coeffs.slope_mean.plane(), reference_box_mean(slope, radius))
        assert _same_bits(coeffs.intercept_mean.plane(), reference_box_mean(intercept, radius))
        assert _same_bits(out.plane(), reference_lep_filter_guided(guide, guide, radius, alpha, beta))
        assert _same_bits(
            lep_filter_guided(p_img, guide_img, params).plane(),
            reference_lep_filter_guided(p, guide, radius, alpha, beta),
        )
        if alpha > 0.0:
            assert _same_bits(
                guided_filter(p_img, guide_img, radius, alpha).plane(),
                reference_lep_filter_guided(p, guide, radius, alpha, 2.0),
            )
