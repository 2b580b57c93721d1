"""Window-filter kernels against brute-force oracles."""

import numpy as np
import pytest

from lepfuse import (
    FilterParams,
    Image,
    box_mean,
    gaussian_filter,
    laplacian_filter,
)

from lepfuse.filters import _STRIP_ROWS, _gaussian_kernel_1d, _gradient_magnitude, _valid_correlate_sep
from oracles import (
    constant_image,
    naive_box_mean,
    naive_gaussian,
    naive_laplacian,
    reference_box_mean,
    reference_valid_correlate_sep,
)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("radius", [1, 2, 5, 15])
def test_box_mean_matches_naive_loop(radius):
    rng = np.random.default_rng(100 + radius)
    plane = rng.uniform(0, 255, (64, 64))
    fast = box_mean(Image(plane), radius).plane()
    slow = naive_box_mean(plane, radius)
    err = np.abs(fast - slow).max()
    print(f"box_mean radius {radius}: max |fast - naive| = {err:.3e}")
    assert err < 1e-9


def test_box_mean_constant_is_exact():
    # Bit-exact, not merely close: the mean of a flat image must be the
    # flat value itself or downstream variance guards misfire.
    img = constant_image(17, 23, 1, 201.25)
    assert np.array_equal(box_mean(img, 7).data, img.data)


def test_box_mean_multichannel_matches_per_channel():
    rng = np.random.default_rng(5)
    data = rng.uniform(0, 255, (12, 9, 3))
    fused = box_mean(Image(data), 2).data
    for c in range(3):
        assert np.allclose(fused[:, :, c], naive_box_mean(data[:, :, c], 2), atol=1e-9)


TALL = 2 * _STRIP_ROWS + 5  # a partial third strip of the strip-wise correlation
TALLER = 5 * _STRIP_ROWS + 3  # enough strips for the streamed box mean's ring to wrap several times
WIDE = 2048  # rows wide enough that the correlation's own strips hold _STRIP_ROWS rows


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (20, 31), (20, 31, 1), (1, 1, 3), (1, 9, 3), (9, 1, 3),
                                   (20, 31, 3), (TALL, 13), (TALL, 13, 1), (TALL, 13, 3),
                                   (TALLER, 13), (TALLER, 13, 3), (TALLER, 1), (1, TALLER, 3),
                                   (TALLER, 9), (TALL, WIDE), (TALL, WIDE, 3)])
@pytest.mark.parametrize("radius", [1, 3, 15, 40])
def test_window_kernels_bitwise_equal_reference(shape, radius):
    # The streamed and strip-wise kernels must reproduce the straightforward
    # formulation bit for bit, including radii past a strip and past the
    # image side (40), and outputs that span several row strips.  Narrow
    # images run the correlation in one tall strip, WIDE ones in strips of
    # _STRIP_ROWS rows.
    rng = np.random.default_rng(sum(shape) * 31 + radius)
    arr = rng.uniform(-50.0, 300.0, shape)
    want = reference_box_mean(arr, radius)
    assert _same_bits(box_mean(Image(arr), radius).data.reshape(want.shape), want)
    kernel = _gaussian_kernel_1d(radius, 0.7 * radius)
    pad = [(radius, radius), (radius, radius)] + [(0, 0)] * (arr.ndim - 2)
    padded = np.pad(arr, pad, mode="edge")
    assert _same_bits(_valid_correlate_sep(padded, kernel), reference_valid_correlate_sep(padded, kernel))


def test_box_mean_validates_radius():
    with pytest.raises(ValueError):
        box_mean(constant_image(4, 4, 1, 0.0), 0)


def test_gaussian_matches_naive_2d_convolution():
    rng = np.random.default_rng(11)
    plane = rng.uniform(0, 255, (32, 32))
    fast = gaussian_filter(Image(plane), 5, 5.0).plane()
    slow = naive_gaussian(plane, 5, 5.0)
    assert np.abs(fast - slow).max() < 1e-9


def test_gaussian_preserves_constants_and_mass():
    img = constant_image(16, 16, 1, 80.0)
    out = gaussian_filter(img, 3, 1.5)
    assert np.allclose(out.data, 80.0, atol=1e-12)


@pytest.mark.parametrize("sigma", [1e-300, 1e-160])
def test_gaussian_tiny_sigma_is_identity(sigma):
    """A sigma whose 2 sigma^2 underflows to 0 (1e-300), or whose taps
    overflow t^2 / (2 sigma^2) (1e-160), gets the delta kernel, the sigma
    -> 0 limit, without a warning."""
    img = Image(np.random.default_rng(3).uniform(0, 255, (9, 7, 3)))
    assert _same_bits(gaussian_filter(img, 2, sigma).data, img.data)


def test_gaussian_validates_arguments():
    img = constant_image(8, 8, 1, 0.0)
    with pytest.raises(ValueError):
        gaussian_filter(img, 0, 1.0)
    with pytest.raises(ValueError):
        gaussian_filter(img, 2, 0.0)


def test_laplacian_matches_naive_and_kills_affine():
    rng = np.random.default_rng(21)
    plane = rng.uniform(0, 255, (16, 16))
    fast = laplacian_filter(Image(plane)).plane()
    assert np.abs(fast - naive_laplacian(plane)).max() < 1e-9

    # An affine image has zero Laplacian away from the replicated border.
    y, x = np.mgrid[0:20, 0:20].astype(float)
    affine = laplacian_filter(Image(2.0 * x - 3.0 * y + 7.0)).plane()
    assert np.abs(affine[1:-1, 1:-1]).max() < 1e-10


def test_laplacian_rejects_color():
    with pytest.raises(ValueError):
        laplacian_filter(constant_image(8, 8, 3, 1.0))


def test_gradient_magnitude_on_ramp():
    """Unit-slope horizontal ramp: interior gradient is exactly 1, border
    columns drop to 0.5 because replicate padding halves the one-sided
    difference."""
    y, x = np.mgrid[0:10, 0:12].astype(float)
    grad = _gradient_magnitude(np.pad(x, 1, mode="edge"))
    assert np.allclose(grad[:, 1:-1], 1.0, atol=1e-12)
    assert np.allclose(grad[:, 0], 0.5, atol=1e-12)
    assert np.allclose(grad[:, -1], 0.5, atol=1e-12)


def test_gradient_magnitude_zero_on_constant():
    grad = _gradient_magnitude(np.pad(constant_image(9, 9, 1, 44.0).plane(), 1, mode="edge"))
    assert np.array_equal(grad, np.zeros((9, 9)))


def test_filter_params_validation():
    FilterParams(radius=1, alpha=0.0, beta=0.0)
    FilterParams(radius=3, alpha=2.5, beta=2.0)
    with pytest.raises(ValueError):
        FilterParams(radius=0)
    with pytest.raises(ValueError):
        FilterParams(radius=1, alpha=-0.5)
    with pytest.raises(ValueError):
        FilterParams(radius=1, beta=2.5)
