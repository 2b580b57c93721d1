"""Bilinear sampling and resizing: exactness, convexity, affine reproduction."""

import numpy as np
import pytest

from lepfuse import (
    Image,
    Rect,
    ZoomSpec,
    crop,
    resize_bilinear,
    zoom_region,
)

from oracles import bilinear_kernel, constant_image, gathered_bilinear, sample_bilinear, tensor_bilinear


def test_kernel_shape():
    assert bilinear_kernel(0.0) == 1.0
    assert bilinear_kernel(0.25) == 0.75
    assert bilinear_kernel(-0.25) == 0.75
    assert bilinear_kernel(1.0) == 0.0
    assert bilinear_kernel(-1.0) == 0.0
    assert bilinear_kernel(1.5) == 0.0
    with pytest.raises(ValueError):
        bilinear_kernel(float("nan"))


def test_sampling_grid_points_is_exact():
    rng = np.random.default_rng(77)
    img = Image(rng.uniform(0, 255, (6, 7)))
    for i in range(6):
        for j in range(7):
            got = sample_bilinear(img, float(j), float(i))
            assert got[0] == img.plane()[i, j]


def test_sample_center_of_2x2():
    img = Image(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert sample_bilinear(img, 0.5, 0.5)[0] == pytest.approx(0.5, abs=1e-12)


def test_sampling_matches_tensor_product_formula():
    rng = np.random.default_rng(40)
    img = Image(rng.uniform(0, 255, (8, 8)))
    points = rng.uniform(0, 7, size=(100, 2))
    for x, y in points:
        mine = sample_bilinear(img, x, y)
        reference = tensor_bilinear(img.data, x, y)
        assert np.abs(mine - reference).max() < 1e-12


def test_sampling_convex_in_neighbors():
    rng = np.random.default_rng(41)
    img = Image(rng.uniform(0, 255, (10, 10)))
    for x, y in rng.uniform(0, 9, size=(200, 2)):
        x0, y0 = int(np.floor(x)), int(np.floor(y))
        x1, y1 = min(x0 + 1, 9), min(y0 + 1, 9)
        corners = img.data[[y0, y0, y1, y1], [x0, x1, x0, x1], 0]
        value = sample_bilinear(img, x, y)[0]
        assert corners.min() - 1e-10 <= value <= corners.max() + 1e-10


def test_sampling_reproduces_affine_images():
    y, x = np.mgrid[0:12, 0:12].astype(float)
    img = Image(2.5 * x - 1.25 * y + 40.0)
    rng = np.random.default_rng(42)
    for px, py in rng.uniform(0, 11, size=(300, 2)):
        expected = 2.5 * px - 1.25 * py + 40.0
        assert sample_bilinear(img, px, py)[0] == pytest.approx(expected, abs=1e-10)


def test_sampling_out_of_domain_raises():
    img = constant_image(4, 4, 1, 0.0)
    for x, y in [(-0.01, 0.0), (0.0, -0.01), (3.01, 0.0), (0.0, 3.01)]:
        with pytest.raises(IndexError):
            sample_bilinear(img, x, y)
    with pytest.raises(ValueError):
        sample_bilinear(img, float("inf"), 0.0)


def test_resize_identity():
    rng = np.random.default_rng(50)
    img = Image(rng.uniform(0, 255, (9, 13)))
    out = resize_bilinear(img, 13, 9)
    assert np.abs(out.data - img.data).max() < 1e-12


def test_resize_1x2_to_1x3():
    img = Image(np.array([[0.0, 2.0]]))
    out = resize_bilinear(img, 3, 1)
    assert np.array_equal(out.plane(), np.array([[0.0, 1.0, 2.0]]))


def test_resize_corners_exact():
    rng = np.random.default_rng(51)
    img = Image(rng.uniform(0, 255, (7, 5)))
    out = resize_bilinear(img, 11, 17)
    p = img.plane()
    q = out.plane()
    assert q[0, 0] == p[0, 0]
    assert q[0, -1] == p[0, -1]
    assert q[-1, 0] == p[-1, 0]
    assert q[-1, -1] == p[-1, -1]


def test_resize_constant_stays_constant():
    img = constant_image(5, 6, 3, 42.0)
    out = resize_bilinear(img, 13, 11)
    assert np.allclose(out.data, 42.0, atol=1e-12)


def test_resize_degenerate_output_sizes():
    rng = np.random.default_rng(52)
    img = Image(rng.uniform(0, 255, (4, 4)))
    out = resize_bilinear(img, 1, 1)
    assert out.data.shape == (1, 1, 1)
    assert out.plane()[0, 0] == img.plane()[0, 0]
    with pytest.raises(ValueError):
        resize_bilinear(img, 0, 4)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 9, 1), (9, 1, 3), (20, 3, 1), (37, 41, 3)])
@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_resize_matches_gathered_oracle_bit_for_bit(shape, dtype):
    """The separable resize equals the four-corner gather sample for
    sample, on 1-pixel axes and scales above and below 1, for the uint8
    samples of a decoded file and for float64 samples."""
    data = np.random.default_rng(sum(shape)).uniform(0, 255, shape)
    img = Image._adopt(data.astype(np.uint8), 255.0) if dtype == np.uint8 else Image(data)
    h, w = shape[:2]
    for out_w, out_h in [(1, 1), (w, h), (3 * w + 1, 2 * h), (max(1, w // 3), max(1, h // 2)), (w + 4, 1)]:
        expected = gathered_bilinear(img.data, out_w, out_h)
        assert resize_bilinear(img, out_w, out_h).data.tobytes() == expected.tobytes(), (out_w, out_h)


def test_zoom_region_identity_scale_equals_crop():
    rng = np.random.default_rng(53)
    img = Image(rng.uniform(0, 255, (12, 12)))
    region = Rect(2, 3, 6, 5)
    zoomed = zoom_region(img, ZoomSpec(region, 1.0))
    assert np.array_equal(zoomed.data, crop(img, region).data)


def test_zoom_region_scales_dimensions():
    img = constant_image(8, 8, 1, 9.0)
    zoomed = zoom_region(img, ZoomSpec(Rect(0, 0, 2, 2), 2.0))
    assert zoomed.data.shape == (4, 4, 1)
    assert np.allclose(zoomed.data, 9.0, atol=1e-12)


def test_zoom_region_affine_ramp_stays_affine():
    y, x = np.mgrid[0:16, 0:16].astype(float)
    img = Image(3.0 * x + 1.0 * y)
    zoomed = zoom_region(img, ZoomSpec(Rect(4, 4, 8, 8), 2.0))
    # Corner-aligned mapping: output (i, j) samples the crop at
    # (j * 7/15, i * 7/15), so the result is affine in (i, j).
    jj = np.arange(16) * (7.0 / 15.0)
    ii = np.arange(16) * (7.0 / 15.0)
    expected = 3.0 * (4.0 + jj)[np.newaxis, :] + (4.0 + ii)[:, np.newaxis]
    assert np.abs(zoomed.plane() - expected).max() < 1e-10


def test_zoom_spec_validation():
    with pytest.raises(ValueError):
        ZoomSpec(Rect(0, 0, 2, 2), 0.0)
    with pytest.raises(ValueError):
        ZoomSpec(Rect(0, 0, 2, 2), -1.0)


def test_zoom_region_out_of_bounds_propagates():
    img = constant_image(8, 8, 1, 0.0)
    with pytest.raises(IndexError):
        zoom_region(img, ZoomSpec(Rect(4, 4, 8, 8), 1.0))
