"""Quality metrics: closed forms, symmetry, and the independent SSIM oracle."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from lepfuse import (
    Image,
    MetricsReport,
    NaturalnessPriors,
    gaussian_filter,
    naturalness,
    psnr,
    report,
    rgb_to_luma,
    sharpness,
    ssim,
)
from lepfuse.metrics import _pairwise_sum

from oracles import constant_image, direct_ssim, reference_ssim


def test_psnr_identical_is_infinite():
    img = constant_image(8, 8, 1, 100.0)
    assert math.isinf(psnr(img, img))


def test_psnr_offset_16_closed_form():
    rng = np.random.default_rng(1)
    a = Image(rng.uniform(16, 239, (32, 32)))
    b = Image(a.data + 16.0)
    value = psnr(a, b, 255.0)
    expected = 10.0 * math.log10(255.0 ** 2 / 256.0)
    print(f"psnr offset 16: {value:.6f} (closed form {expected:.6f})")
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == pytest.approx(24.048, abs=1e-3)


def test_psnr_half_pixels_off_by_one():
    a = Image(np.zeros((10, 10)))
    shifted = np.zeros((10, 10))
    shifted.ravel()[: 50] = 1.0  # exactly half the samples
    b = Image(shifted)
    value = psnr(a, b, 255.0)
    expected = 10.0 * math.log10(255.0 ** 2 / 0.5)
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == pytest.approx(51.141, abs=1e-3)


def test_psnr_symmetric_and_monotone_in_noise():
    rng = np.random.default_rng(2)
    a = Image(rng.uniform(0, 255, (16, 16)))
    noise = rng.standard_normal((16, 16, 1))
    previous = math.inf
    for amplitude in (0.5, 1.0, 2.0, 8.0):
        b = Image(a.data + amplitude * noise)
        forward = psnr(a, b)
        assert forward == psnr(b, a)
        assert forward < previous
        previous = forward


@pytest.mark.parametrize("score", [psnr, ssim])
@pytest.mark.parametrize("max_val", [0.0, -1.0])
def test_scores_reject_a_non_positive_max_val(score, max_val):
    a = constant_image(16, 16, 1, 0.0)
    with pytest.raises(ValueError, match=f"^max_val must be positive, got {max_val}$"):
        score(a, a, max_val)


@pytest.mark.parametrize("field", ["mean_tol", "std_tol"])
def test_naturalness_priors_reject_a_non_positive_tolerance(field):
    with pytest.raises(ValueError, match=f"^{field} must be positive, got 0.0$"):
        NaturalnessPriors(**{field: 0.0})


def test_psnr_dimension_mismatch():
    with pytest.raises(ValueError):
        psnr(constant_image(4, 4, 1, 0.0), constant_image(4, 5, 1, 0.0))


def test_ssim_identical_is_exactly_one():
    rng = np.random.default_rng(3)
    img = Image(rng.uniform(0, 255, (16, 16)))
    assert ssim(img, img) == 1.0


def test_ssim_constant_pair_closed_form():
    """Zero-variance windows reduce SSIM to the luminance term:
    (2*100*110 + C1) / (100^2 + 110^2 + C1) with C1 = (0.01*255)^2."""
    a = constant_image(16, 16, 1, 100.0)
    b = constant_image(16, 16, 1, 110.0)
    value = ssim(a, b, 255.0)
    c1 = (0.01 * 255.0) ** 2
    expected = (2.0 * 100.0 * 110.0 + c1) / (100.0 ** 2 + 110.0 ** 2 + c1)
    assert value == pytest.approx(expected, abs=1e-9)
    assert value == pytest.approx(0.99548, abs=1e-4)


def test_ssim_matches_direct_window_implementation():
    rng = np.random.default_rng(4)
    a = Image(rng.uniform(0, 255, (20, 24)))
    b = Image(rng.uniform(0, 255, (20, 24)))
    fast = ssim(a, b)
    slow = direct_ssim(a.plane(), b.plane(), 255.0)
    print(f"ssim fast {fast:.12f} vs direct {slow:.12f}")
    assert fast == pytest.approx(slow, abs=1e-9)


@pytest.mark.parametrize("shape", [(20, 24), (83, 11), (37, 2048)])
def test_ssim_bitwise_equal_reference(shape):
    # Narrow images run the correlation in one tall strip, 2048-wide ones
    # in strips of 16 rows; the value bits are the same either way.
    rng = np.random.default_rng(sum(shape))
    a, b = (rng.uniform(0, 255, shape) for _ in range(2))
    assert ssim(Image(a), Image(b)) == reference_ssim(a, b, 255.0)


def test_ssim_bounded():
    rng = np.random.default_rng(5)
    for seed in range(5):
        r = np.random.default_rng(seed)
        a = Image(r.uniform(0, 255, (12, 12)))
        b = Image(255.0 - a.data)  # anti-correlated pair
        value = ssim(a, b)
        assert -1.0 <= value <= 1.0


def test_ssim_validation():
    with pytest.raises(ValueError):
        ssim(constant_image(8, 8, 1, 0.0), constant_image(8, 8, 1, 0.0))  # < 11x11
    with pytest.raises(ValueError):
        ssim(constant_image(16, 16, 1, 0.0), constant_image(16, 17, 1, 0.0))
    with pytest.raises(ValueError):
        ssim(constant_image(16, 16, 3, 0.0), constant_image(16, 16, 3, 0.0))


def test_sharpness_constant_zero_and_ramp_one():
    assert sharpness(constant_image(10, 10, 1, 30.0)) == 0.0
    y, x = np.mgrid[0:10, 0:10].astype(float)
    assert sharpness(Image(x)) == pytest.approx(1.0, abs=1e-12)


def test_sharpness_decreases_under_blur():
    rng = np.random.default_rng(6)
    img = Image(rng.uniform(0, 255, (32, 32)))
    blurred = gaussian_filter(img, 4, 1.5)
    assert sharpness(blurred) < sharpness(img)


def test_sharpness_tiny_images_are_zero():
    assert sharpness(constant_image(2, 10, 1, 5.0)) == 0.0


@pytest.mark.parametrize("shape", [(3, 3), (3, 40), (17, 5), (18, 18), (19, 7), (53, 61)])
@pytest.mark.parametrize("dtype", [np.float64, np.uint8])
def test_sharpness_strips_match_the_whole_plane_bit_for_bit(shape, dtype):
    """Built strip by strip, the magnitudes and so their mean are those of
    the whole-plane central differences, bit for bit, on heights around
    the strip height and on uint8 samples as read from a file."""
    data = np.random.default_rng(shape[0] * 100 + shape[1]).integers(0, 256, shape).astype(dtype)
    img = Image._adopt(data, 255.0) if dtype == np.uint8 else Image(data)
    p = data.astype(np.float64)
    dx, dy = (p[1:-1, 2:] - p[1:-1, :-2]) * 0.5, (p[2:, 1:-1] - p[:-2, 1:-1]) * 0.5
    want = float(np.mean(np.sqrt(dx * dx + dy * dy)))
    assert np.float64(sharpness(img)).view(np.int64) == np.float64(want).view(np.int64)


def test_sharpness_holds_strip_scratch():
    """The magnitudes are built and summed strip by strip, so the traced
    peak is a few strips of scratch: under a tenth of a plane at 512^2,
    where two whole-plane temporaries took two planes."""
    side = 512
    img = Image(np.random.default_rng(9).uniform(0, 255, (side, side)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sharpness(img)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - start) / (8 * side * side) < 0.1


def test_naturalness_peaks_at_priors():
    """An image whose global mean and std hit the priors exactly scores 1."""
    priors = NaturalnessPriors()
    half = np.full((10, 10), priors.mean_prior - priors.std_prior)
    other = np.full((10, 10), priors.mean_prior + priors.std_prior)
    img = Image(np.concatenate([half, other], axis=0))
    assert float(np.mean(img.data)) == pytest.approx(priors.mean_prior)
    assert float(np.std(img.data)) == pytest.approx(priors.std_prior)
    assert naturalness(img) == pytest.approx(1.0, abs=1e-12)


def test_naturalness_black_closed_form():
    value = naturalness(constant_image(12, 12, 1, 0.0))
    expected = math.exp(-(115.0 ** 2) / (2.0 * 40.0 ** 2)) * math.exp(
        -(28.0 ** 2) / (2.0 * 15.0 ** 2)
    )
    assert value == pytest.approx(expected, abs=1e-12)
    assert value == pytest.approx(0.0028, abs=2e-4)


def test_naturalness_depends_only_on_mean_and_std():
    rng = np.random.default_rng(7)
    data = rng.uniform(0, 255, (16, 16))
    shuffled = data.ravel().copy()
    rng.shuffle(shuffled)
    a = naturalness(Image(data))
    b = naturalness(Image(shuffled.reshape(16, 16)))
    assert a == pytest.approx(b, abs=1e-12)
    assert 0.0 <= a <= 1.0


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5000), (1000, 7), (126, 126), (511, 509),
                                   (2046, 2046)])
def test_streamed_sums_match_mean_and_std_bit_for_bit(shape):
    """The pairwise sum of strips, leaf by leaf, is numpy's sum over the
    whole C-contiguous plane bit for bit, so sharpness and naturalness,
    which sum their rows as they build them, keep np.mean's and np.std's
    bits: on a single pixel, single rows and columns, odd widths, and
    planes of several thousand leaves."""
    data = np.random.default_rng(shape[0] * 7 + shape[1]).uniform(0, 255, shape)
    total = _pairwise_sum((data[i:i + 5].ravel() for i in range(0, shape[0], 5)), data.size)
    assert np.float64(total / data.size).view(np.int64) == np.mean(data).view(np.int64)
    mean = np.mean(data)
    squares = ((row - mean) ** 2 for row in data)
    spread = np.sqrt(_pairwise_sum(squares, data.size) / data.size)
    assert np.float64(spread).view(np.int64) == np.std(data).view(np.int64)
    want = math.exp(-((mean - 115.0) ** 2) / (2.0 * 40.0 ** 2)) * math.exp(
        -((np.std(data) - 28.0) ** 2) / (2.0 * 15.0 ** 2))
    assert naturalness(Image(data)) == want


@pytest.mark.parametrize("shape", [(1, 1, 3), (2, 9, 3), (37, 29, 3), (53, 61, 1)])
def test_report_streams_the_luminance_bit_for_bit(shape):
    """report builds a colour image's luminance for the rows it reads, and
    its sharpness and naturalness are those of the whole luminance plane,
    bit for bit."""
    img = Image(np.random.default_rng(shape[0]).uniform(0, 255, shape))
    rep = report(img)
    luma = rgb_to_luma(img) if shape[2] == 3 else img
    assert (rep.sharpness, rep.naturalness) == (sharpness(luma), naturalness(luma))
    p = luma.plane()
    dx, dy = (p[1:-1, 2:] - p[1:-1, :-2]) * 0.5, (p[2:, 1:-1] - p[:-2, 1:-1]) * 0.5
    want = float(np.mean(np.sqrt(dx * dx + dy * dy))) if min(shape[:2]) > 2 else 0.0
    assert np.float64(rep.sharpness).view(np.int64) == np.float64(want).view(np.int64)
    mean, spread = np.mean(luma.data), np.std(luma.data)
    assert rep.naturalness == math.exp(-((mean - 115.0) ** 2) / (2.0 * 40.0 ** 2)) * math.exp(
        -((spread - 28.0) ** 2) / (2.0 * 15.0 ** 2))


def test_report_leaves_no_array_to_the_cyclic_collector():
    """report's strip sums hold no reference cycle, so the strips and the
    planes their generators hold are freed when it returns, not when the
    cyclic collector next runs.  Arrays are not tracked by the collector,
    so the check looks at what the collected objects refer to."""
    img = Image(np.random.default_rng(4).uniform(0, 255, (64, 64)))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        report(img, img)
        gc.collect()
        kept = [type(obj).__name__ for obj in gc.garbage + gc.get_referents(*gc.garbage)
                if isinstance(obj, np.ndarray)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kept == []


def test_report_identical_pair():
    rng = np.random.default_rng(8)
    img = Image(rng.uniform(0, 255, (16, 16)))
    rep = report(img, img)
    assert math.isinf(rep.psnr)
    assert rep.ssim == 1.0
    assert rep.sharpness >= 0.0
    assert 0.0 <= rep.naturalness <= 1.0


def test_report_without_reference_omits_reference_metrics():
    rep = report(constant_image(16, 16, 1, 64.0))
    assert rep.psnr is None
    assert rep.ssim is None
    assert rep.to_lines() == ["sharpness=0.000000", f"naturalness={rep.naturalness:.6f}"]


def test_report_serialization_formats():
    rep = MetricsReport(sharpness=1.5, naturalness=0.25, psnr=math.inf, ssim=1.0)
    assert rep.to_lines() == [
        "psnr=inf",
        "ssim=1.000000",
        "sharpness=1.500000",
        "naturalness=0.250000",
    ]
    assert MetricsReport.csv_header() == "sharpness,naturalness,psnr,ssim"
    assert rep.csv_row() == "1.500000,0.250000,inf,1.000000"
    no_ref = MetricsReport(sharpness=1.0, naturalness=0.5)
    assert no_ref.csv_row() == "1.000000,0.500000,,"


def test_report_dimension_mismatch():
    with pytest.raises(ValueError):
        report(constant_image(16, 16, 1, 0.0), constant_image(16, 17, 1, 0.0))


def test_report_color_uses_luminance():
    rng = np.random.default_rng(9)
    img = Image(rng.uniform(0, 255, (16, 16, 3)))
    rep = report(img, img)
    assert rep.ssim == 1.0
    assert math.isinf(rep.psnr)
