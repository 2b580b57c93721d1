"""Property-based tests over randomly generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lepfuse import (
    FilterParams,
    Image,
    WeightStack,
    box_mean,
    decompose,
    lep_filter,
    normalize_weights,
    psnr,
    read_image,
    ssim,
    write_image,
)
from oracles import naive_box_mean, sample_bilinear

finite = st.floats(0.0, 255.0, allow_nan=False, allow_infinity=False, width=64)


def planes(min_side=1, max_side=12):
    return hnp.arrays(
        np.float64,
        st.tuples(st.integers(min_side, max_side), st.integers(min_side, max_side)),
        elements=finite,
    )


@given(plane=planes(), radius=st.integers(1, 4))
def test_box_mean_matches_naive(plane, radius):
    got = box_mean(Image(plane), radius).plane()
    want = naive_box_mean(plane, radius)
    assert np.abs(got - want).max() <= 1e-9


@given(plane=planes(), size=st.sampled_from([3, 5, 7]))
def test_decompose_reconstructs(plane, size):
    img = Image(plane)
    pair = decompose(img, avg_filter_size=size)
    back = pair.base.data + pair.detail.data
    assert np.abs(back - img.data).max() <= 1e-12


@given(plane=planes(min_side=3), radius=st.integers(1, 3),
       alpha=st.floats(1e-6, 10.0), beta=st.floats(0.0, 2.0))
@settings(max_examples=50)
def test_lep_slope_bounds_and_range(plane, radius, alpha, beta):
    img = Image(plane)
    out, coeffs = lep_filter(img, FilterParams(radius=radius, alpha=alpha, beta=beta))
    a = coeffs.slope.data
    assert a.min() >= 0.0 and a.max() <= 1.0
    lo, hi = float(img.data.min()), float(img.data.max())
    assert out.data.min() >= lo - 1e-9
    assert out.data.max() <= hi + 1e-9


@given(plane=planes(min_side=2, max_side=8),
       x=st.floats(0, 1, exclude_max=True), y=st.floats(0, 1, exclude_max=True))
def test_bilinear_sample_is_convex(plane, x, y):
    h, w = plane.shape
    px = x * (w - 1)
    py = y * (h - 1)
    value = sample_bilinear(Image(plane), px, py)[0]
    assert plane.min() - 1e-9 <= value <= plane.max() + 1e-9


@given(plane=planes(min_side=2, max_side=8),
       j=st.integers(0, 7), i=st.integers(0, 7))
def test_bilinear_sample_grid_exact(plane, j, i):
    h, w = plane.shape
    value = sample_bilinear(Image(plane), j % w, i % h)[0]
    assert value == plane[i % h, j % w]


@given(a=planes(min_side=2, max_side=6), noise=planes(min_side=2, max_side=6))
def test_psnr_symmetric(a, noise):
    if a.shape != noise.shape:
        return
    ia, ib = Image(a), Image(noise)
    assert psnr(ia, ib) == psnr(ib, ia)


@given(data=st.data(), count=st.integers(1, 4))
@settings(max_examples=50)
def test_normalized_weights_sum_to_one(data, count):
    maps = []
    for _ in range(count):
        plane = data.draw(planes(min_side=2, max_side=6))
        maps.append(Image(np.clip(plane / 255.0, 0.0, 1.0), max_val=1.0))
    if len({m.data.shape for m in maps}) != 1:
        return
    stack = normalize_weights(WeightStack(maps, kind="refined"))
    total = sum(m.data for m in stack.maps)
    assert np.abs(total - 1.0).max() <= 1e-9


@given(pixels=hnp.arrays(
    np.int64,
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
    elements=st.integers(0, 255),
))
def test_netpbm_round_trip_integers(pixels, tmp_path_factory):
    path = tmp_path_factory.mktemp("pbm") / "img.pgm"
    img = Image(pixels.astype(np.float64))
    write_image(img, path)
    back = read_image(path)
    assert np.array_equal(back.data, img.data)
    assert back.max_val == 255.0


@given(plane=planes(max_side=9))
def test_quantize_idempotent_on_integers(plane, tmp_path_factory):
    """Writing quantizes; writing the samples read back changes nothing."""
    path = tmp_path_factory.mktemp("pbm") / "q.pgm"
    write_image(Image(plane), path)
    once = path.read_bytes()
    write_image(read_image(path), path)
    assert path.read_bytes() == once


@given(plane=planes(min_side=11, max_side=14))
@settings(max_examples=30)
def test_ssim_self_is_one(plane):
    img = Image(plane)
    assert ssim(img, img) == 1.0
