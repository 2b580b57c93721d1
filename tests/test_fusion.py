"""Fusion pipeline stages and the end-to-end contracts."""

import errno
import mmap
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lepfuse.fusion
import lepfuse.image
from lepfuse import (
    FilterParams,
    FusionConfig,
    Image,
    Rect,
    WeightStack,
    binary_weight_maps,
    box_mean,
    crop,
    decompose,
    fuse,
    guided_filter,
    lep_filter_guided,
    normalize_weights,
    refine_weights,
    rgb_to_luma,
    saliency,
    sharpness,
    ssim,
    write_image,
)
from lepfuse.cli import main
from lepfuse.filters import _STRIP_ROWS, _fill, _fit, _strips
from lepfuse.image import _luma
from lepfuse.synthetic import multifocus_pair

from oracles import (
    constant_image,
    naive_box_mean,
    naive_gaussian,
    naive_laplacian,
    reference_binary_weight_maps,
    reference_normalize_weights,
    reference_saliency,
)

# Heights around the strip height of the strip-wise stages: one row, a
# partial strip, exactly one strip, one row into a second strip, and a
# partial third strip.
STRIP_HEIGHTS = [1, 2, _STRIP_ROWS - 1, _STRIP_ROWS, _STRIP_ROWS + 1, 2 * _STRIP_ROWS + 5]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _mapped(arr):
    # Whether ``arr`` is a view of a memory map, as a shared plane is.
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return isinstance(arr, memoryview) and isinstance(arr.obj, mmap.mmap)


def _random_image(seed, shape=(16, 16)):
    rng = np.random.default_rng(seed)
    return Image(rng.uniform(0, 255, shape))


# --- decompose ---------------------------------------------------------------

def test_decompose_reconstructs_exactly():
    for seed in range(5):
        img = _random_image(seed, (24, 24))
        pair = decompose(img, 7)
        assert np.abs(pair.base.data + pair.detail.data - img.data).max() < 1e-12


def test_decompose_constant():
    img = constant_image(16, 16, 1, 90.0)
    pair = decompose(img, 5)
    assert np.array_equal(pair.base.data, img.data)
    assert np.array_equal(pair.detail.data, np.zeros_like(img.data))


def test_decompose_base_matches_naive_average():
    img = _random_image(2, (8, 8))
    pair = decompose(img, 3)
    assert np.abs(pair.base.plane() - naive_box_mean(img.plane(), 1)).max() < 1e-9


def test_decompose_rejects_even_size():
    with pytest.raises(ValueError):
        decompose(constant_image(8, 8, 1, 0.0), 4)
    with pytest.raises(ValueError):
        decompose(constant_image(8, 8, 1, 0.0), 1)


# --- saliency ----------------------------------------------------------------

def test_saliency_constant_is_zero():
    sal = saliency(constant_image(20, 20, 1, 77.0))
    assert np.array_equal(sal.data, np.zeros_like(sal.data))


def test_saliency_affine_zero_away_from_border():
    """The Laplacian annihilates affine images; only replicate padding at
    the border creates response, which the Gaussian spreads at most
    r_g + 1 pixels inward."""
    y, x = np.mgrid[0:32, 0:32].astype(float)
    cfg = FusionConfig()
    sal = saliency(Image(1.5 * x - 0.5 * y + 10.0), cfg).plane()
    margin = cfg.saliency_radius + 1
    assert np.abs(sal[margin:-margin, margin:-margin]).max() < 1e-10


def test_saliency_impulse_matches_two_stage_oracle():
    plane = np.zeros((16, 16))
    plane[8, 8] = 200.0
    cfg = FusionConfig()
    got = saliency(Image(plane), cfg).plane()
    expected = naive_gaussian(np.abs(naive_laplacian(plane)), cfg.saliency_radius, cfg.saliency_sigma)
    assert np.abs(got - expected).max() < 1e-9


@pytest.mark.parametrize("height", STRIP_HEIGHTS)
@pytest.mark.parametrize("width", [1, 9, 40])
@pytest.mark.parametrize("radius", [1, 5, None])
def test_saliency_bitwise_equal_reference(height, width, radius):
    """The strip-wise saliency equals the whole-plane Laplacian, abs and
    Gaussian bit for bit.  radius None is one past the height, so every
    strip's halo is clipped at both borders."""
    radius = height + 1 if radius is None else radius
    rng = np.random.default_rng(height * 97 + width * 7 + radius)
    plane = rng.uniform(-20.0, 280.0, (height, width))
    config = FusionConfig(saliency_radius=radius, saliency_sigma=0.8 * radius)
    got = saliency(Image(plane), config).plane()
    assert _same_bits(got, reference_saliency(plane, radius, 0.8 * radius))


def test_saliency_holds_strip_scratch(traced_peak):
    """Beyond its output, saliency holds O(strip) scratch: a band of 2r +
    16 rows of the edge-padded response, the luminance rows about a strip
    and a few strips of rows, 0.30 planes at 512^2.  Whole-plane stages
    held the edge-padded source and the Laplacian's scratch, then the
    edge-padded response, 1.38 planes."""
    side = 512
    src = Image(np.random.default_rng(4).uniform(0, 255, (side, side)))
    sal = []
    peak = traced_peak(lambda: sal.append(saliency(src)))
    plane = side * side * 8
    assert sal[0].data.nbytes == plane
    assert (peak - plane) / plane <= 0.35


@pytest.mark.parametrize("height", [1, 2, 7, 10, 11, 12, 2 * _STRIP_ROWS + 5])
@pytest.mark.parametrize("width", [1, 6, 23])
def test_saliency_strips_of_any_height_match_reference(height, width):
    """The streamed saliency of a gray or colour source, in strips of 1 to
    16 rows, is the whole-plane reference bit for bit, on images shorter
    than the Gaussian (h < 11), one row or one column high or wide."""
    rng = np.random.default_rng(height * 31 + width)
    gray = Image(rng.uniform(0, 255, (height, width)))
    colour = Image(rng.uniform(0, 255, (height, width, 3)))
    config = FusionConfig()
    kernel = lepfuse.fusion._gaussian_kernel_1d(config.saliency_radius, config.saliency_sigma)
    for src in (gray, colour):
        want = reference_saliency(_luma(src).plane(), config.saliency_radius, config.saliency_sigma)
        for strip in range(1, _STRIP_ROWS + 1):
            got = np.empty((height, width))
            _fill(got, lepfuse.fusion._saliency_rows(src, kernel, strip))
            assert _same_bits(got, want), (src.channels, strip)


def test_colour_saliency_job_holds_no_luminance_plane():
    """A colour saliency job builds the luminance of the rows it reads, so
    it holds neither a luminance plane nor a padded plane: at 512^2 its
    traced peak is 0.39 planes, 0.09 of them luminance rows.  Writing the luminance into an edge-padded
    plane held 1.38, and building it first and padding a copy 2.38."""
    side = 512
    src = Image(np.random.default_rng(6).uniform(0, 255, (side, side, 3)))
    config = FusionConfig()
    kernel = lepfuse.fusion._gaussian_kernel_1d(config.saliency_radius, config.saliency_sigma)
    out = np.empty((side, side))
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        _fill(out, lepfuse.fusion._saliency_rows(src, kernel))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _same_bits(out, saliency(rgb_to_luma(src)).plane())
    assert (peak - start) / (side * side * 8) <= 0.45


def test_saliency_rejects_color():
    with pytest.raises(ValueError):
        saliency(constant_image(8, 8, 3, 1.0))


# --- binary weights ----------------------------------------------------------

def test_binary_weights_pick_max_and_break_ties_low():
    s1 = constant_image(4, 4, 1, 3.0)
    s2 = constant_image(4, 4, 1, 5.0)
    stack = binary_weight_maps([s1, s2])
    assert np.array_equal(stack.maps[0].data, np.zeros((4, 4, 1)))
    assert np.array_equal(stack.maps[1].data, np.ones((4, 4, 1)))

    tied = binary_weight_maps([s1, s1])
    assert np.array_equal(tied.maps[0].data, np.ones((4, 4, 1)))
    assert np.array_equal(tied.maps[1].data, np.zeros((4, 4, 1)))


def test_binary_weights_single_source_all_ones():
    stack = binary_weight_maps([constant_image(3, 3, 1, 0.0)])
    assert np.array_equal(stack.maps[0].data, np.ones((3, 3, 1)))


def test_binary_weights_sum_to_one_everywhere():
    sals = [_random_image(s, (9, 9)) for s in range(4)]
    stack = binary_weight_maps(sals)
    total = sum(m.data for m in stack.maps)
    assert np.array_equal(total, np.ones((9, 9, 1)))


@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("height", STRIP_HEIGHTS)
@pytest.mark.parametrize("width", [1, 9, 40])
def test_binary_weights_bitwise_equal_reference(count, height, width):
    """The strip-wise running maximum picks argmax's winner everywhere:
    saliencies drawn from three levels tie often, the first row is zero in
    every map, and a second set of maps is all equal."""
    rng = np.random.default_rng(count * 1000 + height * 10 + width)
    planes = [rng.integers(0, 3, (height, width)).astype(np.float64) for _ in range(count)]
    for plane in planes:
        plane[0] = 0.0
    equal = [planes[0]] * count
    for case in (planes, equal):
        got = binary_weight_maps([Image(p) for p in case])
        for m, want in zip(got.maps, reference_binary_weight_maps(case)):
            assert _same_bits(m.plane(), want)


def test_binary_weights_past_256_sources():
    """The winner plane takes a byte per pixel for up to 256 sources and
    two bytes beyond, so source 299 can still win."""
    rng = np.random.default_rng(300)
    planes = [rng.uniform(0, 1, (3, 4)) for _ in range(300)]
    planes[299][1, 2] = 2.0
    assert lepfuse.fusion._winner_plane(planes[:256]).dtype == np.uint8
    assert lepfuse.fusion._winner_plane(planes)[1, 2] == 299
    got = binary_weight_maps([Image(p) for p in planes])
    for m, want in zip(got.maps, reference_binary_weight_maps(planes)):
        assert _same_bits(m.plane(), want)


def test_binary_weights_validation():
    with pytest.raises(ValueError):
        binary_weight_maps([])
    with pytest.raises(ValueError):
        binary_weight_maps([constant_image(4, 4, 1, 0.0), constant_image(4, 5, 1, 0.0)])


def test_weight_stack_kind_validation():
    with pytest.raises(ValueError):
        WeightStack(maps=(constant_image(2, 2, 1, 1.0),), kind="bogus")
    with pytest.raises(ValueError):
        WeightStack(maps=(), kind="binary")
    with pytest.raises(ValueError):
        WeightStack(maps=(constant_image(2, 2, 3, 1.0),), kind="binary")


# --- refine ------------------------------------------------------------------

def test_refine_all_ones_stays_ones():
    stack = binary_weight_maps([_random_image(1, (12, 12))])
    guide = _random_image(2, (12, 12))
    refined = refine_weights(stack, [guide], FilterParams(radius=2, alpha=0.3))
    assert refined.kind == "refined"
    assert np.abs(refined.maps[0].data - 1.0).max() < 1e-9


def test_refine_constant_guide_box_smooths():
    # Flat guide: zero covariance path, so each map becomes its double
    # window mean (coefficient averaging applies a second box pass).
    rng = np.random.default_rng(8)
    binary = (rng.uniform(0, 1, (10, 10)) > 0.5).astype(np.float64)
    stack = WeightStack(maps=(Image(binary, 1.0),), kind="binary")
    guide = constant_image(10, 10, 1, 128.0)
    params = FilterParams(radius=2, alpha=0.3)
    refined = refine_weights(stack, [guide], params)
    expected = box_mean(box_mean(Image(binary, 1.0), 2), 2)
    assert np.abs(refined.maps[0].data - expected.data).max() < 1e-9


def test_refine_relocates_transition_to_guide_edge():
    """A weight transition misaligned with the guide's step edge must move
    onto the edge; checked against the per-window oracle and by probing
    sidedness."""
    from oracles import lep_oracle

    w = np.zeros((16, 16))
    w[:, 10:] = 1.0  # transition at column 10
    guide = np.where(np.arange(16)[np.newaxis, :].repeat(16, axis=0) < 6, 20.0, 230.0)
    params = FilterParams(radius=3, alpha=0.1)
    stack = WeightStack(maps=(Image(w, 1.0),), kind="binary")
    refined = refine_weights(stack, [Image(guide)], params)

    expected, _, _ = lep_oracle(w, guide, 3, params.alpha, params.beta)
    clamped = np.clip(expected, 0.0, 1.0)
    assert np.abs(refined.maps[0].plane() - clamped).max() < 1e-9

    mid_row = refined.maps[0].plane()[8]
    # The refined map now switches at the guide edge (column 6), not at the
    # original weight transition (column 10).
    assert mid_row[7] - mid_row[4] > 0.2


def _refine_scratch_bytes(height, width, count, params, traced_peak):
    # Peak bytes of refine_weights beyond its ``count`` output planes.
    rng = np.random.default_rng(height)
    binary = binary_weight_maps([Image(rng.uniform(0, 1, (height, width))) for _ in range(count)])
    guides = [Image(rng.uniform(0, 255, (height, width))) for _ in range(count)]
    refined = []
    peak = traced_peak(lambda: refined.append(refine_weights(binary, guides, params)))
    assert len(refined[0]) == count
    return peak - count * height * width * 8


@pytest.mark.parametrize("cpus", [1, 64])
@pytest.mark.parametrize("params", [FusionConfig().base_params, FusionConfig().detail_params])
def test_refine_holds_strip_scratch(monkeypatch, traced_peak, cpus, params):
    """Beyond its output maps, refine_weights fits the maps one after
    another in one scratch set of a few strips of rows, whatever the CPU
    count: at most 1.5 planes at 512^2 with the default radii, and no more
    for an image twice as tall (up to interpreter bookkeeping, far below
    the 2 MiB of one more plane)."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
    count, side = 2, 512
    before = threading.active_count()
    scratch = _refine_scratch_bytes(side, side, count, params, traced_peak)
    assert threading.active_count() == before
    assert scratch / (side * side * 8) <= 1.5
    assert abs(_refine_scratch_bytes(2 * side, side, count, params, traced_peak) - scratch) <= 64 * 1024


@pytest.mark.parametrize("filter_kind", ["lep", "guided"])
def test_refine_runs_here_into_private_planes(monkeypatch, filter_kind):
    """However many CPUs there are, refine_weights forks nothing: it fits
    its maps one after another into private planes, not memory maps, each
    the same, bit for bit, as the clamped filter of that map alone."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 64)

    def no_fork():
        raise AssertionError("refine_weights forked")

    monkeypatch.setattr(os, "fork", no_fork)
    sources = [_random_image(s, (2 * _STRIP_ROWS + 5, 20)) for s in range(3)]
    binary = binary_weight_maps([saliency(src) for src in sources])
    params = FilterParams(radius=4, alpha=0.05)
    refined = refine_weights(binary, sources, params, filter_kind)
    for m, src, got in zip(binary.maps, sources, refined.maps):
        if filter_kind == "lep":
            want = lep_filter_guided(m, src, params)
        else:
            want = guided_filter(m, src, params.radius, params.alpha)
        assert _same_bits(got.data, np.clip(want.data, 0.0, 1.0))
        assert not _mapped(got.data)


def test_refine_count_mismatch():
    stack = binary_weight_maps([_random_image(3, (8, 8))])
    with pytest.raises(ValueError):
        refine_weights(stack, [], FilterParams(radius=1))


# --- normalize ---------------------------------------------------------------

def test_normalize_direct_values():
    maps = (
        Image(np.full((3, 3), 0.2), 1.0),
        Image(np.full((3, 3), 0.6), 1.0),
    )
    normalized = normalize_weights(WeightStack(maps=maps, kind="refined"), 1e-12)
    assert normalized.kind == "normalized"
    assert np.allclose(normalized.maps[0].data, 0.25, atol=1e-9)
    assert np.allclose(normalized.maps[1].data, 0.75, atol=1e-9)


def test_normalize_all_zero_pixels_split_uniformly():
    maps = (
        Image(np.zeros((4, 4)), 1.0),
        Image(np.zeros((4, 4)), 1.0),
    )
    normalized = normalize_weights(WeightStack(maps=maps, kind="refined"), 1e-12)
    assert np.allclose(normalized.maps[0].data, 0.5, atol=1e-12)
    assert np.allclose(normalized.maps[1].data, 0.5, atol=1e-12)


def test_normalize_single_map_is_identity():
    maps = (Image(np.ones((4, 4)), 1.0),)
    normalized = normalize_weights(WeightStack(maps=maps, kind="refined"), 1e-12)
    assert np.allclose(normalized.maps[0].data, 1.0, atol=1e-12)


@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("height", STRIP_HEIGHTS)
@pytest.mark.parametrize("width", [1, 9, 40])
def test_normalize_bitwise_equal_reference(count, height, width):
    rng = np.random.default_rng(count * 1000 + height * 10 + width)
    planes = [rng.uniform(0.0, 1.0, (height, width)) for _ in range(count)]
    for plane in planes:
        plane[0, 0] = 0.0  # one pixel falls back to the uniform split
    stack = WeightStack(maps=tuple(Image(p, 1.0) for p in planes), kind="refined")
    got = normalize_weights(stack, 1e-12)
    for m, want in zip(got.maps, reference_normalize_weights(planes, 1e-12)):
        assert _same_bits(m.plane(), want)


def test_normalize_holds_one_plane_per_map():
    """Beyond the returned maps, normalization holds at most one more
    plane's worth of memory, whatever the image height."""
    count, side = 2, 512
    rng = np.random.default_rng(8)
    stack = WeightStack(maps=tuple(Image(rng.uniform(0.0, 1.0, (side, side)), 1.0) for _ in range(count)),
                        kind="refined")
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        normalized = normalize_weights(stack, 1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(normalized) == count
    assert (peak - start) / (side * side * 8) <= count + 1


def test_normalize_requires_refined_kind():
    stack = binary_weight_maps([_random_image(4, (6, 6))])
    with pytest.raises(ValueError):
        normalize_weights(stack, 1e-12)


def test_overflowing_weight_floor_refused(monkeypatch):
    """A floor for which the sum of N shifted weights overflows to inf is
    refused, by fuse before any stage runs; a single map's sum stays
    finite, so one source still takes it."""
    maps = tuple(Image(np.full((3, 3), 0.5), 1.0) for _ in range(2))
    with pytest.raises(ValueError, match="weight_floor"):
        normalize_weights(WeightStack(maps=maps, kind="refined"), 1e308)
    assert np.all(normalize_weights(WeightStack(maps=maps[:1], kind="refined"), 1e308).maps[0].data == 1.0)
    stages = []
    monkeypatch.setattr(lepfuse.fusion, "_streamed", lambda *args: stages.append(args))
    sources = [_random_image(s, (8, 8)) for s in (1, 2)]
    with pytest.raises(ValueError, match="weight_floor"):
        fuse(sources, FusionConfig(weight_floor=1e308))
    assert stages == []


# --- fuse --------------------------------------------------------------------

def test_fuse_single_source_returns_source():
    img = _random_image(10, (48, 48))
    result = fuse([img])
    assert np.abs(result.fused.data - img.data).max() < 1e-9


@pytest.mark.parametrize("copies", [2, 5])
def test_fuse_identical_copies(copies):
    img = _random_image(11, (48, 48))
    result = fuse([img] * copies)
    assert np.abs(result.fused.data - img.data).max() < 1e-6
    for stack in (result.base_weights, result.detail_weights):
        total = sum(m.data for m in stack.maps)
        assert np.abs(total - 1.0).max() < 1e-9


def test_fuse_weight_stacks_normalized_on_distinct_sources():
    sources = [_random_image(s, (48, 48)) for s in (1, 2, 3)]
    result = fuse(sources)
    for stack in (result.base_weights, result.detail_weights):
        total = sum(m.data for m in stack.maps)
        assert np.abs(total - 1.0).max() < 1e-9
        for m in stack.maps:
            assert m.data.min() >= 0.0
            assert m.data.max() <= 1.0 + 1e-12


def test_fuse_output_range_clamped():
    sources = [_random_image(s, (48, 48)) for s in (7, 8)]
    result = fuse(sources)
    assert result.fused.data.min() >= 0.0
    assert result.fused.data.max() <= 255.0


def test_fuse_permutation_equivariant_without_ties():
    """Permuting sources whose saliencies differ everywhere must not change
    the fused output (the argmax winner set is permutation-stable)."""
    base = _random_image(20, (48, 48))
    blurred = box_mean(base, 3)
    result_ab = fuse([base, blurred])
    sal_a = saliency(base)
    sal_b = saliency(blurred)
    assume_distinct = np.abs(sal_a.data - sal_b.data).min() > 0.0
    if not assume_distinct:
        pytest.skip("tie present; equivariance only promised for distinct saliencies")
    result_ba = fuse([blurred, base])
    assert np.abs(result_ab.fused.data - result_ba.fused.data).max() < 1e-9


def test_fuse_color_sources():
    rng = np.random.default_rng(30)
    a = Image(rng.uniform(0, 255, (40, 40, 3)))
    b = Image(rng.uniform(0, 255, (40, 40, 3)))
    result = fuse([a, b])
    assert result.fused.data.shape == (40, 40, 3)
    # Weights are shared across channels: single-channel maps.
    assert result.base_weights.maps[0].channels == 1


def test_fuse_validation():
    with pytest.raises(ValueError):
        fuse([])
    with pytest.raises(ValueError):
        fuse([constant_image(8, 8, 1, 0.0), constant_image(8, 9, 1, 0.0)])


def test_fuse_rejects_mixed_max_val():
    with pytest.raises(ValueError, match="15.*255|255.*15"):
        fuse([constant_image(8, 8, 1, 3.0, max_val=15.0), constant_image(8, 8, 1, 3.0)])


def test_fuse_multifocus_recovers_sharp_halves():
    """The constructed ground-truth experiment: each half of the fused
    image should match the source that is sharp there, and overall
    sharpness should not fall below the best source."""
    sharp, left_sharp, right_sharp = multifocus_pair(128, 128, 3.0)
    result = fuse([left_sharp, right_sharp])
    half = 64
    left = Rect(0, 0, half, 128)
    right = Rect(half, 0, half, 128)
    ssim_left = ssim(crop(result.fused, left), crop(left_sharp, left))
    ssim_right = ssim(crop(result.fused, right), crop(right_sharp, right))
    print(f"multifocus 128px: ssim left {ssim_left:.4f}, right {ssim_right:.4f}")
    assert ssim_left >= 0.90
    assert ssim_right >= 0.90
    assert sharpness(result.fused) >= 0.95 * max(sharpness(left_sharp), sharpness(right_sharp))


def test_fusion_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(avg_filter_size=30)
    with pytest.raises(ValueError):
        FusionConfig(base_params=FilterParams(radius=3), detail_params=FilterParams(radius=3))
    with pytest.raises(ValueError):
        FusionConfig(
            base_params=FilterParams(radius=15, alpha=1e-5),
            detail_params=FilterParams(radius=3, alpha=1e-4),
        )
    with pytest.raises(ValueError):
        FusionConfig(weight_floor=0.0)
    with pytest.raises(ValueError):
        FusionConfig(refine_filter="median")

# --- threaded stages ---------------------------------------------------------

def _serial_fuse(sources, config):
    """The pipeline composed stage by stage on whole planes: the reference
    saliency and binary maps, one map at a time refined with the public
    filters, the reference normalization, then the blend as fuse
    documents."""
    layers = tuple(decompose(src, config.avg_filter_size) for src in sources)
    lumas = [rgb_to_luma(src) if src.channels == 3 else src for src in sources]
    saliencies = tuple(
        Image(reference_saliency(luma.plane(), config.saliency_radius, config.saliency_sigma), luma.max_val)
        for luma in lumas
    )
    binary = WeightStack(
        maps=tuple(Image(m, 1.0) for m in reference_binary_weight_maps([s.plane() for s in saliencies])),
        kind="binary",
    )

    def refine(params):
        maps = []
        for weight_map, guide in zip(binary.maps, lumas):
            if config.refine_filter == "lep":
                filtered = lep_filter_guided(weight_map, guide, params)
            else:
                filtered = guided_filter(weight_map, guide, params.radius, params.alpha)
            maps.append(Image(np.clip(filtered.data, 0.0, 1.0), 1.0))
        return WeightStack(maps=tuple(maps), kind="refined")

    refined_base = refine(config.base_params)
    refined_detail = refine(config.detail_params)
    base_weights, detail_weights = (
        WeightStack(
            maps=tuple(Image(m, 1.0) for m in reference_normalize_weights(
                [m.plane() for m in refined.maps], config.weight_floor)),
            kind="normalized",
        )
        for refined in (refined_base, refined_detail)
    )
    fused_base = np.zeros(sources[0].data.shape)
    fused_detail = np.zeros(sources[0].data.shape)
    for pair, wb, wd in zip(layers, base_weights.maps, detail_weights.maps):
        fused_base += wb.plane()[:, :, np.newaxis] * pair.base.data
        fused_detail += wd.plane()[:, :, np.newaxis] * pair.detail.data
    max_val = sources[0].max_val
    return {
        "fused": [Image(np.clip(fused_base + fused_detail, 0.0, max_val), max_val)],
        "layers": [img for pair in layers for img in (pair.base, pair.detail)],
        "saliencies": list(saliencies),
        "binary_maps": list(binary.maps),
        "refined_base": list(refined_base.maps),
        "refined_detail": list(refined_detail.maps),
        "base_weights": list(base_weights.maps),
        "detail_weights": list(detail_weights.maps),
    }


def _result_fields(result):
    return {
        "fused": [result.fused],
        "layers": [img for pair in result.layers for img in (pair.base, pair.detail)],
        "saliencies": list(result.saliencies),
        "binary_maps": list(result.binary_maps.maps),
        "refined_base": list(result.refined_base.maps),
        "refined_detail": list(result.refined_detail.maps),
        "base_weights": list(result.base_weights.maps),
        "detail_weights": list(result.detail_weights.maps),
    }


def _assert_fuse_matches_serial(monkeypatch, cpus, refine_filter, channels, count, height):
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(count * 10 + channels)
    sources = [Image(rng.uniform(0, 255, (height, 70, channels))) for _ in range(count)]
    config = FusionConfig(refine_filter=refine_filter)
    before = threading.active_count()
    got = _result_fields(fuse(sources, config))
    assert threading.active_count() == before
    want = _serial_fuse(sources, config)
    assert got.keys() == want.keys()
    for name, images in want.items():
        assert len(got[name]) == len(images), name
        for a, b in zip(got[name], images):
            assert a.data.shape == b.data.shape, name
            assert np.array_equal(a.data.view(np.int64), b.data.view(np.int64)), name


@pytest.mark.parametrize("cpus", [1, 2, 64])
@pytest.mark.parametrize("refine_filter", ["lep", "guided"])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_fuse_bit_identical_for_any_thread_count(monkeypatch, cpus, refine_filter, channels, count):
    """One process, two processes that each run several jobs (layers,
    saliency, base and detail fits of several sources), or more processes
    than cores (up to one per job) gives every FusionResult field bit for
    bit as the serial whole-plane composition of the stages, on sources
    several row strips tall, and leaves no thread behind."""
    _assert_fuse_matches_serial(monkeypatch, cpus, refine_filter, channels, count, 3 * _STRIP_ROWS + 13)


@pytest.mark.parametrize("cpus", [1, 64])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("count", [1, 2, 5])
def test_fuse_bit_identical_on_one_row(monkeypatch, cpus, channels, count):
    _assert_fuse_matches_serial(monkeypatch, cpus, "lep", channels, count, 1)


def test_threaded_refine_rejects_bad_guided_config(monkeypatch):
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 64)
    config = FusionConfig(refine_filter="guided", detail_params=FilterParams(radius=3, alpha=0.0))
    sources = [_random_image(s, (16, 16)) for s in (1, 2, 3)]
    before = threading.active_count()
    with pytest.raises(ValueError, match="epsilon"):
        fuse(sources, config)
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_fuse_forks_twice_per_extra_process(monkeypatch):
    """fuse forks min(jobs, CPUs) - 1 children for each of its two
    streamed stages: at N = 3, the three saliency maps, then the six
    weight fits.  In one process it forks nothing."""
    real_fork, forks = os.fork, []

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    sources = [_random_image(s, (24, 20)) for s in (1, 2, 3)]
    for cpus, want in ((64, 2 + 5), (2, 2), (1, 0)):
        monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
        forks.clear()
        fuse(sources)
        assert len(forks) == want, cpus


def _stage_counts(monkeypatch):
    # The job count of every _streamed call, in call order.
    real, counts = lepfuse.fusion._streamed, []

    def counted(count, *args, **kwargs):
        counts.append(count)
        return real(count, *args, **kwargs)

    monkeypatch.setattr(lepfuse.fusion, "_streamed", counted)
    return counts


def _fit_log(monkeypatch, sources):
    # A shared (2, N, 3) plane that receives, for fit f (0 base, 1 detail)
    # of gray source n, the pid that ran it, the time of its first strip
    # and the time of its last.
    log = lepfuse.fusion._shared_planes(1, (2, len(sources), 3))[0]
    real, base_radius = lepfuse.fusion._fit, FusionConfig().base_params.radius

    def logged(pp, gg, params, **kwargs):
        guide = getattr(gg, "data", gg)  # a colour guide's image, or a gray plane
        entry = log[int(params.radius != base_radius),
                    next(n for n, src in enumerate(sources) if np.shares_memory(guide, src.data))]
        entry[:2] = os.getpid(), time.perf_counter()
        for rows, values in real(pp, gg, params, **kwargs):
            if rows.stop == gg.shape[0]:
                entry[2] = time.perf_counter()
            yield rows, values

    monkeypatch.setattr(lepfuse.fusion, "_fit", logged)
    return log


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_stages_split_jobs_by_fit(monkeypatch):
    """fuse streams two stages: N saliency maps, then 2N weight fits, the
    base fits first.  This process takes as many fits as even out the
    blend, which it also runs, at about a quarter of a fit per source
    channel: at N = 5 on two CPUs, 4 of 10 gray fits (the detail fits of
    sources 1 to 4) and 3 of 10 colour ones (detail fits 2 to 4).  The
    fits of one process run in lockstep: each starts before any of them
    has written its last strip.  With a CPU per job, this process takes
    none.  In one process the base fits end before any detail fit starts.
    refine_weights starts no stage."""
    sources = [_random_image(s, (3 * _STRIP_ROWS + 5, 20)) for s in range(5)]
    colour = [Image(np.repeat(src.data, 3, axis=2), 255.0) for src in sources]
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 2)
    counts = _stage_counts(monkeypatch)
    log = _fit_log(monkeypatch, sources + colour)
    here = os.getpid()
    for images, ours in ((sources, 4), (colour, 3)):
        counts.clear()
        fuse(images)
        fits = log[:, :5] if images is sources else log[:, 5:]
        pids = fits[:, :, 0].ravel().tolist()  # the base fits, then the detail fits
        assert counts == [5, 10]
        assert pids[10 - ours:] == [here] * ours
        assert len(set(pids[:10 - ours])) == 1 and here not in pids[:10 - ours]
        for share in (slice(0, 10 - ours), slice(10 - ours, 10)):
            assert np.max(fits[:, :, 1].ravel()[share]) < np.min(fits[:, :, 2].ravel()[share])

    binary = binary_weight_maps([saliency(src) for src in sources])
    counts.clear()
    refine_weights(binary, sources, FusionConfig().base_params)
    assert counts == []

    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 64)
    log[:] = 0.0
    fuse(sources[:3])
    pids = log[:, :3, 0].ravel().tolist()
    assert len(set(pids)) == 5 and here not in pids

    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 1)
    counts.clear()
    fuse(sources)
    base, detail = log[:, :5]
    assert counts == [5, 5]
    assert set(base[:, 0]) == set(detail[:, 0]) == {here}
    assert np.max(base[:, 2]) <= np.min(detail[:, 1]) and np.max(detail[:, 1]) < np.min(detail[:, 2])


def _strip_calls(calls, per_strip, h):
    # Checks that hook calls come strip by strip, each strip's calls the
    # (kind, n) of ``per_strip``, and that the strips cover rows 0..h in
    # order.
    assert [(kind, n) for kind, n, _, _ in calls] == per_strip * (len(calls) // len(per_strip))
    starts = calls[::len(per_strip)]
    bounds = [0] + [rows.stop for _, _, rows, _ in starts]
    assert [rows.start for _, _, rows, _ in starts] == bounds[:-1] and bounds[-1] == h


@pytest.mark.parametrize("cpus", [1, 2])
def test_fuse_hook_sees_each_stage_in_order(monkeypatch, cpus):
    """A caller's _dump hook gets every kind as strips of rows in order.
    First come the saliency maps, for each strip of the first stage each
    source's.  Then come the blend's strips: for each, the binary maps,
    the refined and the normalized base weights, the refined and the
    normalized detail weights of each source, then its base and detail
    layers.  Each strip is the rows of the result's plane, bit for bit.
    fuse then keeps no intermediates.  Without a hook, the result holds a
    private copy of every plane."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
    h, w, count = 2 * _STRIP_ROWS + 5, 20, 4
    sources = [Image(np.random.default_rng(s).uniform(0, 255, (h, w, 3))) for s in range(count)]
    calls = []

    def hook(kind, n, rows, data):
        calls.append((kind, n, rows, data.copy()))

    hooked = fuse(sources, _dump=hook)
    assert hooked.layers is hooked.saliencies is hooked.binary_maps is hooked.detail_weights is None
    result = fuse(sources)
    assert _same_bits(hooked.fused.data, result.fused.data)
    first = [call for call in calls if call[0] == "sal"]
    assert calls[:len(first)] == first
    _strip_calls(first, [("sal", n) for n in range(count)], h)
    weights = ["binary", "refined_base", "wb", "refined_detail", "wd"]
    _strip_calls(calls[len(first):], [(kind, n) for kind in weights for n in range(count)]
                 + [(kind, n) for n in range(count) for kind in ("base", "detail")], h)
    stacks = {"sal": result.saliencies, "binary": result.binary_maps.maps,
              "refined_base": result.refined_base.maps, "wb": result.base_weights.maps,
              "refined_detail": result.refined_detail.maps, "wd": result.detail_weights.maps,
              "base": [pair.base for pair in result.layers], "detail": [pair.detail for pair in result.layers]}
    for kind, n, rows, data in calls:
        assert _same_bits(data, stacks[kind][n].data[rows]), (kind, n, rows)

    private = [*result.saliencies, *result.binary_maps.maps, *result.refined_base.maps, *result.base_weights.maps,
               *result.refined_detail.maps, *result.detail_weights.maps,
               *(img for pair in result.layers for img in (pair.base, pair.detail))]
    assert not any(_mapped(img.data) for img in private)


@pytest.mark.parametrize("channels", [1, 3])
def test_fused_image_lies_over_the_base_planes_in_one_process(monkeypatch, channels):
    """Forked, fuse blends into a plain private image of its own, and the
    base weights are never whole.  In one process, the base weights are
    fitted first into shared planes, the first c of them the rows of one
    (h, c, w) mapping, and the fused image is written over that mapping,
    with one or two more planes for a colour fuse of fewer than three
    sources.  The samples are the same bit for bit, with a hook or
    without."""
    h, w = 2 * _STRIP_ROWS + 5, 20
    for count in (1, 2, 5):
        sources = [Image(np.random.default_rng(s).uniform(0, 255, (h, w, channels))) for s in range(count)]
        fused = {}
        for cpus in (1, 2):
            monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
            fused[cpus] = fuse(sources, _dump=lambda kind, n, rows, data: None).fused.data
            assert _same_bits(fused[cpus], fuse(sources).fused.data), (count, cpus)
        assert _same_bits(fused[1], fused[2]), count
        assert _mapped(fused[1]), count
        assert not _mapped(fused[2]), count


@pytest.mark.parametrize("cpus", [1, 2])
def test_colour_fuse_builds_no_luma_plane(monkeypatch, cpus):
    """A colour fuse never builds a luminance plane of its own: each
    saliency job and both weight fits of a source build the luminance of
    the rows they read, a strip at a time (a saliency job's first strip
    reads r + 1 rows more), each row once: a job keeps the rows it reads
    again.  A refinement job once built a whole luminance plane for its
    two fits, and a saliency job one padded plane."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
    real, built = lepfuse.image._rgb_to_luma, []
    parent = os.getpid()

    def recorded(data, luma, lo, hi):
        if os.getpid() == parent:
            built.append(len(luma))
        return real(data, luma, lo, hi)

    monkeypatch.setattr(lepfuse.image, "_rgb_to_luma", recorded)
    h = 3 * _STRIP_ROWS + 5
    sources = [Image(np.random.default_rng(s).uniform(0, 255, (h, 20, 3))) for s in range(5)]
    fuse(sources, _dump=lambda kind, n, rows, data: None)
    assert built and max(built) <= _STRIP_ROWS + FusionConfig().saliency_radius + 1
    if cpus == 1:
        assert sum(built) == 3 * len(sources) * h


@pytest.mark.parametrize("keep", [_STRIP_ROWS, 2 * _STRIP_ROWS + 8, 1000])
def test_luma_rows_match_the_luma_plane(monkeypatch, keep):
    """A weight fit on a colour source reads its guide from _Luma, which
    builds the rows asked for and keeps the last ones built.  The fit is
    the same, bit for bit, as on rgb_to_luma's plane; with at least two
    strips and 2r + 2 rows kept, each row is built once, and with fewer
    the rows asked for again are built again."""
    h = 5 * _STRIP_ROWS + 3
    img = Image(np.random.default_rng(keep).uniform(0, 255, (h, 11, 3)))
    p = np.random.default_rng(1).uniform(0, 1, (h, 11))
    params = FusionConfig().detail_params
    want = np.empty((h, 11))
    _fill(want, _fit(p, rgb_to_luma(img).plane(), params))
    real, built = lepfuse.image._rgb_to_luma, []

    def counted(data, luma, lo, hi):
        built.append(len(luma))
        return real(data, luma, lo, hi)

    monkeypatch.setattr(lepfuse.image, "_rgb_to_luma", counted)
    got = np.empty((h, 11))
    _fill(got, _fit(p, lepfuse.image._Luma(img.data, keep), params))
    assert _same_bits(got, want)
    if keep >= 2 * _STRIP_ROWS + 2 * params.radius + 2:
        assert sum(built) == h
    else:
        assert sum(built) > h


def _stage_pids(count, fail=None):
    # The pid of the process that ran each job of a _streamed stage of
    # ``count`` jobs, read back row by row through the stage's rings.  A
    # forked child's jobs raise ``fail`` before their first strip.
    h, parent = 3 * _STRIP_ROWS + 5, os.getpid()
    pids = np.zeros((count, h))

    def job(n, strip):
        if fail is not None and os.getpid() != parent:
            raise fail
        for rows in _strips(h, strip):
            yield rows, np.full((rows.stop - rows.start, 2), float(os.getpid()))

    def consume(strips):
        for rows in _strips(h, 7):
            pids[:, rows] = strips(rows)[:, :, 0]

    lepfuse.fusion._streamed(count, (h, 2), job, consume, 0.0, 1.0)
    assert np.all(pids == pids[:, :1])
    return [int(pid) for pid in pids[:, 0]]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_jobs_split_over_processes(monkeypatch, cpus):
    """Of W = min(jobs, CPUs) processes, this one runs the last 5 / W
    jobs, rounded, when its consumer costs nothing, and forked child j the
    jobs n = j, j + W - 1, ... before them; every forked child has exited
    afterwards."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
    pids = _stage_pids(5)
    workers = min(5, cpus)
    others = 5 - int(5 / workers + 0.5)
    assert pids[others:] == [os.getpid()] * (5 - others)
    assert len(set(pids)) == workers
    assert all(pids[n] == pids[n % (workers - 1)] for n in range(others))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_stay_in_process_while_a_thread_runs(monkeypatch):
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 64)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _stage_pids(3) == [os.getpid()] * 3
    finally:
        release.set()
        other.join()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_failed_worker_process_raises(monkeypatch, capfd):
    """Children that fail before their first strip print their traceback,
    and this process raises RuntimeError once both have exited."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 64)
    with pytest.raises(RuntimeError, match="2 of 2 worker processes failed"):
        _stage_pids(3, ZeroDivisionError("worker failed"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert "ZeroDivisionError: worker failed" in capfd.readouterr().err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_worker_out_of_memory_raises_memory_error(monkeypatch, capfd):
    """A forked child that runs out of memory prints no traceback, and the
    caller raises MemoryError rather than RuntimeError."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 64)
    with pytest.raises(MemoryError, match="2 of 2 worker processes ran out of memory"):
        _stage_pids(3, MemoryError("worker out of memory"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_failed_fork_runs_the_share_here(monkeypatch):
    """When os.fork fails, the jobs of the children not started run in
    this process: every job runs once, the one child started is reaped,
    and the pipes made for the fork that failed are closed."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 64)
    real_fork, real_waitpid, forks, reaped = os.fork, os.waitpid, [], []

    def failing_fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    def waitpid(pid, options):
        reaped.append(pid)
        return real_waitpid(pid, options)

    open_fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(os, "fork", failing_fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    pids = _stage_pids(3)
    monkeypatch.undo()
    assert len(forks) == 2
    assert pids[1] == pids[2] == os.getpid() != pids[0]
    assert reaped == [pids[0]]
    if open_fds is not None:
        assert len(os.listdir("/proc/self/fd")) == open_fds
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fails_in_children(monkeypatch, error):
    # Makes every detail fit that a forked child runs raise ``error`` at
    # its third strip.
    parent, real = os.getpid(), lepfuse.fusion._fit
    detail_radius = FusionConfig().detail_params.radius

    def failing(pp, gg, params, **kwargs):
        for k, strip in enumerate(real(pp, gg, params, **kwargs)):
            if k == 2 and params.radius == detail_radius and os.getpid() != parent:
                raise error
            yield strip

    monkeypatch.setattr(lepfuse.fusion, "_fit", failing)


# Sources ten strips tall, so the streamed stage runs past its ring.
_TALL = 10 * _STRIP_ROWS + 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("error, raised, message", [
    (ZeroDivisionError("child failed"), RuntimeError, "2 of 2 worker processes failed"),
    (MemoryError("child out of memory"), MemoryError, "2 of 2 worker processes ran out of memory"),
])
def test_child_failing_mid_stream_raises(monkeypatch, capfd, error, raised, message):
    """A child that fails part way through the streamed fit stage
    exits and so closes its pipes: this process stops waiting on its
    strips and raises RuntimeError, after the child has printed its
    traceback, or MemoryError, with no traceback, for a child out of
    memory.  Every child has exited afterwards."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 3)
    _fails_in_children(monkeypatch, error)
    sources = [_random_image(s, (_TALL, 20)) for s in range(5)]
    with pytest.raises(raised, match=message):
        fuse(sources, _dump=lambda kind, n, rows, data: None)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert ("Traceback" in capfd.readouterr().err) == (raised is RuntimeError)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("error, raised, message", [
    (ZeroDivisionError("child failed"), RuntimeError, "2 of 2 worker processes failed"),
    (MemoryError("child out of memory"), MemoryError, "2 of 2 worker processes ran out of memory"),
])
def test_child_failing_in_the_first_stage_raises(tmp_path, monkeypatch, capfd, error, raised, message):
    """A child that fails part way through the streamed saliency stage
    stops this process as one in the fit stage does: RuntimeError after
    the child's traceback, or MemoryError with none.  The command line,
    which exits 1 on MemoryError, leaves no output or temporary file,
    with intermediates dumped or not, and every child has exited."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 3)
    parent, real = os.getpid(), lepfuse.fusion._saliency_rows

    def failing(*args):
        for k, strip in enumerate(real(*args)):
            if k == 2 and os.getpid() != parent:
                raise error
            yield strip

    monkeypatch.setattr(lepfuse.fusion, "_saliency_rows", failing)
    sources = [_random_image(s, (_TALL, 20)) for s in range(5)]
    with pytest.raises(raised, match=message):
        fuse(sources, _dump=lambda kind, n, rows, data: None)
    paths = [tmp_path / f"src{n}.pgm" for n in range(len(sources))]
    for src, path in zip(sources, paths):
        write_image(src, path)
    before = sorted(tmp_path.iterdir())
    for extra in ([], ["--dump-intermediates"]):
        argv = ["fuse", *map(str, paths), "-o", str(tmp_path / "out.pgm"), *extra]
        if raised is MemoryError:
            assert main(argv) == 1
        else:
            with pytest.raises(RuntimeError, match=message):
                main(argv)
        assert sorted(tmp_path.iterdir()) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert ("Traceback" in capfd.readouterr().err) == (raised is RuntimeError)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_failing_hook_stops_the_streaming_children(monkeypatch, capfd):
    """When this process fails part way through the streamed stage, here
    in its hook, it closes its pipe ends, so a child waiting for room in
    its ring stops instead of waiting forever.  The hook's error is
    raised, no child prints a traceback, and every child has exited."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 2)
    sources = [_random_image(s, (_TALL, 20)) for s in range(2)]

    def hook(kind, n, rows, data):
        if kind == "wd" and rows.start > 0:
            raise KeyError("hook failed")

    with pytest.raises(KeyError, match="hook failed"):
        fuse(sources, _dump=hook)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert "Traceback" not in capfd.readouterr().err


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("failing, call", [("fork", 4), ("pipe", 7), ("pipe", 8)])
def test_failed_fork_in_the_streamed_stage_runs_the_share_here(monkeypatch, failing, call):
    """When os.fork, or os.pipe for the pipes of a child, fails after one
    child of the streamed fit stage has started, this process takes the
    fits of the children not started into its own lockstep: run after the
    blend, they could never deliver the strips that the blend waits on.
    Each of its fits starts before any of them writes its last strip, the
    one child is reaped, as are both of the saliency stage, and only they,
    no pipe is left open, and every field of the result is the same, bit
    for bit, as with working forks.  Each stage forks two children here and
    opens two pipes per child, so fork 4 and pipes 7 and 8 are those of the
    fit stage's second child."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 3)
    sources = [_random_image(s, (_TALL, 20)) for s in range(5)]
    want = _result_fields(fuse(sources))
    real, calls = getattr(os, failing), []

    def failing_call():
        calls.append(None)
        if len(calls) == call:
            raise OSError(errno.EMFILE if failing == "pipe" else errno.EAGAIN, "failed")
        return real()

    real_waitpid, reaped = os.waitpid, []

    def waitpid(pid, options):
        reaped.append(pid)
        return real_waitpid(pid, options)

    open_fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    monkeypatch.setattr(os, failing, failing_call)
    monkeypatch.setattr(os, "waitpid", waitpid)
    log = _fit_log(monkeypatch, sources)
    got = _result_fields(fuse(sources))
    assert len(calls) == call
    assert len(set(reaped)) == len(reaped) == 3 and reaped[-1] == log[0, 0, 0]
    if open_fds is not None:
        assert len(os.listdir("/proc/self/fd")) == open_fds
    for name, images in want.items():
        for a, b in zip(got[name], images):
            assert _same_bits(a.data, b.data), name
    # Of jobs 0-9 (base fits of sources 0-4, then their detail fits), the
    # child started takes 0, 2, 4 and 6, and this process the share of
    # the child not started, 1, 3 and 5, with its own, 7, 8 and 9.
    pids, starts, ends = (log[:, :, k].ravel() for k in range(3))
    here = [1, 3, 5, 7, 8, 9]
    assert pids[here].tolist() == [os.getpid()] * 6
    assert len(set(pids[[0, 2, 4, 6]])) == 1 and pids[0] != os.getpid()
    assert np.max(starts[here]) < np.min(ends[here])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("avg_filter_size", [3, 33, 63])
@pytest.mark.parametrize("detail_radius", [1, 8, 15])
def test_streamed_stage_keeps_up_with_any_strips(monkeypatch, avg_filter_size, detail_radius):
    """The blend's strips lag the rows by the layers' radius, and each fit
    yields strips that lag by its own radii, so the ring strips that a
    blend strip waits on, and those a fit writes ahead, vary with both.
    A ring of two strips deadlocks on some of these; three never do, and
    the fused image is the same, bit for bit, as from one process."""
    sources = [_random_image(s, (_TALL, 9)) for s in range(3)]
    config = FusionConfig(avg_filter_size=avg_filter_size, detail_params=FilterParams(detail_radius, 1e-4),
                          base_params=FilterParams(detail_radius + 1, 0.3))
    fused = []
    for cpus in (2, 1):
        monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
        fused.append(fuse(sources, config, _dump=lambda kind, n, rows, data: None).fused.data)
    assert _same_bits(*fused)


def test_streamed_stage_runs_here_while_a_thread_runs(monkeypatch):
    """While another thread runs, fuse forks nothing: every stage, the
    streamed one too, runs in this process (W = 1), and every field of the
    result is the same, bit for bit, as from forked stages."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 64)
    sources = [Image(np.random.default_rng(s).uniform(0, 255, (_TALL, 20, 3))) for s in range(3)]
    want = _result_fields(fuse(sources))

    def no_fork():
        raise AssertionError("forked while a thread runs")

    monkeypatch.setattr(os, "fork", no_fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        got = _result_fields(fuse(sources))
    finally:
        release.set()
        other.join()
    for name, images in want.items():
        for a, b in zip(got[name], images):
            assert _same_bits(a.data, b.data), name


def test_import_starts_no_thread():
    src = Path(lepfuse.fusion.__file__).resolve().parent.parent
    code = (
        "import threading; before = threading.active_count(); import lepfuse; "
        "assert threading.active_count() == before, threading.enumerate()"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
