"""Fusion pipeline stages and the end-to-end contracts."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lepfuse.fusion
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
)
from lepfuse.filters import _STRIP_ROWS
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


def test_saliency_holds_two_planes_of_scratch(shared_bytes):
    """Beyond its output, saliency holds the edge-padded source and the
    Laplacian's scratch plane, then the edge-padded response: at most
    2.25 planes at 512^2."""
    side = 512
    src = Image(np.random.default_rng(4).uniform(0, 255, (side, side)))
    shared_bytes.clear()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        sal = saliency(src)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    plane = side * side * 8
    assert sal.data.nbytes == plane
    assert (peak - start + sum(shared_bytes) - plane) / plane <= 2.25


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


def _refine_scratch_bytes(height, width, count, params, shared_bytes):
    # Peak bytes of refine_weights beyond its ``count`` output planes: the
    # traced peak plus every shared plane, which tracemalloc does not see.
    rng = np.random.default_rng(height)
    binary = binary_weight_maps([Image(rng.uniform(0, 1, (height, width))) for _ in range(count)])
    guides = [Image(rng.uniform(0, 255, (height, width))) for _ in range(count)]
    shared_bytes.clear()
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        refined = refine_weights(binary, guides, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(refined) == count
    return peak - start + sum(shared_bytes) - count * height * width * 8


@pytest.mark.parametrize("cpus", [1, 64])
@pytest.mark.parametrize("params", [FusionConfig().base_params, FusionConfig().detail_params])
def test_refine_holds_strip_scratch(monkeypatch, shared_bytes, cpus, params):
    """Beyond its output maps, the calling process refines its share of the
    maps in one scratch set of a few strips of rows, whatever the CPU
    count: at most 1.5 planes at 512^2 with the default radii, and no more
    for an image twice as tall (up to interpreter bookkeeping, far below
    the 2 MiB of one more plane).  tracemalloc sees no forked process's
    scratch."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
    count, side = 2, 512
    before = threading.active_count()
    scratch = _refine_scratch_bytes(side, side, count, params, shared_bytes)
    assert threading.active_count() == before
    assert scratch / (side * side * 8) <= 1.5
    assert abs(_refine_scratch_bytes(2 * side, side, count, params, shared_bytes) - scratch) <= 64 * 1024


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


@pytest.mark.parametrize("cpus", [1, 64])
@pytest.mark.parametrize("refine_filter", ["lep", "guided"])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("count", [1, 2, 3, 5])
def test_fuse_bit_identical_for_any_thread_count(monkeypatch, cpus, refine_filter, channels, count):
    """One process, or more processes than cores (up to one per source),
    gives every FusionResult field bit for bit as the serial whole-plane
    composition of the stages, on sources several row strips tall, and
    leaves no thread behind."""
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
@pytest.mark.parametrize("keep", [True, False])
def test_fuse_forks_twice_per_extra_process(monkeypatch, keep):
    """fuse forks W - 1 children for saliency and W - 1 for refinement,
    which fits both the base and the detail map in each job, with or
    without intermediates."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 64)
    real_fork, forks = os.fork, []

    def counted_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    sources = [_random_image(s, (24, 20)) for s in (1, 2, 3)]
    fuse(sources, _keep_intermediates=keep)
    assert len(forks) == 2 * (len(sources) - 1)


def _job_pids(count):
    # The pid of the process that ran each job of _each_in_processes.
    outs = lepfuse.fusion._shared_planes(count, (2,))

    def job(n):
        outs[n][:] = os.getpid()

    lepfuse.fusion._each_in_processes(count, job, outs)
    return [int(out[0]) for out in outs]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("cpus", [1, 2, 64])
def test_jobs_split_over_processes(monkeypatch, cpus):
    """Job n runs in worker n mod W of W = min(jobs, CPUs) processes, this
    one being worker 0, and every forked worker has exited afterwards."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
    pids = _job_pids(5)
    workers = min(5, cpus)
    assert pids[::workers] == [os.getpid()] * len(pids[::workers])
    assert len(set(pids)) == workers
    assert all(pids[n] == pids[n % workers] for n in range(5))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_jobs_stay_in_process_while_a_thread_runs(monkeypatch):
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 64)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _job_pids(3) == [os.getpid()] * 3
    finally:
        release.set()
        other.join()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_failed_worker_process_raises(monkeypatch):
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 64)
    parent = os.getpid()

    outs = lepfuse.fusion._shared_planes(3, (2,))

    def job(n):
        if os.getpid() != parent:
            raise MemoryError("worker out of memory")
        outs[n][:] = 1.0

    with pytest.raises(RuntimeError, match="2 of 2 worker processes failed"):
        lepfuse.fusion._each_in_processes(3, job, outs)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 64])
def test_private_outs_rejected(monkeypatch, cpus):
    """A forked job writing a private array would write its own copy, so
    outputs that are not views of shared planes are refused before any
    job runs, whether or not the jobs would fork."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
    ran = []
    outs = lepfuse.fusion._shared_planes(2, (4, 3, 1))
    outs.append(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="shared plane"):
        lepfuse.fusion._each_in_processes(3, ran.append, outs)
    assert ran == []
    planes = [out[:, :, 0] for out in outs[:2]]
    lepfuse.fusion._each_in_processes(2, lambda n: planes[n].fill(n), planes)
    assert [float(out.max()) for out in outs[:2]] == [0.0, 1.0]


def test_import_starts_no_thread():
    src = Path(lepfuse.fusion.__file__).resolve().parent.parent
    code = (
        "import threading; before = threading.active_count(); import lepfuse; "
        "assert threading.active_count() == before, threading.enumerate()"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
