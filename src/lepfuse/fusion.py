"""Two-scale image fusion with edge-preserving weight refinement.

Each source is split into a base layer (box mean) and a detail layer
(residual).  A saliency map per source picks a winner pixel-wise; the
resulting binary weight maps are refined by filtering them with the source
luminance as guidance, once with large-window parameters for the base
layers and once with small-window parameters for the detail layers.  The
refined weights are normalized to sum to one and the layers are blended.

The Laplacian used by the saliency measure is the fixed 4-neighbor kernel
from :func:`lepfuse.filters.laplacian_filter`; it is not configurable.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .filters import (
    FilterParams,
    _fit_workspace,
    _guided_fit,
    _guided_params,
    _guided_planes,
    box_mean,
    gaussian_filter,
    laplacian_filter,
)
from .image import Image, _luma

REFINE_FILTERS = ("lep", "guided")


@dataclass(frozen=True)
class FusionConfig:
    """Knobs for the fusion pipeline.

    The base-layer weights want a large window and strong smoothing so that
    focus regions merge without halos; the detail-layer weights want a small
    window and nearly no smoothing so that fine structure switches sharply
    between sources.  The invariants below enforce that ordering.

    ``refine_filter`` selects the weight-refinement filter: ``"lep"`` for the
    gradient-adaptive filter, ``"guided"`` for the constant-regularizer
    baseline: the same fit at beta = 2, where each FilterParams.alpha is the
    constant regularizer epsilon.
    """

    avg_filter_size: int = 31
    saliency_radius: int = 5
    saliency_sigma: float = 5.0
    base_params: FilterParams = field(default_factory=lambda: FilterParams(radius=15, alpha=0.3))
    detail_params: FilterParams = field(default_factory=lambda: FilterParams(radius=3, alpha=1e-4))
    weight_floor: float = 1e-12
    refine_filter: str = "lep"

    def __post_init__(self):
        if self.avg_filter_size < 3 or self.avg_filter_size % 2 == 0:
            raise ValueError(
                f"avg_filter_size must be odd and >= 3, got {self.avg_filter_size}"
            )
        if self.saliency_radius < 1:
            raise ValueError(f"saliency_radius must be >= 1, got {self.saliency_radius}")
        if not (np.isfinite(self.saliency_sigma) and self.saliency_sigma > 0.0):
            raise ValueError(f"saliency_sigma must be positive, got {self.saliency_sigma}")
        if self.base_params.radius <= self.detail_params.radius:
            raise ValueError(
                "base radius must exceed detail radius, got "
                f"{self.base_params.radius} vs {self.detail_params.radius}"
            )
        if self.base_params.alpha <= self.detail_params.alpha:
            raise ValueError(
                "base alpha must exceed detail alpha, got "
                f"{self.base_params.alpha} vs {self.detail_params.alpha}"
            )
        if not (np.isfinite(self.weight_floor) and self.weight_floor > 0.0):
            raise ValueError(f"weight_floor must be positive, got {self.weight_floor}")
        if self.refine_filter not in REFINE_FILTERS:
            raise ValueError(
                f"refine_filter must be one of {REFINE_FILTERS}, got {self.refine_filter!r}"
            )


@dataclass(frozen=True)
class LayerPair:
    """Base layer plus the detail residual; base + detail reconstructs the source."""

    base: Image
    detail: Image


@dataclass(frozen=True)
class WeightStack:
    """One single-channel weight map per source.

    ``kind`` records the pipeline stage: "binary" (argmax indicators),
    "refined" (filtered, clamped to [0, 1]), or "normalized" (sum to one
    at every pixel).
    """

    maps: tuple
    kind: str

    def __post_init__(self):
        if self.kind not in ("binary", "refined", "normalized"):
            raise ValueError(f"unknown weight stack kind {self.kind!r}")
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("weight stack needs at least one map")
        shape = maps[0].data.shape
        for m in maps:
            if m.channels != 1:
                raise ValueError("weight maps must be single-channel")
            if m.data.shape != shape:
                raise ValueError(
                    f"weight map dimensions differ: {m.data.shape} vs {shape}"
                )
        object.__setattr__(self, "maps", maps)

    def __len__(self) -> int:
        return len(self.maps)


@dataclass(frozen=True)
class FusionResult:
    """Fused image plus every pipeline intermediate, in pipeline order."""

    fused: Image
    layers: tuple
    saliencies: tuple
    binary_maps: WeightStack
    refined_base: WeightStack
    refined_detail: WeightStack
    base_weights: WeightStack
    detail_weights: WeightStack


def decompose(src: Image, avg_filter_size: int = FusionConfig.avg_filter_size) -> LayerPair:
    """Split into a box-mean base layer and the detail residual."""
    if avg_filter_size < 3 or avg_filter_size % 2 == 0:
        raise ValueError(f"avg_filter_size must be odd and >= 3, got {avg_filter_size}")
    base = box_mean(src, (avg_filter_size - 1) // 2)
    detail = Image(src.data - base.data, src.max_val)
    return LayerPair(base=base, detail=detail)


def saliency(src_luma: Image, config: FusionConfig = FusionConfig()) -> Image:
    """Blurred absolute Laplacian response; large where fine detail is in focus."""
    if src_luma.channels != 1:
        raise ValueError(f"saliency requires a single-channel image, got {src_luma.channels} channels")
    response = np.abs(laplacian_filter(src_luma).data)
    return gaussian_filter(
        Image(response, src_luma.max_val),
        config.saliency_radius,
        config.saliency_sigma,
    )


def binary_weight_maps(saliencies) -> WeightStack:
    """Indicator maps of the per-pixel saliency winner.

    Exactly one map is 1 at each pixel; ties go to the lowest source index
    so the maps always sum to one.
    """
    saliencies = list(saliencies)
    if not saliencies:
        raise ValueError("need at least one saliency map")
    shape = saliencies[0].data.shape
    for s in saliencies:
        if s.channels != 1:
            raise ValueError("saliency maps must be single-channel")
        if s.data.shape != shape:
            raise ValueError(f"saliency map dimensions differ: {s.data.shape} vs {shape}")
    stacked = np.stack([s.plane() for s in saliencies], axis=0)
    winner = np.argmax(stacked, axis=0)
    maps = tuple(
        Image((winner == n).astype(np.float64), 1.0) for n in range(len(saliencies))
    )
    return WeightStack(maps=maps, kind="binary")


def _usable_cpus() -> int:
    # CPUs this process may run on, which can be fewer than the machine has.
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def refine_weights(
    binary: WeightStack,
    guides,
    params: FilterParams,
    filter_kind: str = "lep",
) -> WeightStack:
    """Filter each weight map with its source luminance as guidance.

    The cross-guided linear fit relocates weight transitions onto the
    guide's edges.  It can overshoot [0, 1] slightly, so the result is
    clamped before use.  ``filter_kind`` "lep" applies lep_filter_guided
    with ``params``; "guided" applies guided_filter with ``params.radius``
    and epsilon ``params.alpha``.

    The maps are refined independently on min(maps, usable CPUs) threads.
    This thread allocates every output plane and one scratch set per
    thread, so the threads allocate no large arrays of their own, and each
    output is the same, bit for bit, whatever the thread count.
    """
    from concurrent.futures import ThreadPoolExecutor

    guides = list(guides)
    if len(guides) != len(binary.maps):
        raise ValueError(
            f"got {len(binary.maps)} weight maps but {len(guides)} guides"
        )
    if filter_kind not in REFINE_FILTERS:
        raise ValueError(f"filter_kind must be one of {REFINE_FILTERS}, got {filter_kind!r}")
    if filter_kind == "guided":
        params = _guided_params(params.radius, params.alpha)
    pairs = [_guided_planes(m, g) for m, g in zip(binary.maps, guides)]
    shape = pairs[0][0].shape
    outs = [np.empty(shape) for _ in pairs]
    workers = min(len(pairs), _usable_cpus())
    works = [_fit_workspace(shape, params.radius) for _ in range(workers)]

    def refine_share(worker):
        for n in range(worker, len(pairs), workers):
            _guided_fit(outs[n], *pairs[n], params, works[worker])
            np.clip(outs[n], 0.0, 1.0, out=outs[n])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(refine_share, worker) for worker in range(workers)]
        for future in futures:
            future.result()
    del works  # the scratch is freed before Image copies the outputs
    return WeightStack(maps=tuple(Image(out, 1.0) for out in outs), kind="refined")


def normalize_weights(stack: WeightStack, weight_floor: float = FusionConfig.weight_floor) -> WeightStack:
    """Scale the maps so they sum to one at every pixel.

    The floor keeps the denominator positive where every refined weight is
    zero; such pixels fall back to a uniform split.
    """
    if stack.kind != "refined":
        raise ValueError(f"can only normalize refined weight stacks, got kind {stack.kind!r}")
    if not (np.isfinite(weight_floor) and weight_floor > 0.0):
        raise ValueError(f"weight_floor must be positive, got {weight_floor}")
    shifted = [m.data + weight_floor for m in stack.maps]
    total = np.sum(shifted, axis=0)
    maps = tuple(Image(s / total, 1.0) for s in shifted)
    return WeightStack(maps=maps, kind="normalized")


def fuse(sources, config: FusionConfig = FusionConfig()) -> FusionResult:
    """Run the full two-scale fusion pipeline.

    Sources must share dimensions, channel count and max_val.  Weights are computed
    on luminance and shared across color channels.  The fused image is
    clamped to [0, max_val] at the very end; everything upstream keeps its
    raw values, which the result exposes for inspection.
    """
    sources = list(sources)
    if not sources:
        raise ValueError("need at least one source image")
    shape = sources[0].data.shape
    max_val = sources[0].max_val
    for src in sources:
        if src.data.shape != shape:
            raise ValueError(f"source dimensions differ: {src.data.shape} vs {shape}")
        if src.max_val != max_val:
            raise ValueError(f"source max_val differs: {src.max_val:g} vs {max_val:g}")

    lumas = [_luma(src) for src in sources]
    saliencies = tuple(saliency(l, config) for l in lumas)
    binary = binary_weight_maps(saliencies)
    refined_base = refine_weights(binary, lumas, config.base_params, config.refine_filter)
    refined_detail = refine_weights(binary, lumas, config.detail_params, config.refine_filter)
    base_weights = normalize_weights(refined_base, config.weight_floor)
    detail_weights = normalize_weights(refined_detail, config.weight_floor)
    # Decomposed last, so the layers are not held while the weights are refined.
    layers = tuple(decompose(src, config.avg_filter_size) for src in sources)

    fused_base = np.zeros(shape, dtype=np.float64)
    fused_detail = np.zeros(shape, dtype=np.float64)
    for pair, wb, wd in zip(layers, base_weights.maps, detail_weights.maps):
        fused_base += wb.plane()[:, :, np.newaxis] * pair.base.data
        fused_detail += wd.plane()[:, :, np.newaxis] * pair.detail.data
    fused = Image(np.clip(fused_base + fused_detail, 0.0, max_val), max_val)

    return FusionResult(
        fused=fused,
        layers=layers,
        saliencies=saliencies,
        binary_maps=binary,
        refined_base=refined_base,
        refined_detail=refined_detail,
        base_weights=base_weights,
        detail_weights=detail_weights,
    )
