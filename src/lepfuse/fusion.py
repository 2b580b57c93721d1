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
    _STRIP_ROWS,
    FilterParams,
    _fit_workspace,
    _gaussian_kernel_1d,
    _guided_fit,
    _guided_params,
    _guided_planes,
    _laplacian_rows,
    _strips,
    _valid_correlate_sep,
    box_mean,
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


def _saliency_workspace(width: int, radius: int) -> tuple:
    # Strip buffers for one saliency map at a time: the edge-padded source
    # rows, the edge-padded response strip and the correlation scratch,
    # whose first strip also holds the Laplacian's scratch.
    rows = _STRIP_ROWS + 2 * radius
    return (np.empty((rows + 2, width + 2)), np.empty((rows, width + 2 * radius)),
            np.empty((2, rows, width + 2 * radius)))


def _saliency(out: np.ndarray, plane: np.ndarray, kernel: np.ndarray, work: tuple) -> np.ndarray:
    # The Gaussian-blurred |Laplacian| of ``plane``, both edge-padded, one
    # strip of output rows at a time.  Each strip needs the response rows
    # within ``radius`` of it, clipped at the borders and edge-padded past
    # them, and those need one more source row on each side.
    band, response, scratch = work
    radius = len(kernel) // 2
    h, w = plane.shape
    for rows in _strips(h):
        lo, hi = max(rows.start - radius, 0), min(rows.stop + radius, h)
        src = band[:hi - lo + 2]
        src[1:-1, 1:-1] = plane[lo:hi]
        src[0, 1:-1] = plane[max(lo - 1, 0)]
        src[-1, 1:-1] = plane[min(hi, h - 1)]
        src[:, 0] = src[:, 1]
        src[:, -1] = src[:, -2]
        strip = response[:rows.stop - rows.start + 2 * radius]
        top = lo - rows.start + radius
        body = strip[top:top + hi - lo, radius:radius + w]
        np.abs(_laplacian_rows(src, body, scratch[0, :hi - lo, :w]), out=body)
        strip[:top, radius:radius + w] = body[0]
        strip[top + hi - lo:, radius:radius + w] = body[-1]
        strip[:, :radius] = strip[:, radius:radius + 1]
        strip[:, radius + w:] = strip[:, radius + w - 1:radius + w]
        _valid_correlate_sep(strip, kernel, out=out[rows], scratch=scratch)
    return out


def _saliencies(lumas, config: FusionConfig) -> tuple:
    # One saliency map per single-channel image, on threads.
    planes = [luma.plane() for luma in lumas]
    h, w = planes[0].shape
    kernel = _gaussian_kernel_1d(config.saliency_radius, config.saliency_sigma)
    outs = [np.empty((h, w, 1)) for _ in planes]
    _each_on_threads(
        len(planes),
        lambda: _saliency_workspace(w, config.saliency_radius),
        lambda n, work: _saliency(outs[n][:, :, 0], planes[n], kernel, work),
    )
    return tuple(Image._adopt(out, luma.max_val) for out, luma in zip(outs, lumas))


def saliency(src_luma: Image, config: FusionConfig = FusionConfig()) -> Image:
    """Blurred absolute Laplacian response; large where fine detail is in focus.

    The 4-neighbor Laplacian and the Gaussian of ``config.saliency_radius``
    and ``config.saliency_sigma`` both see an edge-padded input.  The map
    is built in strips of rows with no full-size temporary, and equals the
    whole-image laplacian_filter, abs and gaussian_filter bit for bit.
    """
    if src_luma.channels != 1:
        raise ValueError(f"saliency requires a single-channel image, got {src_luma.channels} channels")
    return _saliencies([src_luma], config)[0]


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


def _each_on_threads(count: int, workspace, job) -> None:
    # Runs job(n, work) for every n < count on min(count, usable CPUs)
    # threads.  Thread j takes n = j, j + threads, ... in its own ``work``,
    # which this thread builds with workspace() beforehand, so the threads
    # allocate no large arrays of their own.  Every future's result is read,
    # so an exception in a job is raised here.
    workers = min(count, _usable_cpus())
    works = [workspace() for _ in range(workers)]

    def share(worker):
        for n in range(worker, count, workers):
            job(n, works[worker])

    if workers == 1:
        share(0)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(share, worker) for worker in range(workers)]
        for future in futures:
            future.result()


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

    def refine(n, work):
        _guided_fit(outs[n], *pairs[n], params, work)
        np.clip(outs[n], 0.0, 1.0, out=outs[n])

    _each_on_threads(len(pairs), lambda: _fit_workspace(shape, params.radius), refine)
    return WeightStack(maps=tuple(Image(out, 1.0) for out in outs), kind="refined")


def _normalized(stack: WeightStack, weight_floor: float) -> WeightStack:
    # (map + floor) / sum over maps of (map + floor), in strips of rows.
    # Each output plane holds its shifted map until the strip's quotient
    # overwrites it, so the only other memory is one strip of the sum.
    maps = [m.data for m in stack.maps]
    outs = [np.empty(maps[0].shape) for _ in maps]
    total = np.empty((min(len(outs[0]), _STRIP_ROWS),) + outs[0].shape[1:])
    for rows in _strips(len(outs[0])):
        acc = total[:rows.stop - rows.start]
        for out, m in zip(outs, maps):
            np.add(m[rows], weight_floor, out=out[rows])
        np.copyto(acc, outs[0][rows])
        for out in outs[1:]:
            acc += out[rows]
        for out in outs:
            np.divide(out[rows], acc, out=out[rows])
    return WeightStack(maps=tuple(Image._adopt(out, 1.0) for out in outs), kind="normalized")


def normalize_weights(stack: WeightStack, weight_floor: float = FusionConfig.weight_floor) -> WeightStack:
    """Scale the maps so they sum to one at every pixel.

    The floor keeps the denominator positive where every refined weight is
    zero; such pixels fall back to a uniform split.  Each map becomes
    (map + floor) / sum of (map + floor), summed in source order.  It is
    computed in strips of rows, so beyond the returned maps it holds only
    one strip of the sum.
    """
    if stack.kind != "refined":
        raise ValueError(f"can only normalize refined weight stacks, got kind {stack.kind!r}")
    if not (np.isfinite(weight_floor) and weight_floor > 0.0):
        raise ValueError(f"weight_floor must be positive, got {weight_floor}")
    return _normalized(stack, weight_floor)


def _blend(layers, base_weights: WeightStack, detail_weights: WeightStack, max_val: float) -> np.ndarray:
    # sum(wb * base) + sum(wd * detail) over the sources, clipped to
    # [0, max_val], in strips of rows.  Both sums start from zero and add
    # the sources in order.
    h, w, c = layers[0].base.data.shape
    fused = np.empty((h, w, c))
    fb, fd, tmp = np.empty((3, min(h, _STRIP_ROWS), w, c))
    for rows in _strips(h):
        n = rows.stop - rows.start
        b, d, t = fb[:n], fd[:n], tmp[:n]
        b.fill(0.0)
        d.fill(0.0)
        for pair, wb, wd in zip(layers, base_weights.maps, detail_weights.maps):
            b += np.multiply(wb.data[rows], pair.base.data[rows], out=t)
            d += np.multiply(wd.data[rows], pair.detail.data[rows], out=t)
        np.clip(np.add(b, d, out=fused[rows]), 0.0, max_val, out=fused[rows])
    return fused


def fuse(sources, config: FusionConfig = FusionConfig()) -> FusionResult:
    """Run the full two-scale fusion pipeline.

    Sources must share dimensions, channel count and max_val.  Weights are computed
    on luminance and shared across color channels.  The fused image is
    clamped to [0, max_val] at the very end; everything upstream keeps its
    raw values, which the result exposes for inspection.

    Saliency and weight refinement run one source per thread on up to
    min(sources, usable CPUs) threads.  Saliency, normalization and the
    blend work in strips of rows with no full-size temporaries.  Every
    field of the result is the same, bit for bit, as from the public stages
    composed on whole planes, whatever the thread count.
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
    saliencies = _saliencies(lumas, config)
    binary = binary_weight_maps(saliencies)
    refined_base = refine_weights(binary, lumas, config.base_params, config.refine_filter)
    refined_detail = refine_weights(binary, lumas, config.detail_params, config.refine_filter)
    base_weights = _normalized(refined_base, config.weight_floor)
    detail_weights = _normalized(refined_detail, config.weight_floor)
    # Decomposed last, so the layers are not held while the weights are refined.
    layers = tuple(decompose(src, config.avg_filter_size) for src in sources)
    fused = Image._adopt(_blend(layers, base_weights, detail_weights, max_val), max_val)

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
