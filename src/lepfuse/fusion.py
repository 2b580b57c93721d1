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

import mmap
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .filters import (
    _STRIP_ROWS,
    FilterParams,
    _box_means,
    _drain,
    _fit,
    _gaussian_kernel_1d,
    _guided_params,
    _guided_planes,
    _laplacian_rows,
    _row_blocks,
    _strips,
    _valid_correlate_sep,
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
    """Fused image plus every pipeline intermediate, in pipeline order.

    The intermediates are None when ``fuse`` was told not to keep them.
    """

    fused: Image
    layers: tuple = None
    saliencies: tuple = None
    binary_maps: WeightStack = None
    refined_base: WeightStack = None
    refined_detail: WeightStack = None
    base_weights: WeightStack = None
    detail_weights: WeightStack = None


def _layers(data: np.ndarray, radius: int, planes=None):
    # The base layer (box mean) and detail residual (data - base) of an
    # (h, w, c) array, as a generator of (rows, base, detail) strips.  The
    # strips land in ``planes`` (base, detail) when given, else in scratch.
    base_plane, detail_plane = (None, None) if planes is None else planes
    scratch = np.empty((min(len(data), _STRIP_ROWS),) + data.shape[1:]) if planes is None else None
    for rows, base in _box_means(_row_blocks(data), radius,
                                 out=None if base_plane is None else base_plane.transpose(0, 2, 1)):
        base = base.transpose(0, 2, 1)
        detail = scratch[:len(base)] if detail_plane is None else detail_plane[rows]
        yield rows, base, np.subtract(data[rows], base, out=detail)


def decompose(src: Image, avg_filter_size: int = FusionConfig.avg_filter_size) -> LayerPair:
    """Split into a box-mean base layer and the detail residual.

    Both layers are built strip by strip, with O(strip) scratch beyond
    the two returned images.
    """
    if avg_filter_size < 3 or avg_filter_size % 2 == 0:
        raise ValueError(f"avg_filter_size must be odd and >= 3, got {avg_filter_size}")
    radius = (avg_filter_size - 1) // 2
    base, detail = np.empty(src.data.shape), np.empty(src.data.shape)
    _drain(_layers(src.data, radius, (base, detail)))
    return LayerPair(base=Image._adopt(base, src.max_val), detail=Image._adopt(detail, src.max_val))


def _saliency(out: np.ndarray, plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    # The Gaussian-blurred |Laplacian| of ``plane``, both edge-padded,
    # written into ``out``, which holds the response in between.
    _laplacian_rows(np.pad(plane, 1, mode="edge"), out, np.empty_like(out))
    np.abs(out, out=out)
    return _valid_correlate_sep(np.pad(out, len(kernel) // 2, mode="edge"), kernel, out=out)


def _saliency_maps(guides, config: FusionConfig) -> list:
    # One (h, w, 1) saliency array per guide plane, one plane per process.
    kernel = _gaussian_kernel_1d(config.saliency_radius, config.saliency_sigma)
    outs = _shared_planes(len(guides), guides[0].shape + (1,))
    planes = [out[:, :, 0] for out in outs]
    _each_in_processes(len(guides), lambda n: _saliency(planes[n], guides[n], kernel), planes)
    return outs


def saliency(src_luma: Image, config: FusionConfig = FusionConfig()) -> Image:
    """Blurred absolute Laplacian response; large where fine detail is in focus.

    The 4-neighbor Laplacian and the Gaussian of ``config.saliency_radius``
    and ``config.saliency_sigma`` both see an edge-padded input.  The map
    equals the whole-image laplacian_filter, abs and gaussian_filter bit
    for bit; beyond it, the stage holds about two planes of scratch at a
    time (the edge-padded source and the Laplacian's scratch, then the
    edge-padded response).
    """
    if src_luma.channels != 1:
        raise ValueError(f"saliency requires a single-channel image, got {src_luma.channels} channels")
    return Image._adopt(_saliency_maps([src_luma.plane()], config)[0], src_luma.max_val)


def _binary_maps(saliencies, outs) -> None:
    # outs[n] = 1.0 where saliency n is the first strict maximum, else 0.0,
    # as argmax picks, one strip of rows at a time.  ``outs`` may be the
    # saliency planes themselves: a strip is written only after every map
    # has been read there.
    h, w = saliencies[0].shape
    best, winner, mask = (np.empty((min(h, _STRIP_ROWS), w), dtype=t) for t in (np.float64, np.intp, bool))
    for rows in _strips(h):
        n = rows.stop - rows.start
        top, win, greater = best[:n], winner[:n], mask[:n]
        np.copyto(top, saliencies[0][rows])
        win.fill(0)
        for index, sal in enumerate(saliencies[1:], start=1):
            np.greater(sal[rows], top, out=greater)
            np.copyto(top, sal[rows], where=greater)
            np.copyto(win, index, where=greater)
        for index, out in enumerate(outs):
            np.equal(win, index, out=out[rows])


def binary_weight_maps(saliencies) -> WeightStack:
    """Indicator maps of the per-pixel saliency winner.

    Exactly one map is 1 at each pixel; ties go to the lowest source index
    so the maps always sum to one.  The maps are built in strips of rows
    with a running maximum, without stacking the saliency maps.
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
    outs = [np.empty(shape) for _ in saliencies]
    _binary_maps([s.plane() for s in saliencies], [out[:, :, 0] for out in outs])
    return WeightStack(maps=tuple(Image._adopt(out, 1.0) for out in outs), kind="binary")


def _usable_cpus() -> int:
    # CPUs this process may run on, which can be fewer than the machine has.
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _shared_planes(count: int, shape: tuple) -> list:
    # ``count`` float64 arrays of ``shape`` in anonymous shared memory maps,
    # which processes forked later write into in place.  tracemalloc does
    # not see them.
    size = int(np.prod(shape))
    return [np.frombuffer(mmap.mmap(-1, 8 * size), count=size).reshape(shape) for _ in range(count)]


def _is_shared(arr: np.ndarray) -> bool:
    # Whether ``arr`` is a view of a _shared_planes array.
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return isinstance(arr, memoryview) and isinstance(arr.obj, mmap.mmap)


def _each_in_processes(count: int, job, outs) -> None:
    # Runs job(n) for every n < count.  ``outs`` are every array the jobs
    # write, and each must be a view of a _shared_planes array, else
    # ValueError: a forked process writing a private array would write its
    # own copy, and the result would be lost.  The jobs are split over
    # W = min(count, usable CPUs) processes, or W = 1 without os.fork or
    # while another thread runs: this one takes n = 0, W, 2W, ... and
    # forked child j takes n = j, j + W, ..., each writing straight into
    # the shared planes.  Each job allocates its own scratch.  Every
    # process sees the shared planes as they change and other arrays as
    # they were at the fork, so job n may write over what job n alone reads.
    #
    # Processes, not threads: the strip-wise stages make numpy calls of
    # tens of microseconds, so threads wait on each other's interpreter
    # lock for a share of the time that swings with the load on the host.
    # On a 2-vCPU Xeon VM, refining two 2048^2 maps at both radii took
    # 1.4-2.7 s on two threads from run to run, 1.9-2.5 s on one, and
    # 1.0-1.4 s in two processes.  Forked, not spawned: a spawned worker
    # imports numpy and lepfuse afresh (about 0.2 s) and needs its inputs
    # copied, which costs more than the whole stage at 512^2.  A fork with
    # other Python threads alive could deadlock, hence the fallback; the
    # child only runs numpy's elementwise loops and never returns into the
    # caller's frames.
    if not all(_is_shared(out) for out in outs):
        raise ValueError("every output of a job must be a view of a shared plane")
    workers = min(count, _usable_cpus()) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    children = []
    try:
        for worker in range(1, workers):
            pid = os.fork()
            if pid == 0:  # the child runs its share and exits without cleanup
                status = 1
                try:
                    for n in range(worker, count, workers):
                        job(n)
                    status = 0
                except BaseException:
                    import traceback

                    traceback.print_exc()
                finally:
                    os._exit(status)
            children.append(pid)
        for n in range(0, count, workers):
            job(n)
    finally:
        failed = [pid for pid in children if os.waitpid(pid, 0)[1]]
    if failed:
        raise RuntimeError(f"{len(failed)} of {len(children)} worker processes failed")


def _refined(maps, guides, fits, filter_kind: str) -> None:
    # For each (params, outs) of ``fits`` in turn, outs[n] = the fit of
    # maps[n] on guides[n], clamped to [0, 1], one source per process.
    # The outs are shared planes; the last fit's may be ``maps`` itself.
    if filter_kind == "guided":
        fits = [(_guided_params(params.radius, params.alpha), outs) for params, outs in fits]

    def refine(n):
        for params, outs in fits:
            for rows in _fit(outs[n], maps[n], guides[n], params):
                np.clip(outs[n][rows], 0.0, 1.0, out=outs[n][rows])

    _each_in_processes(len(maps), refine, [out for _, outs in fits for out in outs])


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

    The maps are refined in min(maps, usable CPUs) processes where the
    system can fork and no other thread is running, else one after
    another; each output is the same, bit for bit, either way.  Each fit
    streams over strips of rows and allocates its own scratch, which is
    O(strip): rings of about 2r + 17 integral-image rows and a few strips
    of 16 rows.  The outputs live in shared memory maps, which a forked
    process writes in place.
    """
    guides = list(guides)
    if len(guides) != len(binary.maps):
        raise ValueError(
            f"got {len(binary.maps)} weight maps but {len(guides)} guides"
        )
    if filter_kind not in REFINE_FILTERS:
        raise ValueError(f"filter_kind must be one of {REFINE_FILTERS}, got {filter_kind!r}")
    pairs = [_guided_planes(m, g) for m, g in zip(binary.maps, guides)]
    outs = _shared_planes(len(binary.maps), binary.maps[0].data.shape)
    _refined([p for p, _ in pairs], [g for _, g in pairs], [(params, [out[:, :, 0] for out in outs])], filter_kind)
    return WeightStack(maps=tuple(Image._adopt(out, 1.0) for out in outs), kind="refined")


def _normalized(maps, weight_floor: float, outs) -> None:
    # outs[n] = (maps[n] + floor) / sum over maps of (map + floor), in
    # strips of rows.  Each output holds its shifted map until the strip's
    # quotient overwrites it, so ``outs`` may be ``maps`` itself, and the
    # only other memory is one strip of the sum.
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
    outs = [np.empty(m.data.shape) for m in stack.maps]
    _normalized([m.data for m in stack.maps], weight_floor, outs)
    return WeightStack(maps=tuple(Image._adopt(out, 1.0) for out in outs), kind="normalized")


def _blend(sources, base_weights, detail_weights, radius: int, max_val: float, layers=None) -> np.ndarray:
    # sum(wb * base) + sum(wd * detail) over the sources, clipped to
    # [0, max_val], in strips of rows.  Each source's layers are streamed
    # alongside (see _layers), into ``layers`` (one (base, detail) pair of
    # planes per source) when given.  Both sums start from zero and add the
    # sources in order.
    h, w, c = sources[0].data.shape
    fused = np.empty((h, w, c))
    fb, fd, tmp = np.empty((3, min(h, _STRIP_ROWS), w, c))
    streams = [_layers(src.data, radius, None if layers is None else layers[n]) for n, src in enumerate(sources)]
    for strips in zip(*streams):
        rows = strips[0][0]
        n = rows.stop - rows.start
        b, d, t = fb[:n], fd[:n], tmp[:n]
        b.fill(0.0)
        d.fill(0.0)
        for (_, base, detail), wb, wd in zip(strips, base_weights, detail_weights):
            b += np.multiply(wb[rows], base, out=t)
            d += np.multiply(wd[rows], detail, out=t)
        np.clip(np.add(b, d, out=fused[rows]), 0.0, max_val, out=fused[rows])
    return fused


def fuse(sources, config: FusionConfig = FusionConfig(), *, _keep_intermediates: bool = True) -> FusionResult:
    """Run the full two-scale fusion pipeline.

    Sources must share dimensions, channel count and max_val.  Weights are computed
    on luminance and shared across color channels.  The fused image is
    clamped to [0, max_val] at the very end; everything upstream keeps its
    raw values, which the result exposes for inspection.

    Saliency and weight refinement run one source per process in up to
    min(sources, usable CPUs) processes (see refine_weights), which write
    the saliency and refined weight maps in place in shared memory maps.
    One job refines a source's base weights, then its detail weights, so
    each of the two stages forks one child per extra process.  Saliency
    works on whole planes, with about two planes of scratch per process.
    The other stages work in strips of rows with O(strip) scratch: each
    weight fit streams through rings of integral-image rows, and each
    source's base and detail layers are built strip by strip inside the
    blend.  Every field of the result is the same, bit for bit, as from
    the public stages composed on whole planes, whatever the number of
    processes.

    Memory: the result holds every stage's planes.  The command line
    passes the private ``_keep_intermediates=False`` unless they are to be
    written; then fuse returns only ``fused`` (the other fields are None),
    and each stage overwrites the planes of the one before it: binary maps
    over saliency, detail weights over the binary maps, normalized over
    refined weights.  Its peak is then about two planes per source and the
    fused image beyond the sources (and their luminance, for color).
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

    keep = _keep_intermediates
    lumas = [_luma(src) for src in sources]
    guides = [luma.plane() for luma in lumas]

    def planes():
        return [np.empty(shape[:2] + (1,)) for _ in sources]

    saliencies = _saliency_maps(guides, config)
    binary = planes() if keep else saliencies
    _binary_maps([s[:, :, 0] for s in saliencies], [b[:, :, 0] for b in binary])
    refined_base = _shared_planes(len(sources), shape[:2] + (1,))
    refined_detail = _shared_planes(len(sources), shape[:2] + (1,)) if keep else binary
    fits = ((config.base_params, refined_base), (config.detail_params, refined_detail))
    _refined([b[:, :, 0] for b in binary], guides, [(p, [o[:, :, 0] for o in outs]) for p, outs in fits],
             config.refine_filter)
    base_weights = planes() if keep else refined_base
    detail_weights = planes() if keep else refined_detail
    _normalized(refined_base, config.weight_floor, base_weights)
    _normalized(refined_detail, config.weight_floor, detail_weights)
    layers = [(np.empty(shape), np.empty(shape)) for _ in sources] if keep else None
    fused = Image._adopt(_blend(sources, base_weights, detail_weights, (config.avg_filter_size - 1) // 2,
                                max_val, layers), max_val)
    if not keep:
        return FusionResult(fused=fused)

    def stack(arrays, kind):
        return WeightStack(maps=tuple(Image._adopt(a, 1.0) for a in arrays), kind=kind)

    return FusionResult(
        fused=fused,
        layers=tuple(LayerPair(Image._adopt(base, max_val), Image._adopt(detail, max_val)) for base, detail in layers),
        saliencies=tuple(Image._adopt(s, luma.max_val) for s, luma in zip(saliencies, lumas)),
        binary_maps=stack(binary, "binary"),
        refined_base=stack(refined_base, "refined"),
        refined_detail=stack(refined_detail, "refined"),
        base_weights=stack(base_weights, "normalized"),
        detail_weights=stack(detail_weights, "normalized"),
    )
