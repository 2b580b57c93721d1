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

import math
import mmap
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .filters import (
    _STRIP_ROWS,
    FilterParams,
    _box_means,
    _fit,
    _gaussian_kernel_1d,
    _guided_params,
    _guided_planes,
    _laplacian_rows,
    _ring_shape,
    _row_blocks,
    _strips,
    _valid_correlate_sep,
)
from .image import Image, _luma, _rgb_to_luma

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

    The intermediates are None when ``fuse`` was handed a ``_dump`` hook.
    """

    fused: Image
    layers: tuple = None
    saliencies: tuple = None
    binary_maps: WeightStack = None
    refined_base: WeightStack = None
    refined_detail: WeightStack = None
    base_weights: WeightStack = None
    detail_weights: WeightStack = None


def _layers(data: np.ndarray, radius: int):
    # The base layer (box mean) and detail residual (data - base) of an
    # (h, w, c) array, as a generator of (rows, base, detail) strips in
    # O(strip) scratch that the next strip overwrites.
    scratch = np.empty((min(len(data), _STRIP_ROWS),) + data.shape[1:])
    for rows, base in _box_means(_row_blocks(data), radius):
        base = base.transpose(0, 2, 1)
        yield rows, base, np.subtract(data[rows], base, out=scratch[:len(base)])


def _layers_bytes(shape: tuple, avg_filter_size: int) -> int:
    # The bytes of the window-mean ring that _layers allocates for an
    # (h, w, c) array.
    return 8 * math.prod(_ring_shape((avg_filter_size - 1) // 2, shape[2], shape[1]))


def _scratch_bytes(shape: tuple, config: FusionConfig) -> int:
    # The bytes of the largest array that fuse allocates for sources of
    # ``shape`` whose size grows with a radius rather than with the image:
    # saliency's edge-padded response, the layers' ring, or the ring of
    # the base fit's first stream, the widest fit (five channels).
    h, w, _ = shape
    pad = config.saliency_radius
    return max(8 * (h + 2 * pad) * (w + 2 * pad), _layers_bytes(shape, config.avg_filter_size),
               8 * math.prod(_ring_shape(config.base_params.radius, 5, w)))


def decompose(src: Image, avg_filter_size: int = FusionConfig.avg_filter_size) -> LayerPair:
    """Split into a box-mean base layer and the detail residual.

    Both layers are built strip by strip, with O(strip) scratch beyond
    the two returned images.
    """
    if avg_filter_size < 3 or avg_filter_size % 2 == 0:
        raise ValueError(f"avg_filter_size must be odd and >= 3, got {avg_filter_size}")
    radius = (avg_filter_size - 1) // 2
    base, detail = np.empty(src.data.shape), np.empty(src.data.shape)
    for rows, base_strip, detail_strip in _layers(src.data, radius):
        base[rows], detail[rows] = base_strip, detail_strip
    return LayerPair(base=Image._adopt(base, src.max_val), detail=Image._adopt(detail, src.max_val))


def _saliency(out: np.ndarray, img: Image, kernel: np.ndarray) -> np.ndarray:
    # The Gaussian-blurred |Laplacian| of the luminance of ``img``, both
    # edge-padded, written into ``out``, which holds the response in
    # between.  The luminance is built (or the gray plane widened) straight
    # into the float64 padded plane, and the Laplacian runs in strips of
    # rows, so beyond that plane its scratch is one strip.
    h, w = out.shape
    padded, tmp = np.empty((h + 2, w + 2)), np.empty((min(h, _STRIP_ROWS), w))
    if img.channels == 3:
        _rgb_to_luma(img.data, padded[1:-1, 1:-1])
    else:
        padded[1:-1, 1:-1] = img.plane()
    padded[0], padded[-1] = padded[1], padded[-2]
    padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
    for rows in _strips(len(out)):
        _laplacian_rows(padded[rows.start:rows.stop + 2], out[rows], tmp[:rows.stop - rows.start])
    del padded
    np.abs(out, out=out)
    return _valid_correlate_sep(np.pad(out, len(kernel) // 2, mode="edge"), kernel, out=out)


def _saliency_maps(images, config: FusionConfig, outs) -> None:
    # outs[n] = the saliency map of image n's luminance, one job each.
    kernel = _gaussian_kernel_1d(config.saliency_radius, config.saliency_sigma)
    _each_in_processes(len(outs), lambda n: _saliency(outs[n], images[n], kernel), outs)


def saliency(src_luma: Image, config: FusionConfig = FusionConfig()) -> Image:
    """Blurred absolute Laplacian response; large where fine detail is in focus.

    The 4-neighbor Laplacian and the Gaussian of ``config.saliency_radius``
    and ``config.saliency_sigma`` both see an edge-padded input.  The map
    equals the whole-image laplacian_filter, abs and gaussian_filter bit
    for bit; beyond it, the stage holds about one plane of scratch at a
    time (the edge-padded source and a strip of the Laplacian's scratch,
    then the edge-padded response).
    """
    if src_luma.channels != 1:
        raise ValueError(f"saliency requires a single-channel image, got {src_luma.channels} channels")
    out = _shared_planes(1, src_luma.data.shape)[0]
    _saliency_maps([src_luma], config, [out[:, :, 0]])
    return Image._adopt(out, src_luma.max_val)


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


_NO_MEMORY = 3  # the exit status of a forked child that ran out of memory


def _each_in_processes(count: int, job, outs) -> None:
    # Runs job(n) for every n < count.  ``outs`` are every array the jobs
    # write, and each must be a view of a _shared_planes array, else
    # ValueError: a forked process writing a private array would write its
    # own copy, and the result would be lost.  The jobs are split over
    # W = min(count, usable CPUs) processes, or W = 1 without os.fork or
    # while another thread runs: this one takes n = 0, W, 2W, ... and
    # forked child j takes n = j, j + W, ..., each writing straight into
    # the shared planes.  Should os.fork fail (EAGAIN, ENOMEM), this one
    # also takes the shares of the children not started, so the outputs
    # are the same.  Each job allocates its own scratch.  Every
    # process sees the shared planes as they change and other arrays as
    # they were at the fork, so job n may write over what job n alone reads.
    #
    # The split is static, so a stage keeps every process busy only when
    # its jobs cost about the same and divide evenly: fuse runs one job
    # per source in each forked stage, so N = 5 on two CPUs splits 3:2.
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
    #
    # A child that runs out of memory exits with _NO_MEMORY and prints
    # nothing, and this process then raises MemoryError; any other failure
    # prints the child's traceback and raises RuntimeError.
    if not all(_is_shared(out) for out in outs):
        raise ValueError("every output of a job must be a view of a shared plane")
    workers = min(count, _usable_cpus()) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    children = []
    try:
        for worker in range(1, workers):
            try:
                pid = os.fork()
            except OSError:
                break
            if pid == 0:  # the child runs its share and exits without cleanup
                status = 1
                try:
                    for n in range(worker, count, workers):
                        job(n)
                    status = 0
                except MemoryError:
                    status = _NO_MEMORY
                except BaseException:
                    import traceback

                    traceback.print_exc()
                finally:
                    os._exit(status)
            children.append(pid)
        for n in range(count):
            if n % workers == 0 or n % workers > len(children):
                job(n)
    finally:
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    if _NO_MEMORY in statuses:
        raise MemoryError(f"{statuses.count(_NO_MEMORY)} of {len(children)} worker processes ran out of memory")
    failed = [status for status in statuses if status]
    if failed:
        raise RuntimeError(f"{len(failed)} of {len(children)} worker processes failed")


def _refined(maps, guides, fits, filter_kind: str) -> None:
    # For each (params, outs) of ``fits``, outs[n] = the fit of maps[n] on
    # the luminance of the image guides[n], clamped to [0, 1].  The outs
    # are shared planes; the last fit's outs[n] may be maps[n] itself.
    # Each source is one job that runs its fits in order, so every fit has
    # read the map before the last one overwrites it.  A colour guide's
    # luminance is built inside its job, once for all its fits, and freed
    # with it.
    if filter_kind == "guided":
        fits = [(_guided_params(params.radius, params.alpha), outs) for params, outs in fits]

    def refine(n):
        guide = _luma(guides[n]).plane()
        for params, outs in fits:
            for rows in _fit(outs[n], maps[n], guide, params):
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
    maps = [_guided_planes(m, g)[0] for m, g in zip(binary.maps, guides)]
    outs = _shared_planes(len(maps), binary.maps[0].data.shape)
    _refined(maps, guides, [(params, [out[:, :, 0] for out in outs])], filter_kind)
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


def _check_weight_floor(weight_floor: float, count: int) -> None:
    # The floor must be positive, and the sum of ``count`` shifted maps in
    # [0, 1] finite: a floor near the largest float makes it inf, and then
    # every weight 0.
    if not (weight_floor > 0.0 and np.isfinite(count * (1.0 + weight_floor))):
        raise ValueError(f"weight_floor must be positive and keep the sum of {count} weights finite, "
                         f"got {weight_floor}")


def normalize_weights(stack: WeightStack, weight_floor: float = FusionConfig.weight_floor) -> WeightStack:
    """Scale the maps so they sum to one at every pixel.

    The floor keeps the denominator positive where every refined weight is
    zero; such pixels fall back to a uniform split.  Each map becomes
    (map + floor) / sum of (map + floor), summed in source order.  It is
    computed in strips of rows, so beyond the returned maps it holds only
    one strip of the sum.  A floor so large that the sum overflows is
    refused.
    """
    if stack.kind != "refined":
        raise ValueError(f"can only normalize refined weight stacks, got kind {stack.kind!r}")
    _check_weight_floor(weight_floor, len(stack))
    outs = [np.empty(m.data.shape) for m in stack.maps]
    _normalized([m.data for m in stack.maps], weight_floor, outs)
    return WeightStack(maps=tuple(Image._adopt(out, 1.0) for out in outs), kind="normalized")


def _blend(sources, base_weights, detail_weights, radius: int, max_val: float, dump, fused) -> np.ndarray:
    # fused = sum(wb * base) + sum(wd * detail) over the sources, clipped
    # to [0, max_val], in strips of rows.  Each source's layers are
    # streamed alongside (see _layers), and each strip is handed to
    # ``dump`` (see fuse).  Both sums start from zero and add the sources
    # in order.  A strip of ``fused`` is written only after every weight
    # has been read there, so ``fused`` may share its rows with weight
    # planes.
    h, w, c = sources[0].data.shape
    fb, fd, tmp = np.empty((3, min(h, _STRIP_ROWS), w, c))
    for strips in zip(*(_layers(src.data, radius) for src in sources)):
        rows = strips[0][0]
        n = rows.stop - rows.start
        b, d, t = fb[:n], fd[:n], tmp[:n]
        b.fill(0.0)
        d.fill(0.0)
        for index, ((_, base, detail), wb, wd) in enumerate(zip(strips, base_weights, detail_weights)):
            dump("base", index, rows, base)
            dump("detail", index, rows, detail)
            b += np.multiply(wb[rows], base, out=t)
            d += np.multiply(wd[rows], detail, out=t)
        np.clip(np.add(b, d, out=fused[rows]), 0.0, max_val, out=fused[rows])
    return fused


def fuse(sources, config: FusionConfig = FusionConfig(), *, _dump=None) -> FusionResult:
    """Run the full two-scale fusion pipeline.

    Sources must share dimensions, channel count and max_val.  Weights are computed
    on luminance and shared across color channels.  The fused image is
    clamped to [0, max_val] at the very end; everything upstream keeps its
    raw values, which the result exposes for inspection.

    Saliency and weight refinement are forked stages: each splits its one
    job per source over min(sources, usable CPUs) processes (see
    refine_weights), which write their planes in place in shared memory
    maps.  A refinement job fits the source's base weights and then its
    detail weights over its binary map.  Each stage overwrites the planes
    of the one before it: binary maps over saliency, detail weights over
    the binary maps, normalized over refined weights; the blend builds the
    layers strip by strip.  Saliency works on whole planes, with about
    one plane of scratch per process; the other stages work in strips of
    rows with O(strip) scratch, and each weight fit streams through rings
    of integral-image rows.  Every field of the result is the same, bit
    for bit, as from the public stages composed on whole planes, whatever
    the number of processes.

    The stages hand their planes to the private hook ``_dump``, which
    this process calls as ``_dump(kind, n, rows, data)``: ``data`` is rows
    ``rows`` of source n's plane of ``kind``, handed over before a later
    stage overwrites it.  "sal", "binary", "refined_base",
    "refined_detail", "wb" and "wd" come in that order, each as a whole
    plane, and then "base" and "detail" strip by strip from the blend, in
    order of rows.  The hook must not keep ``data``.  The command line
    always passes one, for ``--dump-intermediates`` or doing nothing; then
    fuse returns only ``fused`` (the other fields are None).

    Memory: beyond the sources, fuse holds the 2N weight planes plus
    O(strip) scratch, for any channel count c; README's memory section
    gives the rule in full.  The first c weight planes, detail weights
    then base weights (one more plane for a colour fuse of one source),
    are the rows of one (h, c, w) mapping, which read as (h, w, c) is a
    C-contiguous image.  With a hook, the blend writes the fused image
    there over the spent weights.  Without one, fuse collects every
    intermediate for the result: a private copy of each plane that a
    later stage overwrites, the normalized weights' own planes (copies
    of those that are rows of the mapping) and a fused image of its own.
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
    if config.refine_filter == "guided":  # epsilon > 0, checked before any stage runs
        for params in (config.base_params, config.detail_params):
            _guided_params(params.radius, params.alpha)
    _check_weight_floor(config.weight_floor, len(sources))

    kept = {} if _dump is None else None
    if kept is not None:  # collect the result: copies of the planes that a later stage overwrites
        def _dump(kind, n, rows, data):
            if kind in ("wb", "wd") and data.flags.c_contiguous:  # final planes, which no stage writes again
                kept[kind, n] = data
                return
            if (kind, n) not in kept:
                kept[kind, n] = np.empty(shape[:2] + data.shape[2:])
            kept[kind, n][rows] = data

    def dump(kind, maps):
        for n, m in enumerate(maps):
            _dump(kind, n, slice(0, len(m)), m)

    # The weight planes, detail then base, the first c of them rows of one
    # (h, c, w) mapping.  A page of a shared map takes memory only once it
    # is written, so the base planes cost nothing before refinement.
    h, w, c = shape
    count = len(sources)
    host = _shared_planes(1, (h, c, w))[0]
    weights = [host[:, k, :, np.newaxis] for k in range(min(c, 2 * count))]
    weights += _shared_planes(2 * count - len(weights), (h, w, 1))
    saliencies, refined_base = weights[:count], weights[count:]
    radius = (config.avg_filter_size - 1) // 2
    _saliency_maps(sources, config, [s[:, :, 0] for s in saliencies])
    dump("sal", saliencies)
    binary = saliencies
    _binary_maps([s[:, :, 0] for s in saliencies], [b[:, :, 0] for b in binary])
    dump("binary", binary)
    refined_detail = binary
    fits = ((config.base_params, refined_base), (config.detail_params, refined_detail))
    _refined([b[:, :, 0] for b in binary], sources, [(p, [o[:, :, 0] for o in outs]) for p, outs in fits],
             config.refine_filter)
    dump("refined_base", refined_base)
    dump("refined_detail", refined_detail)
    _normalized(refined_base, config.weight_floor, refined_base)
    _normalized(refined_detail, config.weight_floor, refined_detail)
    dump("wb", refined_base)
    dump("wd", refined_detail)
    # No result keeps the weights when the caller has a hook, so the fused
    # image is written over the rows of the mapping.
    out = host.reshape(shape) if kept is None else np.empty(shape)
    fused = Image._adopt(_blend(sources, refined_base, refined_detail, radius, max_val, _dump, out), max_val)
    if kept is None:
        return FusionResult(fused=fused)

    def images(kind, peak=1.0):
        return tuple(Image._adopt(kept[kind, n], peak) for n in range(len(sources)))

    return FusionResult(
        fused=fused,
        layers=tuple(map(LayerPair, images("base", max_val), images("detail", max_val))),
        saliencies=images("sal", max_val),
        binary_maps=WeightStack(images("binary"), "binary"),
        refined_base=WeightStack(images("refined_base"), "refined"),
        refined_detail=WeightStack(images("refined_detail"), "refined"),
        base_weights=WeightStack(images("wb"), "normalized"),
        detail_weights=WeightStack(images("wd"), "normalized"),
    )
