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
from .image import Image, _rgb_to_luma

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
        _rgb_to_luma(img.data, padded[1:-1, 1:-1], img.data.min(), img.data.max())
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


def _winner_plane(saliencies) -> np.ndarray:
    # The index of the first strict maximum of the saliency planes at each
    # pixel, as argmax picks, one byte per pixel for up to 256 sources.  It
    # is found one strip of rows at a time with a running maximum.
    h, w = saliencies[0].shape
    out = np.empty((h, w), dtype=np.min_scalar_type(len(saliencies) - 1))
    best, mask = np.empty((min(h, _STRIP_ROWS), w)), np.empty((min(h, _STRIP_ROWS), w), dtype=bool)
    for rows in _strips(h):
        n = rows.stop - rows.start
        top, greater, win = best[:n], mask[:n], out[rows]
        np.copyto(top, saliencies[0][rows])
        win.fill(0)
        for index, sal in enumerate(saliencies[1:], start=1):
            np.greater(sal[rows], top, out=greater)
            np.copyto(top, sal[rows], where=greater)
            np.copyto(win, index, where=greater)
    return out


def binary_weight_maps(saliencies) -> WeightStack:
    """Indicator maps of the per-pixel saliency winner.

    Exactly one map is 1 at each pixel; ties go to the lowest source index
    so the maps always sum to one.  The winner of each pixel is found in
    strips of rows with a running maximum, without stacking the saliency
    maps.
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
    winner = _winner_plane([s.plane() for s in saliencies])
    outs = [np.empty(shape) for _ in saliencies]
    for n, out in enumerate(outs):
        np.equal(winner, n, out=out[:, :, 0])
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
_STOPPED = 4  # the exit status of a forked child whose caller stopped first


class _Lost(Exception):
    # The process at the other end of a stream's pipe has gone.
    pass


def _in_processes(count: int, outs, run, lead=None, lead_cost: float = 0.0) -> None:
    # Splits jobs n < count over W = min(count, usable CPUs) processes, or
    # W = 1 without os.fork or while another thread runs.  This process
    # takes the last ``here`` jobs and W - 1 forked children split the
    # others, child j taking n = j, j + W - 1, ... below count - here.
    # Child j runs run(share, link), and this process runs lead(share,
    # links), or without ``lead`` run(share, None).  Without a lead, here
    # is count // W, the smallest share.  ``lead_cost`` is the lead's own
    # work beyond its jobs, in jobs, and this process takes what evens out
    # the processes' work: (count + lead_cost) / W - lead_cost jobs,
    # rounded, and at least none.  A lead streams from the children (see
    # _detail_stage): each child gets the ends of two pipes, ``link`` =
    # (go, ready), and ``links`` holds this process's ends, (ready, go),
    # for each child started; without a lead no pipe is opened.  Should
    # os.fork or os.pipe fail (EAGAIN, ENOMEM, EMFILE), this process also
    # takes the shares of the children not started, in its own ``share``,
    # so the outputs are the same.
    #
    # ``outs`` are every array the children write, and each must be a view
    # of a _shared_planes array, else ValueError: a forked process writing
    # a private array would write its own copy, and the result would be
    # lost.  Every process sees the shared planes as they change and other
    # arrays as they were at the fork, so job n may write over what job n
    # alone reads.
    #
    # The split is static, so a stage of independent jobs keeps every
    # process busy only when its jobs cost about the same and divide
    # evenly: fuse runs one job per source, so N = 5 on two CPUs splits
    # 3:2, the 2 here.
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
    # prints the child's traceback and raises RuntimeError.  If this
    # process fails, it closes its pipe ends, so a child waiting on them
    # stops (_STOPPED) instead of waiting forever, and the failure is
    # raised once every child has exited.
    if not all(_is_shared(out) for out in outs):
        raise ValueError("every output of a job must be a view of a shared plane")
    workers = min(count, _usable_cpus()) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    here = count // workers if lead is None else max(0, int((count + lead_cost) / workers - lead_cost + 0.5))
    others = count - here
    children, links, ends, lost = [], [], [], False
    try:
        for worker in range(min(workers - 1, others)):
            pipes = []  # a streamed stage's go and ready pipes: go_out, go_in, ready_out, ready_in
            try:
                if lead is not None:
                    pipes += os.pipe()
                    pipes += os.pipe()
                pid = os.fork()
            except OSError:
                for fd in pipes:
                    os.close(fd)
                break
            if pid == 0:  # the child runs its share and exits without cleanup
                status = 1
                try:
                    for fd in ends + pipes[1:3]:
                        os.close(fd)
                    run(range(worker, others, workers - 1), tuple(pipes[0::3]) or None)
                    status = 0
                except MemoryError:
                    status = _NO_MEMORY
                except (_Lost, BrokenPipeError):
                    status = _STOPPED
                except BaseException:
                    import traceback

                    traceback.print_exc()
                finally:
                    os._exit(status)
            for fd in pipes[0::3]:
                os.close(fd)
            ends += pipes[1:3]
            children.append(pid)
            if pipes:
                links.append((pipes[2], pipes[1]))
        share = [n for n in range(count) if n >= others or n % (workers - 1) >= len(children)]
        if lead is None:
            run(share, None)
        else:
            lead(share, links)
    except _Lost:  # a child stopped early; its status says why
        lost = True
    finally:
        for fd in ends:
            os.close(fd)
        statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in children]
    if _NO_MEMORY in statuses:
        raise MemoryError(f"{statuses.count(_NO_MEMORY)} of {len(children)} worker processes ran out of memory")
    failed = [status for status in statuses if status not in (0, _STOPPED)]
    if failed or lost:
        raise RuntimeError(f"{len(failed)} of {len(children)} worker processes failed")


def _each_in_processes(count: int, job, outs) -> None:
    # Runs job(n) for every n < count, split over processes by
    # _in_processes, each share in order of n.
    def run(share, _):
        for n in share:
            job(n)

    _in_processes(count, outs, run)


class _Luma:
    # The luminance of an (h, w, 3) array as a plane that is built for the
    # rows asked for: ``luma[rows]`` for a slice of at most ``keep`` rows,
    # each sample rgb_to_luma's, bit for bit, and ``shape`` (h, w).  A
    # weight fit reads each guide row for its input strip and again for
    # its output, which lags by up to 2 strips and 2r + 2 rows (the edge
    # row below a strip, and r rows in each window-mean stream, each of
    # which emits a strip at a time), so the rows last built are kept, up
    # to 2 * keep of them, and a row is built once as long as its fit asks
    # for it within ``keep`` rows of the last row built, else again.  A
    # read returns rows that later reads may overwrite.
    def __init__(self, data: np.ndarray, keep: int):
        self.data, self.shape, self.keep = data, data.shape[:2], keep
        self.lo, self.hi = data.min(), data.max()
        self.built, self.first, self.stop = None, 0, 0  # built[:stop - first] holds rows first..stop - 1

    def __getitem__(self, rows):
        start, stop = rows.start, rows.stop
        if self.built is None:
            self.built = np.empty((min(2 * self.keep, self.shape[0]), self.shape[1]))
        if not self.first <= start <= self.stop:
            self.first = self.stop = start
        if stop - self.first > len(self.built):  # keep the last ``keep`` rows up to stop
            first = stop - self.keep
            self.built[:self.stop - first] = self.built[first - self.first:self.stop - self.first]
            self.first = first
        if stop > self.stop:
            _rgb_to_luma(self.data[self.stop:stop], self.built[self.stop - self.first:stop - self.first],
                         self.lo, self.hi)
            self.stop = stop
        return self.built[start - self.first:stop - self.first]


def _guide(img: Image, radius: int, strip: int):
    # The guide of a weight fit of ``radius`` on ``img`` in strips of
    # ``strip`` rows: its plane if gray, else its luminance, built for the
    # rows the fit reads (see _Luma), so no luminance plane is held.
    return img.plane() if img.channels == 1 else _Luma(img.data, 2 * strip + 2 * radius + 2)


class _Winner:
    # The binary weight map of source n as a plane that is built from the
    # winner plane for the rows asked for: ``map[rows]`` is
    # ``winner[rows] == n`` for a slice of rows, and ``shape`` (h, w).
    def __init__(self, winner: np.ndarray, n: int):
        self.winner, self.n, self.shape = winner, n, winner.shape

    def __getitem__(self, rows):
        return self.winner[rows] == self.n


def _fit_params(params: FilterParams, filter_kind: str) -> FilterParams:
    # The parameters of the weight fit of ``filter_kind``, checked.
    return _guided_params(params.radius, params.alpha) if filter_kind == "guided" else params


def _refined(maps, guide, params: FilterParams, outs) -> None:
    # outs[n] = the fit of maps[n] on guide(n), clamped to [0, 1], one
    # forked job per map; the outs are shared planes.
    def refine(n):
        for rows, values in _fit(maps[n], guide(n), params):
            np.clip(values, 0.0, 1.0, out=outs[n][rows])

    _each_in_processes(len(maps), refine, outs)


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
    planes = [g.plane() for g in guides]
    _refined(maps, planes.__getitem__, _fit_params(params, filter_kind), [out[:, :, 0] for out in outs])
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
    # ``dump`` (see fuse).  detail_weights(rows) gives the detail weights
    # of each strip, asked for in order of rows.  Both sums start from zero
    # and add the sources in order.  A strip of ``fused`` is written only
    # after every weight has been read there, so ``fused`` may share its
    # rows with weight planes.
    h, w, c = sources[0].data.shape
    fb, fd, tmp = np.empty((3, min(h, _STRIP_ROWS), w, c))
    for strips in zip(*(_layers(src.data, radius) for src in sources)):
        rows = strips[0][0]
        n = rows.stop - rows.start
        b, d, t = fb[:n], fd[:n], tmp[:n]
        b.fill(0.0)
        d.fill(0.0)
        for index, ((_, base, detail), wb, wd) in enumerate(zip(strips, base_weights, detail_weights(rows))):
            dump("base", index, rows, base)
            dump("detail", index, rows, detail)
            b += np.multiply(wb[rows], base, out=t)
            d += np.multiply(wd, detail, out=t)
        np.clip(np.add(b, d, out=fused[rows]), 0.0, max_val, out=fused[rows])
    return fused


def _lockstep_strip(h: int, fits: int) -> int:
    # Rows per strip of weight fits run in lockstep whose scratch should
    # stay near one plane of ``h`` rows together with that of ``fits`` - 1
    # others.  A fit's scratch is about 30 strips of rows (see _fit), so
    # the strips are h / (32 * fits) rows, at most _STRIP_ROWS and at least
    # 4, below which the numpy calls per row cost more than the rows save.
    # A 512^2 colour detail fit took 35 ms in strips of 16 rows, 46 in
    # strips of 8 and 50 in strips of 5.
    return max(4, min(_STRIP_ROWS, h // (32 * fits)))


_RING_STRIPS = 3  # strips of _STRIP_ROWS rows in the ring of each streamed fit


def _lockstep(fits, rings, h: int, wait):
    # Advances the _fit generators ``fits`` together, writing the rows of
    # fit j, clamped to [0, 1], into rings[j]: row i at ring row i mod the
    # ring's length, a multiple of _STRIP_ROWS.  Yields u once strip u,
    # rows _STRIP_ROWS * u onwards, of every fit is written.  A fit's own
    # strips need not be aligned with these, so a fit may write one strip
    # ahead: wait(u) is called before any row of strip u is written, and
    # returns once the ring may take it.
    done = [0] * len(fits)
    for u, strip in enumerate(_strips(h)):
        for j, fit in enumerate(fits):
            while done[j] < strip.stop:
                rows, values = next(fit)
                wait((rows.stop - 1) // _STRIP_ROWS)
                ring, n = rings[j], len(values)
                at = rows.start % len(ring)
                k = min(n, len(ring) - at)
                np.clip(values[:k], 0.0, 1.0, out=ring[at:at + k])
                np.clip(values[k:], 0.0, 1.0, out=ring[:n - k])
                done[j] = rows.stop
        yield u


def _detail_stage(maps, guide, params: FilterParams, weight_floor: float, dump, blend, blend_cost: float) -> None:
    # Runs the detail fits of maps[n] on guide(n, strip) as one stage
    # streamed into blend(detail_weights) (see _blend), which runs in this
    # process: detail_weights(rows) hands the binary, refined and
    # normalized detail weights of its rows to ``dump`` and returns the
    # normalized ones.  Each process advances the fits of its share in
    # lockstep (see _lockstep), writing them into a ring of _RING_STRIPS
    # strips per source in one shared map, so no detail plane is ever
    # whole.  The blend costs about ``blend_cost`` fits, so this process
    # takes fewer fits than the children (see _in_processes), and none
    # when the blend costs about as much as a child's whole share.
    #
    # Memory: this process holds the weight planes and the blend's strips
    # besides its fits, so its fits' strips shrink with their number to
    # keep their scratch together near one plane (_lockstep_strip); a
    # child's fits keep theirs near one plane each, so the stage never
    # holds much more than the detail planes it does not build.
    #
    # A child writes a byte to its ``ready`` pipe for each strip it has
    # written, and before it writes strip u >= _RING_STRIPS it reads a
    # byte from its ``go`` pipe, which this process writes once it has
    # copied strip u - _RING_STRIPS out of the rings.  A pipe read is a
    # memory barrier, so the rows are complete when read, and it returns
    # EOF once the other end has gone, so neither process waits on one
    # that has failed.  Three strips are the fewest that cannot deadlock:
    # a strip of the blend spans at most two ring strips, u - 1 and u, so
    # when this process waits for strip u it has copied out every strip
    # before u - 1, and a fit that completes strip u may write into u + 1.
    count = len(maps)
    h, w = maps[0].shape
    strips = -(-h // _STRIP_ROWS)
    rings = _shared_planes(1, (count, min(_RING_STRIPS, strips) * _STRIP_ROWS, w))[0]

    def fits(share, strip):
        return [_fit(maps[n], guide(n, strip), params, strip=strip) for n in share]

    def child(share, link):
        go, ready = link
        granted = _RING_STRIPS  # the strips this child may write

        def wait(u):
            nonlocal granted
            while u >= granted:
                if not os.read(go, 1):
                    raise _Lost
                granted += 1

        for _ in _lockstep(fits(share, _lockstep_strip(h, 1)), [rings[n] for n in share], h, wait):
            os.write(ready, b"\0")

    def lead(share, links):
        own = _lockstep(fits(share, _lockstep_strip(h, max(len(share), 1))), [rings[n] for n in share], h,
                        lambda u: None)
        written = [0] * (len(links) + 1)  # strips written by this process, then by each child
        freed = 0  # strips copied out of the rings
        gathered, binary = np.empty((count, min(h, _STRIP_ROWS), w)), np.empty((min(h, _STRIP_ROWS), w))

        def detail_weights(rows):
            nonlocal freed
            last = (rows.stop - 1) // _STRIP_ROWS
            while written[0] <= last:
                written[0] = next(own) + 1
            for k, (ready, _) in enumerate(links, start=1):
                while written[k] <= last:
                    got = os.read(ready, last + 1 - written[k])
                    if not got:
                        raise _Lost
                    written[k] += len(got)
            n = rows.stop - rows.start
            weights = [g[:n] for g in gathered]
            for index in range(count):
                np.take(rings[index], range(rows.start, rows.stop), axis=0, out=weights[index], mode="wrap")
            done = strips if rows.stop == h else rows.stop // _STRIP_ROWS
            grants = min(done, strips - _RING_STRIPS) - min(freed, strips - _RING_STRIPS)
            freed = done
            if grants > 0:
                for _, go in links:
                    try:
                        os.write(go, b"\0" * grants)
                    except BrokenPipeError:
                        raise _Lost from None
            for index in range(count):
                np.copyto(binary[:n], maps[index][rows])
                dump("binary", index, rows, binary[:n, :, np.newaxis])
            weights = [weight[:, :, np.newaxis] for weight in weights]
            for index in range(count):
                dump("refined_detail", index, rows, weights[index])
            _normalized(weights, weight_floor, weights)
            for index in range(count):
                dump("wd", index, rows, weights[index])
            return weights

        blend(detail_weights)

    _in_processes(count, [rings], child, lead, blend_cost)


def fuse(sources, config: FusionConfig = FusionConfig(), *, _dump=None) -> FusionResult:
    """Run the full two-scale fusion pipeline.

    Sources must share dimensions, channel count and max_val.  Weights are computed
    on luminance and shared across color channels.  The fused image is
    clamped to [0, max_val] at the very end; everything upstream keeps its
    raw values, which the result exposes for inspection.

    Saliency, the base fits and the detail fits are forked stages, each
    split over min(sources, usable CPUs) processes (see refine_weights),
    one source's map or fit per job.  Saliency writes N shared planes.
    The binary maps are one winner plane of a byte per pixel, from which
    both fits of source n read its map, and a colour source's luminance
    is built for the rows each fit reads.  The base fits write over the
    spent saliency planes, which are then normalized in place.  The
    detail fits are streamed: each process runs its share in lockstep,
    strip by strip, and hands the rows to this process, which normalizes
    each strip of detail weights and blends it with the layers, built
    strip by strip, as it arrives; this process takes fewer detail fits,
    or none, to even out the blend.  Saliency works on whole planes, with
    about one plane of scratch per process; the other stages work in
    strips of rows with O(strip) scratch, and each weight fit streams
    through rings of integral-image rows.  Every field of the result is
    the same, bit for bit, as from the public stages composed on whole
    planes, whatever the number of processes.

    The stages hand their planes to the private hook ``_dump``, which
    this process calls as ``_dump(kind, n, rows, data)``: ``data`` is rows
    ``rows`` of source n's plane of ``kind``, handed over before a later
    stage overwrites it.  "sal", "refined_base" and "wb" come first, in
    that order, each as a whole plane.  Then, strip by strip from the
    blend, in order of rows, come "binary", "refined_detail" and "wd" for
    each source, then "base" and "detail" for each source.  The hook must
    not keep ``data``.  The command line always passes one, for
    ``--dump-intermediates`` or doing nothing; then fuse returns only
    ``fused`` (the other fields are None).

    Memory: beyond the sources, fuse holds max(N, c) weight planes for
    channel count c, one byte per pixel for the winners and O(strip)
    scratch per process; README's memory section gives the rule in full.
    The first c weight planes (saliency, then base weights; one or two
    more planes for a colour fuse of fewer than three sources) are the
    rows of one (h, c, w) mapping, which read as (h, w, c) is a
    C-contiguous image.  With a hook, the blend writes the fused image
    there over the spent weights.  Without one, fuse collects every
    intermediate for the result: a private copy of each plane or strip
    that a later stage overwrites, the base weights' own planes (copies
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
    # epsilon > 0 for the guided filter, checked before any stage runs
    base_params, detail_params = (_fit_params(p, config.refine_filter) for p in (config.base_params,
                                                                                   config.detail_params))
    _check_weight_floor(config.weight_floor, len(sources))

    kept = {} if _dump is None else None
    if kept is not None:  # collect the result: copies of the planes that a later stage overwrites
        def _dump(kind, n, rows, data):
            if kind == "wb" and data.flags.c_contiguous:  # a final plane, which no stage writes again
                kept[kind, n] = data
                return
            if (kind, n) not in kept:
                kept[kind, n] = np.empty(shape[:2] + data.shape[2:])
            kept[kind, n][rows] = data

    def dump(kind, maps):
        for n, m in enumerate(maps):
            _dump(kind, n, slice(0, len(m)), m)

    # The weight planes, the first c of them rows of one (h, c, w) mapping.
    h, w, c = shape
    count = len(sources)
    host = _shared_planes(1, (h, c, w))[0]
    planes = [host[:, k, :, np.newaxis] for k in range(min(c, count))]
    planes += _shared_planes(count - len(planes), (h, w, 1))
    flat = [p[:, :, 0] for p in planes]
    _saliency_maps(sources, config, flat)
    dump("sal", planes)
    winner = _winner_plane(flat)
    maps = [_Winner(winner, n) for n in range(count)]
    _refined(maps, lambda n: _guide(sources[n], base_params.radius, _STRIP_ROWS), base_params, flat)
    dump("refined_base", planes)
    _normalized(flat, config.weight_floor, flat)
    dump("wb", planes)
    # No result keeps the weights when the caller has a hook, so the fused
    # image is written over the rows of the mapping.
    out = host.reshape(shape) if kept is None else np.empty(shape)
    radius = (config.avg_filter_size - 1) // 2
    # A source channel's layers and blend cost about a quarter of a fit:
    # 512^2 colour fits took 35 ms each and the dumped blend of five colour
    # sources 190 ms, 2048^2 gray fits 450 ms and the blend of two 230 ms.
    _detail_stage(maps, lambda n, strip: _guide(sources[n], detail_params.radius, strip), detail_params,
                  config.weight_floor, _dump,
                  lambda detail_weights: _blend(sources, planes, detail_weights, radius, max_val, _dump, out),
                  count * c / 4)
    fused = Image._adopt(out, max_val)
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
