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
    _fill,
    _fit,
    _gaussian_kernel_1d,
    _guided_planes,
    _laplacian_rows,
    _plane_means,
    _ring_shape,
    _strips,
    _valid_correlate_sep,
)
from .image import Image, _luma_rows


@dataclass(frozen=True)
class FusionConfig:
    """Knobs for the fusion pipeline.

    The base-layer weights want a large window and strong smoothing so that
    focus regions merge without halos; the detail-layer weights want a small
    window and nearly no smoothing so that fine structure switches sharply
    between sources.  The invariants below enforce that ordering.
    Each ``FilterParams.beta`` selects its refiner: beta = 2 is the guided
    filter, with ``alpha`` as its epsilon.
    """

    avg_filter_size: int = 31
    saliency_radius: int = 5
    saliency_sigma: float = 5.0
    base_params: FilterParams = field(default_factory=lambda: FilterParams(radius=15, alpha=0.3))
    detail_params: FilterParams = field(default_factory=lambda: FilterParams(radius=3, alpha=1e-4))
    weight_floor: float = 1e-12

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


def _layers(data: np.ndarray, radius: int, scratch: np.ndarray = None):
    # The base layer (box mean) and detail residual (data - base) of an
    # (h, w, c) array, as a generator of (rows, base, detail) strips in
    # scratch that the next strip overwrites, the details in ``scratch``.
    # The strips are the same rows for uint8 data, whose box means are
    # exact integer sums (see _plane_means), as for float64 data, so the
    # layers of sources of either type run in lockstep.
    if scratch is None:
        scratch = np.empty((min(len(data), _STRIP_ROWS),) + data.shape[1:])
    for rows, base in _plane_means(data, radius):
        base = base.transpose(0, 2, 1)
        yield rows, base, np.subtract(data[rows], base, out=scratch[:len(base)])


def _layers_bytes(shape: tuple, avg_filter_size: int) -> int:
    # The bytes of the window-mean ring that _layers allocates for an
    # (h, w, c) array.
    return 8 * math.prod(_ring_shape((avg_filter_size - 1) // 2, shape[2], shape[1]))


def _scratch_bytes(shape: tuple, config: FusionConfig) -> int:
    # The bytes of the largest array that fuse allocates for sources of
    # ``shape`` whose size grows with a radius: saliency's band of response
    # rows, the layers' ring, or the ring of a base fit's first stream.
    h, w, _ = shape
    pad = config.saliency_radius
    return max(8 * (min(h, _STRIP_ROWS) + 2 * pad) * (w + 2 * pad), _layers_bytes(shape, config.avg_filter_size),
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


def _saliency_rows(img: Image, kernel: np.ndarray, strip: int = _STRIP_ROWS):
    # The saliency of the luminance of ``img`` (see saliency) as a
    # generator of (rows, values) strips of at most ``strip`` rows.  A
    # strip's Gaussian reads a band of the edge-padded |Laplacian| r rows
    # wider on either side, which slides down; only its new rows are
    # computed.  Every sample is the whole plane's, whatever the strip.
    h, w = img.data.shape[:2]
    r, m = len(kernel) // 2, min(h, strip)
    luma = _luma_rows(img, strip + r + 2)
    band, out = np.empty((m + 2 * r, w + 2 * r)), np.empty((m, w))
    lum, tmp = np.empty((min(h, m + r) + 2, w + 2)), np.empty((min(h, m + r), w))
    top = stop = -r  # band row i holds row top + i of the padded response, up to row stop
    for rows in _strips(h, strip):
        band[:stop - rows.start + r] = band[rows.start - r - top:stop - top]
        top = rows.start - r
        first, last = max(stop, 0), min(rows.stop + r, h)  # the new rows of the response
        if first < last:
            n = last - first
            above, below = max(first - 1, 0), min(last + 1, h)
            padded = lum[:n + 2]  # luminance rows first - 1 to last, edge-padded
            padded[above - first + 1:below - first + 1, 1:-1] = luma[above:below]
            padded[0], padded[-1] = padded[above - first + 1], padded[below - first]
            padded[:, 0], padded[:, -1] = padded[:, 1], padded[:, -2]
            new = band[first - top:last - top]
            np.abs(_laplacian_rows(padded, new[:, r:r + w], tmp[:n]), out=new[:, r:r + w])
            new[:, :r], new[:, r + w:] = new[:, r:r + 1], new[:, r + w - 1:r + w]
        if stop < 0:  # the padding rows above the first row repeat it, as those below the last do
            band[:-top] = band[-top]
        if rows.stop + r > h:
            band[max(stop, h) - top:rows.stop + r - top] = band[h - 1 - top]
        stop = rows.stop + r
        n = rows.stop - rows.start
        yield rows, _valid_correlate_sep(band[:n + 2 * r], kernel, out=out[:n])


def saliency(src_luma: Image, config: FusionConfig = FusionConfig()) -> Image:
    """Blurred absolute Laplacian response; large where fine detail is in focus.

    The 4-neighbor Laplacian and the Gaussian of ``config.saliency_radius``
    and ``config.saliency_sigma`` both see an edge-padded input.  The map
    equals the whole-image laplacian_filter, abs and gaussian_filter bit
    for bit, built strip by strip with O(strip) scratch.
    """
    if src_luma.channels != 1:
        raise ValueError(f"saliency requires a single-channel image, got {src_luma.channels} channels")
    out = np.empty(src_luma.data.shape)
    kernel = _gaussian_kernel_1d(config.saliency_radius, config.saliency_sigma)
    _fill(out[:, :, 0], _saliency_rows(src_luma, kernel))
    return Image._adopt(out, src_luma.max_val)


def _winner_plane(h: int, w: int, count: int, strips) -> np.ndarray:
    # The index of the first strict maximum of ``count`` saliency planes at
    # each pixel, as argmax picks, by a running maximum a strip at a time:
    # strips(rows), for slices of rows in order, returns those rows of each
    # plane.
    out = np.empty((h, w), dtype=np.min_scalar_type(count - 1))
    best, greater = np.empty((min(h, _STRIP_ROWS), w)), np.empty((min(h, _STRIP_ROWS), w), dtype=bool)
    for rows in _strips(h):
        n, win, saliencies = rows.stop - rows.start, out[rows], strips(rows)
        np.copyto(best[:n], saliencies[0])
        win.fill(0)
        for index, sal in enumerate(saliencies[1:], start=1):
            np.greater(sal, best[:n], out=greater[:n])
            np.copyto(best[:n], sal, where=greater[:n])
            np.copyto(win, index, where=greater[:n])
    return out


def _indicators(winner: np.ndarray, count: int) -> WeightStack:
    # The binary weight maps of a winner plane: map n is 1 where n won.
    outs = [np.empty(winner.shape + (1,)) for _ in range(count)]
    for n, out in enumerate(outs):
        np.equal(winner, n, out=out[:, :, 0])
    return WeightStack(maps=tuple(Image._adopt(out, 1.0) for out in outs), kind="binary")


def binary_weight_maps(saliencies) -> WeightStack:
    """Indicator maps of the per-pixel saliency winner.

    Exactly one map is 1 at each pixel; ties go to the lowest source index
    so the maps always sum to one.  The winner of each pixel is found
    strip by strip with a running maximum.
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
    planes = [s.plane() for s in saliencies]
    return _indicators(_winner_plane(*shape[:2], len(planes), lambda rows: [p[rows] for p in planes]), len(planes))


def _usable_cpus() -> int:
    # CPUs this process may run on, which can be fewer than the machine has.
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _workers(count: int) -> int:
    # The processes that _streamed splits ``count`` jobs over: one without
    # os.fork or while another thread runs, which a fork could deadlock.
    return min(count, _usable_cpus()) if hasattr(os, "fork") and threading.active_count() == 1 else 1


def _shared_planes(count: int, shape: tuple) -> list:
    # ``count`` float64 arrays of ``shape`` in anonymous shared memory maps,
    # which processes forked later write into in place.  tracemalloc does
    # not see them.
    size = int(np.prod(shape))
    return [np.frombuffer(mmap.mmap(-1, 8 * size), count=size).reshape(shape) for _ in range(count)]


def _guide(img: Image, radius: int, strip: int):
    # The guide of a weight fit of ``radius`` in strips of ``strip`` rows,
    # whose output lags the rows it reads by up to 2 strips and 2r + 2 rows.
    return _luma_rows(img, 2 * strip + 2 * radius + 2)


class _Winner:
    # The binary weight map of source n, built from the winner plane for
    # the rows asked for: ``map[rows]`` is ``winner[rows] == n``, of
    # ``dtype`` bool.
    dtype = np.dtype(bool)

    def __init__(self, winner: np.ndarray, n: int):
        self.winner, self.n, self.shape = winner, n, winner.shape

    def __getitem__(self, rows):
        return self.winner[rows] == self.n


def _weights(pp, gg, params: FilterParams, strip: int = _STRIP_ROWS):
    # The weight fit of pp on the guide gg (see _fit), clamped to [0, 1],
    # as a generator of (rows, values) strips of at most ``strip`` rows.
    for rows, values in _fit(pp, gg, params, strip=strip):
        yield rows, np.clip(values, 0.0, 1.0, out=values)


def refine_weights(binary: WeightStack, guides, params: FilterParams) -> WeightStack:
    """Filter each weight map with its source luminance as guidance.

    The cross-guided linear fit relocates weight transitions onto the
    guide's edges; it can overshoot [0, 1] slightly, so the result is
    clamped.  Each map is lep_filter_guided with ``params``: at
    ``params.beta`` = 2, guided_filter with epsilon ``params.alpha``.

    The maps are refined one after another in the calling process, each
    into a private plane, once every map and guide is checked.  Each fit
    streams over strips of rows with O(strip) scratch: rings of about
    2r + 17 integral-image rows and a few strips.
    """
    guides = list(guides)
    if len(guides) != len(binary.maps):
        raise ValueError(
            f"got {len(binary.maps)} weight maps but {len(guides)} guides"
        )
    pairs = [_guided_planes(m, g) for m, g in zip(binary.maps, guides)]
    outs = [np.empty(binary.maps[0].data.shape) for _ in pairs]
    for (pp, gg), out in zip(pairs, outs):
        _fill(out[:, :, 0], _weights(pp, gg, params))
    return WeightStack(maps=tuple(Image._adopt(out, 1.0) for out in outs), kind="refined")


def _normalized(maps, weight_floor: float, outs) -> None:
    # outs[n] = (maps[n] + floor) / sum over maps of (map + floor), in
    # strips of rows, through one strip of the sum; ``outs`` may be
    # ``maps`` itself.
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


def _blend(sources, weights, radius: int, max_val: float, dump, fused) -> None:
    # fused = sum(wb * base) + sum(wd * detail) over the sources, clipped
    # to [0, max_val], in strips of rows.  Each source's layers are
    # streamed alongside (see _layers), one strip of details at a time,
    # and each strip is handed to ``dump`` (see fuse).  weights(rows) gives
    # the base and the detail weights of each strip, asked for in order of
    # rows.  Both sums start from zero and add the sources in order.
    h, w, c = sources[0].data.shape
    fb, fd, tmp, details = np.empty((4, min(h, _STRIP_ROWS), w, c))
    layers = [_layers(src.data, radius, details) for src in sources]
    for rows, base, detail in layers[0]:
        n = rows.stop - rows.start
        b, d, t = fb[:n], fd[:n], tmp[:n]
        b.fill(0.0)
        d.fill(0.0)
        for index, (wb, wd) in enumerate(zip(*weights(rows))):
            if index:
                _, base, detail = next(layers[index])
            dump("base", index, rows, base)
            dump("detail", index, rows, detail)
            b += np.multiply(wb, base, out=t)
            d += np.multiply(wd, detail, out=detail)
        np.clip(np.add(b, d, out=fused[rows]), 0.0, max_val, out=fused[rows])


def _lockstep_strip(h: int, jobs: int, planes: float = 1.0) -> int:
    # Rows per strip of ``jobs`` weight fits in lockstep whose scratch should
    # stay near ``planes`` planes of ``h`` rows together.  A fit's scratch
    # is about 30 strips of rows (see _fit), so the strips are planes * h /
    # (32 * jobs) rows, from 4 to _STRIP_ROWS: a 512^2 colour detail fit
    # took 35 ms in strips of 16 rows, 46 in strips of 8 and 50 of 5.
    return max(4, min(_STRIP_ROWS, int(planes * h) // (32 * jobs)))


_RING_STRIPS = 3  # strips of _STRIP_ROWS rows in the ring of each streamed job


def _lockstep(jobs, rings, h: int, wait):
    # Advances the strip generators ``jobs`` together, writing row i of job
    # j at row i mod len(rings[j]), a multiple of _STRIP_ROWS.  Yields u
    # once strip u, rows _STRIP_ROWS * u onwards, of every job is written.
    # A job may write one strip ahead: wait(u) is called before any row of
    # strip u is written, and returns once the ring may take it.
    done = [0] * len(jobs)
    for u, strip in enumerate(_strips(h)):
        for j, job in enumerate(jobs):
            while done[j] < strip.stop:
                rows, values = next(job)
                wait((rows.stop - 1) // _STRIP_ROWS)
                ring, n = rings[j], len(values)
                at = rows.start % len(ring)
                k = min(n, len(ring) - at)
                ring[at:at + k] = values[:k]
                ring[:n - k] = values[k:]
                done[j] = rows.stop
        yield u


_NO_MEMORY = 3  # the exit status of a forked child that ran out of memory
_STOPPED = 4  # the exit status of a forked child whose caller stopped first


class _Lost(Exception):
    # The process at the other end of a stream's pipe has gone.
    pass


def _streamed(count: int, shape: tuple, job, consume, lead_cost: float, planes: float) -> None:
    # Runs the generators job(n, strip), n < count, of (rows, values)
    # strips of an (h, w) plane as one stage streamed into consume(strips),
    # which runs in this process: strips(rows), for slices of rows in
    # order, returns those rows of each job's plane, in scratch that the
    # next call overwrites.
    #
    # The jobs are split over W = _workers(count) processes: this one takes
    # the last ``here`` jobs, and W - 1 forked children split the others,
    # child j taking n = j, j + W - 1, ... below count - here.  consume
    # costs about ``lead_cost`` jobs, so here evens out the work: (count +
    # lead_cost) / W - lead_cost jobs, rounded, at least none.  Should
    # os.fork or os.pipe fail, this process also takes the shares of the
    # children not started.  Each process advances its share in lockstep
    # into a shared ring of _RING_STRIPS strips per job.  A child's jobs
    # run in strips of h / 32 rows, and this process's k jobs in strips
    # that keep their scratch near ``planes`` planes together (see
    # _lockstep_strip).
    #
    # A child writes a byte to its ``ready`` pipe for each strip written,
    # and before strip u >= _RING_STRIPS it reads a byte from its ``go``
    # pipe, written once strip u - _RING_STRIPS is copied out.  A pipe read
    # is a memory barrier and returns EOF once the other end has gone.
    # Three strips are the fewest that cannot deadlock: a slice spans at
    # most ring strips u - 1 and u, and a job completing u may write u + 1.
    #
    # Processes, not threads, whose numpy calls of tens of microseconds wait
    # on the interpreter lock: on a 2-vCPU Xeon VM, refining two 2048^2 maps
    # at both radii took 1.4-2.7 s on two threads, 1.9-2.5 s on one, and
    # 1.0-1.4 s in two processes.  Forked, not spawned, which would import
    # numpy and lepfuse afresh (about 0.2 s) and copy the inputs.
    #
    # A child that runs out of memory exits with _NO_MEMORY and prints
    # nothing, and this process then raises MemoryError; any other failure
    # prints the child's traceback and raises RuntimeError.  If this
    # process fails, it closes its pipe ends, so a child waiting on them
    # stops (_STOPPED), and the failure is raised once every child exited.
    h, w = shape
    strips = -(-h // _STRIP_ROWS)
    rings = _shared_planes(1, (count, min(_RING_STRIPS, strips) * _STRIP_ROWS, w))[0]
    workers = _workers(count)
    others = count - max(0, int((count + lead_cost) / workers - lead_cost + 0.5))

    def child(share, go, ready):
        granted = _RING_STRIPS  # the strips this child may write

        def wait(u):
            nonlocal granted
            while u >= granted:
                if not os.read(go, 1):
                    raise _Lost
                granted += 1

        for _ in _lockstep([job(n, _lockstep_strip(h, 1)) for n in share], [rings[n] for n in share], h, wait):
            os.write(ready, b"\0")

    links, ends, children, lost = [], [], [], False  # links: this process's (ready, go) ends of each child
    try:
        for worker in range(min(workers - 1, others)):
            pipes = []  # go_out, go_in, ready_out, ready_in
            try:
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
                    child(range(worker, others, workers - 1), pipes[0], pipes[3])
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
            os.close(pipes[0])
            os.close(pipes[3])
            ends += pipes[1:3]
            children.append(pid)
            links.append((pipes[2], pipes[1]))
        share = [n for n in range(count) if n >= others or n % (workers - 1) >= len(children)]
        strip = _lockstep_strip(h, max(len(share), 1), planes)
        own = _lockstep([job(n, strip) for n in share], [rings[n] for n in share], h, lambda u: None)
        written = [0] * (len(links) + 1)  # strips written by this process, then by each child
        freed = 0  # strips copied out of the rings
        gathered = np.empty((count, min(h, _STRIP_ROWS), w))

        def rows_of(rows):
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
            out = gathered[:, :rows.stop - rows.start]
            for ring, strip in zip(rings, out):
                np.take(ring, range(rows.start, rows.stop), axis=0, out=strip, mode="wrap")
            done = strips if rows.stop == h else rows.stop // _STRIP_ROWS
            grants = min(done, strips - _RING_STRIPS) - min(freed, strips - _RING_STRIPS)
            freed = done
            if grants > 0:
                for _, go in links:
                    try:
                        os.write(go, b"\0" * grants)
                    except BrokenPipeError:
                        raise _Lost from None
            return out

        consume(rows_of)
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


def fuse(sources, config: FusionConfig = FusionConfig(), *, _dump=None) -> FusionResult:
    """Run the full two-scale fusion pipeline.

    Sources must share dimensions, channel count and max_val.  Weights are computed
    on luminance and shared across color channels.  The fused image is
    clamped to [0, max_val] at the very end; everything upstream keeps its
    raw values, which the result exposes for inspection.

    fuse runs two stages streamed from min(jobs, usable CPUs) processes
    into this one (see README): N saliency maps, from which it builds the
    winner plane, then 2N weight fits, whose strips it normalizes and
    blends with the layers into the fused image (in one process, the base
    weights are fitted into planes first).  Every field of the result is
    the same, bit for bit, as from the public stages composed on whole
    planes, whatever the number of processes.

    This process hands each stage's strips to the private hook ``_dump``
    as ``_dump(kind, n, rows, data)``: ``data`` is rows ``rows`` of
    source n's plane of ``kind``, each kind in order of rows.  First, for
    each strip, comes "sal"; then, for each strip of the blend,
    "refined_base", "wb", "refined_detail" and "wd" of each source, then
    "base" and "detail" of each source.  The hook must not keep ``data``.
    With a hook, fuse returns only ``fused``; without one, it copies every
    strip into its result and builds the binary maps from the winner plane
    at the end, as binary_weight_maps does.  Beyond the sources, fuse holds
    the fused image, the winner plane and O(strip) scratch per process.
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
    fits = (config.base_params, config.detail_params)
    _check_weight_floor(config.weight_floor, len(sources))

    kept = {} if _dump is None else None
    if _dump is None:  # collect the result, strip by strip
        def _dump(kind, n, rows, data):
            if (kind, n) not in kept:
                kept[kind, n] = np.empty(shape[:2] + data.shape[2:])
            kept[kind, n][rows] = data

    h, w, c = shape
    count = len(sources)
    kernel = _gaussian_kernel_1d(config.saliency_radius, config.saliency_sigma)

    def saliencies(strips, rows):  # the saliencies of ``rows``, handed to _dump
        out = strips(rows)
        for index, sal in enumerate(out):
            _dump("sal", index, rows, sal[:, :, np.newaxis])
        return out

    # The winner costs 0.3 of a saliency map per source (19 against 16 ms
    # at 512^2); a saliency job's scratch is a fraction of a fit's.
    stage = []  # the winner plane, once the stage has run
    _streamed(count, (h, w), lambda n, strip: _saliency_rows(sources[n], kernel, strip),
              lambda strips: stage.append(_winner_plane(h, w, count, lambda rows: saliencies(strips, rows))),
              0.3 * count, count)
    [winner] = stage
    maps = [_Winner(winner, n) for n in range(count)]
    # In one process, N base fits in lockstep with the detail fits hold
    # more than N planes on small images, so there the base weights are
    # fitted first into planes, the first c of them the rows of one (h, c,
    # w) map, which read as (h, w, c) is the fused image: the blend writes
    # each strip of it after reading the strip's weights.
    base_planes = None
    if _workers(2 * count) == 1:
        host = _shared_planes(1, (h, c, w))[0]
        base_planes = [host[:, k] for k in range(min(c, count))] + _shared_planes(count - c, (h, w))
        for n, plane in enumerate(base_planes):
            _fill(plane, _weights(maps[n], _guide(sources[n], fits[0].radius, _STRIP_ROWS), fits[0]))
        fits = fits[1:]

    def fit(j, strip):  # job j fits source j % N, the base weights first
        n, params = j % count, fits[j // count]
        return _weights(maps[n], _guide(sources[n], params.radius, strip), params, strip)

    def weights(strips, rows):  # the normalized base and detail weights of ``rows``, handed to _dump
        both = [plane[rows, :, np.newaxis] for plane in base_planes or []] + [s[:, :, np.newaxis] for s in strips(rows)]
        for refined, kind, stack in (("refined_base", "wb", both[:count]), ("refined_detail", "wd", both[count:])):
            for index, weight in enumerate(stack):
                _dump(refined, index, rows, weight)
            _normalized(stack, config.weight_floor, stack)
            for index, weight in enumerate(stack):
                _dump(kind, index, rows, weight)
        return both[:count], both[count:]

    out = np.empty(shape) if base_planes is None else host.reshape(shape)
    radius = (config.avg_filter_size - 1) // 2
    # A source channel's layers, weights and blend cost a fifth to a quarter
    # of a fit: 90-98 ms for five 512^2 colour sources, whose fits took
    # 33-37 ms, and 157-170 ms for two 2048^2 gray ones, whose fits took
    # 341-400 ms (2-vCPU Xeon VM, numpy 2.4.6).
    # This process's fits may hold the planes the fused image does not take.
    _streamed(len(fits) * count, (h, w), fit,
              lambda strips: _blend(sources, lambda rows: weights(strips, rows), radius, max_val, _dump, out),
              count * c / 4, 1 if base_planes else max(1, count - c))
    fused = Image._adopt(out, max_val)
    if kept is None:
        return FusionResult(fused=fused)

    def images(kind, peak=1.0):
        return tuple(Image._adopt(kept[kind, n], peak) for n in range(count))

    def stack(kind, stage):
        return WeightStack(images(kind), stage)

    return FusionResult(
        fused=fused, layers=tuple(map(LayerPair, images("base", max_val), images("detail", max_val))),
        saliencies=images("sal", max_val), binary_maps=_indicators(winner, count),
        refined_base=stack("refined_base", "refined"), refined_detail=stack("refined_detail", "refined"),
        base_weights=stack("wb", "normalized"), detail_weights=stack("wd", "normalized"))
