"""Windowed filter kernels.

Box-window sums run through an integral image, or for integer samples
through exact int32 running sums, so they cost O(n) in the pixel count
regardless of the window radius.  Borders are replicate-padded;
the valid-mode kernels shared with the metrics leave padding to callers.
"""

from dataclasses import dataclass

import numpy as np

from .image import _STRIP_ROWS, Image


@dataclass(frozen=True)
class FilterParams:
    """Window radius and regularizer knobs for the edge-preserving filters.

    ``alpha`` scales the gradient-adaptive regularizer; ``beta`` in [0, 2]
    shapes it (the local gradient magnitude is raised to the power
    ``2 - beta``).  Small values of either keep more gradients as salient
    edges; large values smooth more aggressively.  At ``beta = 2`` the
    regularizer is the constant ``alpha``, which is the guided filter's
    epsilon.
    """

    radius: int
    alpha: float = 0.1
    beta: float = 1.0

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")
        if not (np.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if not (0.0 <= self.beta <= 2.0):
            raise ValueError(f"beta must lie in [0, 2], got {self.beta}")


@dataclass(frozen=True)
class CoeffMaps:
    """Per-pixel coefficients of the local linear filter model.

    ``slope`` and ``intercept`` hold the per-window fit centered at each
    pixel; ``slope_mean`` and ``intercept_mean`` are their window averages,
    which blend the overlapping window estimates into the final output
    ``slope_mean * input + intercept_mean``.
    """

    slope: Image
    intercept: Image
    slope_mean: Image
    intercept_mean: Image


def _anchored(body: np.ndarray, block: np.ndarray, anchor: np.ndarray, radius: int) -> None:
    # An (n, channels, w) block minus the per-channel anchor, replicate-
    # padded by ``radius`` columns on each side, into ``body``.
    w = block.shape[2]
    np.subtract(block, anchor, out=body[:, :, radius:radius + w])
    body[:, :, :radius] = body[:, :, radius:radius + 1]
    body[:, :, radius + w:] = body[:, :, radius + w - 1:radius + w]


def _box_means(blocks, radius: int, strip: int = None):
    # Mean over (2r+1)^2 replicate-padded windows of a stream of row blocks,
    # as a generator.  Each block is an (n, channels, w) array of the next
    # input rows; the generator yields (rows, means) for consecutive output
    # rows, each as soon as the input rows within ``radius`` below it have
    # arrived, n <= ``strip`` (_STRIP_ROWS by default) rows of (channels,
    # w) at a time, in scratch that the next strip overwrites.  The slices
    # of rows depend only on h, r and the strip: their bounds are those of
    # strips of the plane padded by 2r rows, less 2r.  _exact_box_means
    # gives the same strips for integer channels, for less work.
    #
    # The integral image is that of the whole replicate-padded plane,
    # anchored on the first sample of each channel, so constant regions
    # stay exact.  Its rows live in a ring of at least strip + 2r + 1 rows,
    # a multiple of ``strip``: integral row x sits at ring row (x - 1) mod
    # size, after a zero column.  Rows are anchored and padded as they
    # arrive, then swept down (the last row of the previous chunk carried)
    # and summed across by cumsum in chunks of ``strip`` rows that never
    # wrap.  Output row i combines integral rows i and i + k as ((A - B) -
    # C) + D: the additions of whole-plane prefix sums in the same order,
    # so every mean is bitwise the whole plane's, whatever the strip.
    k, m = 2 * radius + 1, strip or _STRIP_ROWS
    written = summed = 1  # integral rows written and summed; row 0 is zero
    emitted, anchor = 0, None

    def write(count, fill):
        # Writes ``count`` padded rows, ``fill(body, i)`` writing rows i,
        # i + 1, ... of them, and yields every output row that completes.
        nonlocal written
        done = 0
        while done < count:
            at = (written - 1) % size
            n = min(count - done, size - (written - emitted), size - at)
            fill(ring[at:at + n, :, 1:], done)
            written += n
            done += n
            while written - summed >= m:
                yield from sum_rows(m)

    def sum_rows(n):
        # Sweeps and sums the next ``n`` written rows, then yields every
        # output row they complete.
        nonlocal summed, emitted
        at = (summed - 1) % size
        if summed > 1:  # the first row gets no carry: 0.0 + -0.0 is 0.0
            np.add(lines[at], carry, out=lines[at])
        for x in range(at + 1, at + n):
            np.add(lines[x], lines[x - 1], out=lines[x])
        np.copyto(carry, lines[at + n - 1])
        body = ring[at:at + n, :, 1:]
        np.cumsum(body, axis=2, out=body)
        summed += n
        e = summed - emitted - k
        if e <= 0:
            return
        o = means[:e]
        i = 0
        while i < e:  # in pieces whose integral rows do not wrap
            top, bottom = (emitted + i - 1) % size, (emitted + i + k - 1) % size
            j = i + min(e - i, size - top, size - bottom)
            top, bottom = ring[top:top + j - i], ring[bottom:bottom + j - i]
            np.subtract(bottom[:, :, k:k + w], top[:, :, k:k + w], out=o[i:j])
            o[i:j] -= bottom[:, :, :w]
            o[i:j] += top[:, :, :w]
            i = j
        o /= k * k
        o += anchor
        yield slice(emitted, emitted + e), o
        emitted += e

    def copies(body, i):
        np.copyto(body, edge)

    for block in blocks:
        if anchor is None:  # the ring, the carried and edge rows, and a strip of means
            channels, w = block.shape[1:]
            ring = np.zeros(_ring_shape(radius, channels, w, m))
            size, lines = len(ring), list(ring[:, :, 1:])
            carry, edge = np.empty((2, channels, w + 2 * radius))
            means = np.empty((m, channels, w))
            anchor = block[0, :, :1].astype(np.float64)
            _anchored(edge[np.newaxis], block[:1], anchor, radius)
            yield from write(radius, copies)
        yield from write(len(block), lambda body, i: _anchored(body, block[i:i + len(body)], anchor, radius))
        _anchored(edge[np.newaxis], block[-1:], anchor, radius)
    yield from write(radius, copies)
    if written > summed:
        yield from sum_rows(written - summed)


# The largest radius whose window sums of values up to 255^2 fit in int32:
# (2r + 1)^2 * 255^2 < 2^31.
_EXACT_RADIUS = 90


def _exact(radius: int, *arrays) -> bool:
    # Whether _exact_box_means may take windows of ``radius`` over arrays
    # of these dtypes: bool or uint8 samples, whose squares and products
    # are at most 255^2.  An array without a dtype is taken as float.
    return radius <= _EXACT_RADIUS and all(getattr(a, "dtype", None) in (np.bool_, np.uint8) for a in arrays)


def _exact_box_means(fill, shape: tuple, radius: int, out: np.ndarray, strip: int = None):
    # _box_means of an (h, c, w) plane of integers in [0, 255^2], the same
    # (rows, means) bit for bit, with the means in ``out``, a float64 (n,
    # c, w) array of at least the strip's n rows.  fill(block, rows) writes
    # rows ``rows`` of the plane into the int32 array ``block``, for slices
    # of rows in any order.
    #
    # Every partial sum of _box_means' anchored integral image is then an
    # integer below 2^53 (on any padded plane of fewer than 2^37 samples),
    # so each of its means is fl(fl(S / k^2) + a), where S is the exact
    # anchored window sum and a the channel's first sample, whichever way S
    # is summed.  Here it is summed in int32 (see _EXACT_RADIUS), with no
    # integral image: a running sum down the rows, which adds the row that
    # enters the window and subtracts the row that leaves it, starting from
    # the window of row -r, 2r + 1 anchored copies of row 0; then windows
    # across the replicate-padded rows by doubling, about 2 log2(k)
    # additions of shifted views with no dependent chain, where the float
    # path runs a cumsum.  The scratch is two int32 strips of width w + 2r
    # and one of width w.
    h, c, w = shape
    k, m = 2 * radius + 1, strip or _STRIP_ROWS
    padded, doubled = np.empty((2, min(h, m), c, w + 2 * radius), dtype=np.int32)
    sums, carry = np.empty((min(h, m), c, w), dtype=np.int32), np.empty((c, w), dtype=np.int32)

    def read(block, start):
        # Rows start, start + 1, ... of the plane, replicate-clamped, into block.
        n = len(block)
        lo = min(max(start, 0), h - 1)
        hi = max(min(start + n, h), lo + 1)
        at = min(max(lo - start, 0), n - 1)
        fill(block[at:at + hi - lo], slice(lo, hi))
        block[:at] = block[at]
        block[at + hi - lo:] = block[at + hi - lo - 1]

    def down(start, n):
        # The running sums of window rows start to start + n - 1 into the
        # middle of ``padded``, from those of the row above in ``carry``.
        vertical = padded[:n, :, radius:radius + w]
        enter, leave = doubled[:n, :, :w], sums[:n]
        read(enter, start + radius)
        read(leave, start - radius - 1)
        np.subtract(enter, leave, out=vertical)
        vertical[0] += carry
        for i in range(1, n):
            vertical[i] += vertical[i - 1]
        np.copyto(carry, vertical[-1])
        return vertical

    read(carry[np.newaxis], 0)
    anchor = carry[:, :1].astype(np.float64)
    carry -= carry[:, :1]
    carry *= k  # the window of row -r holds 2r + 1 copies of row 0, anchored
    for start in range(1 - radius, 0, len(sums)):
        down(start, min(len(sums), -start))
    for rows in _strips(h + 2 * radius, m):
        start, stop = max(rows.start - 2 * radius, 0), rows.stop - 2 * radius
        if stop <= 0:
            continue
        n = stop - start
        column = down(start, n)
        src, dst = padded[:n], doubled[:n]
        src[:, :, :radius] = column[:, :, :1]
        src[:, :, radius + w:] = column[:, :, -1:]
        total, width, span, at = sums[:n], w + 2 * radius, 1, 1
        np.copyto(total, src[:, :, :w])  # k is odd, so its windows start with one column
        while 2 * span <= k:  # src[x] sums span columns from x; total[x], ``at`` of them
            width -= span
            np.add(src[:, :, :width], src[:, :, span:span + width], out=dst[:, :, :width])
            src, dst, span = dst, src, 2 * span
            if k & span:
                total += src[:, :, at:at + w]
                at += span
        o = np.divide(total, k * k, out=out[:n])
        o += anchor
        yield slice(start, stop), o


def _ring_shape(radius: int, channels: int, width: int, strip: int = None) -> tuple:
    # The shape of _box_means' ring of integral-image rows: at least
    # strip + 2r + 1 rows, a multiple of ``strip`` (_STRIP_ROWS by
    # default), each a zero column and the padded row of every channel.
    k, m = 2 * radius + 1, strip or _STRIP_ROWS
    return (-(-(m + k) // m) * m, channels, width + k)


def _plane_means(data: np.ndarray, radius: int):
    # _box_means of an (h, w, c) array, as (rows, (n, c, w) means): by
    # _exact_box_means if its samples are uint8 or bool.
    h, w, c = data.shape
    if not _exact(radius, data):
        return _box_means((data[rows].transpose(0, 2, 1) for rows in _strips(h)), radius)
    return _exact_box_means(lambda out, rows: np.copyto(out, data[rows].transpose(0, 2, 1)), (h, c, w), radius,
                            np.empty((min(h, _STRIP_ROWS), c, w)))


def _fill(out: np.ndarray, strips) -> None:
    # Writes each (rows, values) strip of a generator into out[rows].
    for rows, values in strips:
        out[rows] = values


def _single_plane(img: Image, op: str) -> np.ndarray:
    if img.channels != 1:
        raise ValueError(f"{op} requires a single-channel image, got {img.channels} channels")
    return img.plane()


def box_mean(img: Image, radius: int) -> Image:
    """Arithmetic mean over (2r+1)^2 replicate-padded windows, per channel.

    Runtime is independent of the radius (running sums, not a window loop).
    The image is streamed in strips of rows, each copied into the returned
    image as it completes, so beyond that image it holds O(strip) scratch:
    a ring of 2r + 1 + 16 integral-image rows and a strip of means.  The
    uint8 samples of a read image are summed exactly in int32 instead, for
    radii up to 90, with the same bits.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    out = np.empty(img.data.shape)
    _fill(out.transpose(0, 2, 1), _plane_means(img.data, radius))
    return Image._adopt(out, img.max_val)


def _gaussian_kernel_1d(radius: int, sigma: float) -> np.ndarray:
    # A sigma so small that 2 sigma^2 underflows to 0 gets the delta
    # kernel, the sigma -> 0 limit; where t^2 / (2 sigma^2) overflows,
    # exp(-inf) is that limit's 0.
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        k = np.exp(-(t * t) / (2.0 * sigma * sigma)) if 2.0 * sigma * sigma > 0.0 else (t == 0.0) * 1.0
    return k / k.sum()


# Bytes per scratch strip of _valid_correlate_sep: _STRIP_ROWS rows at
# 2048 wide.  Narrower rows get taller strips, so small images make fewer,
# longer numpy calls; the 128^2 ssim measured 6.3 ms in strips of 16 rows
# and 3.0 ms in one strip, with the same value bits.
_STRIP_BYTES = _STRIP_ROWS * 2048 * 8


def _strips(height: int, rows: int = _STRIP_ROWS):
    # Row slices of at most ``rows`` rows that cover ``height`` rows.
    return (slice(i, min(i + rows, height)) for i in range(0, height, rows))


def _valid_correlate_sep(arr: np.ndarray, kernel: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    # Separable valid-mode correlation over the two spatial axes; the output
    # shrinks by 2*radius per axis.  It runs one strip of output rows at a
    # time, of at least _STRIP_ROWS rows and about _STRIP_BYTES: a row pass
    # into a scratch strip, then a column pass into ``out``.  Both sums
    # start from zero and add the taps in kernel order, so every sample is
    # the same as from whole-plane passes, whatever the strip height.
    radius = len(kernel) // 2
    h, w = arr.shape[:2]
    oh, ow = h - 2 * radius, w - 2 * radius
    if out is None:
        out = np.empty((oh, ow) + arr.shape[2:])
    rows = max(_STRIP_ROWS, _STRIP_BYTES // (8 * arr[0].size))
    scratch = np.empty((2, min(oh, rows)) + arr.shape[1:])
    for rows in _strips(oh, scratch.shape[1]):
        n = rows.stop - rows.start
        acc, tmp = scratch[0, :n], scratch[1, :n]
        acc.fill(0.0)
        for t, weight in enumerate(kernel):
            np.multiply(weight, arr[rows.start + t:rows.stop + t], out=tmp)
            acc += tmp
        dst, tmp = out[rows], tmp[:, :ow]
        dst.fill(0.0)
        for t, weight in enumerate(kernel):
            np.multiply(weight, acc[:, t:t + ow], out=tmp)
            dst += tmp
    return out


def gaussian_filter(img: Image, radius: int, sigma: float) -> Image:
    """Convolution with a normalized sampled Gaussian of size (2r+1)^2.

    The sampled 2-D kernel factors exactly into two 1-D passes, so the
    separable implementation below equals the full 2-D convolution.
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    kernel = _gaussian_kernel_1d(radius, sigma)
    padded = np.pad(img.data, [(radius, radius), (radius, radius), (0, 0)], mode="edge")
    return Image(_valid_correlate_sep(padded, kernel), img.max_val)


def _laplacian_rows(padded: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # 4-neighbor Laplacian of the interior of an edge-padded band of rows,
    # written into ``out``; ``tmp`` is scratch of the same shape.
    np.add(padded[:-2, 1:-1], padded[2:, 1:-1], out=out, dtype=np.float64)
    out += padded[1:-1, :-2]
    out += padded[1:-1, 2:]
    out -= np.multiply(4.0, padded[1:-1, 1:-1], out=tmp)
    return out


def laplacian_filter(img: Image) -> Image:
    """4-neighbor Laplacian (3x3 kernel [[0,1,0],[1,-4,1],[0,1,0]])."""
    plane = _single_plane(img, "laplacian_filter")
    out, tmp = np.empty((2,) + plane.shape)
    return Image(_laplacian_rows(np.pad(plane, 1, mode="edge"), out, tmp), img.max_val)


def _gradient_magnitude(plane: np.ndarray, out: np.ndarray = None, tmp: np.ndarray = None) -> np.ndarray:
    # Central differences at interior pixels; the output loses a border pixel.
    # ``out`` and ``tmp`` are optional scratch planes of the output shape.
    dx = np.subtract(plane[1:-1, 2:], plane[1:-1, :-2], out=out, dtype=np.float64)
    dx *= 0.5
    dy = np.subtract(plane[2:, 1:-1], plane[:-2, 1:-1], out=tmp, dtype=np.float64)
    dy *= 0.5
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _fit(pp, gg, params: FilterParams, coeffs=None, strip: int = _STRIP_ROWS):
    # The local linear fit of pp on the guide gg, as a generator that
    # yields (rows, values): box_mean(slope) * gg + box_mean(intercept) of
    # consecutive strips of at most ``strip`` rows, in scratch that the
    # next strip overwrites.  The values are the same, bit for bit,
    # whatever the strip; the scratch is about 30 strips of rows (see
    # below), and shorter strips cost more numpy calls per row.  Per
    # window, with a regularizer from the guide's gradient,
    #
    #   a = cov(gg, pp) / (var(gg) + alpha * mean(|grad gg|^(2 - beta))),
    #
    # or 0 where that denominator is 0, and b = mean(pp) - a * mean(gg).
    # The regularizer and the variance are clamped at 0, so rounding
    # residue can never make the denominator smaller than the variance.
    # Passing one array as both pp and gg reuses the variance as the
    # covariance.  ``coeffs``, if given, is four planes that receive a, b
    # and their window means.
    #
    # pp and gg are read only as ``x[rows]`` for slices of rows, and gg's
    # ``shape`` gives (h, w), so either may build the rows asked for.  Two
    # window-mean streams run as a pipeline: the first takes |grad gg|^(2 -
    # beta), gg, gg^2 (and pp, gg * pp) of each input strip as channels,
    # the second a and b of each strip the first completes.  Where gg and
    # pp hold uint8 or bool samples (a ``dtype`` attribute says so), the
    # first stream's integer channels take _exact_box_means instead, which
    # gives the same means for less work.  The scratch is the rings (2r + 1
    # + strip rows of 5, or 1, and 2 channels), _exact_box_means' strips
    # and a few more strips.
    h, w = gg.shape
    same = pp is gg
    exact = _exact(params.radius, gg, pp)
    channels = 3 if same else 5
    # The edge-padded guide band, a scratch strip, the first stream's input
    # strip, a mask strip and, if exact, a strip of its means.
    m = min(h, strip)
    band, tmp, block = np.empty((m + 2, w + 2)), np.empty((m, w)), np.empty((m, 1 if exact else channels, w))
    mask_buf = np.empty((m, w), dtype=bool)
    both = np.empty((m, channels, w)) if exact else None

    def products(out, rows, g):
        # g, g^2 (and pp, g * pp) of ``rows`` as the channels of ``out``.
        np.copyto(out[:, 0], g)
        np.multiply(out[:, 0], out[:, 0], out=out[:, 1])
        if not same:
            np.copyto(out[:, 2], pp[rows])
            np.multiply(out[:, 0], out[:, 2], out=out[:, 3])

    def sums():
        for rows in _strips(h, strip):
            n = rows.stop - rows.start
            # The guide rows and one more on each side, edge-padded.
            padded = band[:n + 2]
            above, below = max(rows.start - 1, 0), min(rows.stop, h - 1)
            padded[1:-1, 1:-1] = gg[rows]
            padded[:1, 1:-1] = gg[above:above + 1]
            padded[-1:, 1:-1] = gg[below:below + 1]
            padded[:, 0] = padded[:, 1]
            padded[:, -1] = padded[:, -2]
            blk = block[:n]
            grad = _gradient_magnitude(padded, out=blk[:, 0], tmp=tmp[:n])
            grad **= 2.0 - params.beta  # numpy's scalar-power fast path, as grad ** (2 - beta)
            if not exact:
                products(blk[:, 1:], rows, padded[1:-1, 1:-1])
            yield blk

    def first():
        # (rows, means) of the first stream's channels.
        grads = _box_means(sums(), params.radius, strip=strip)
        if not exact:
            yield from grads
            return
        ints = _exact_box_means(lambda out, rows: products(out, rows, gg[rows]), (h, channels - 1, w),
                                params.radius, both[:, 1:], strip)
        for (rows, grad), _ in zip(grads, ints):
            means = both[:rows.stop - rows.start]
            np.copyto(means[:, 0], grad[:, 0])
            yield rows, means

    def coefficients():
        # a and b of each strip, written over the strip's first two means.
        for rows, means in first():
            n = rows.stop - rows.start
            mean_g, var_g = means[:, 1], means[:, 2]
            with np.errstate(over="ignore"):  # inf is the alpha -> inf limit: slope 0
                reg = np.multiply(means[:, 0], params.alpha, out=means[:, 0])
            np.maximum(reg, 0.0, out=reg)
            var_g -= np.multiply(mean_g, mean_g, out=tmp[:n])
            np.maximum(var_g, 0.0, out=var_g)
            reg += var_g
            if same:
                mean_p, cov = mean_g, var_g
            else:
                mean_p, cov = means[:, 3], means[:, 4]
                cov -= np.multiply(mean_g, mean_p, out=tmp[:n])
            mask = np.greater(reg, 0.0, out=mask_buf[:n])
            slope = np.divide(cov, reg, out=reg, where=mask)
            np.copyto(slope, 0.0, where=np.logical_not(mask, out=mask))
            intercept = np.subtract(mean_p, np.multiply(slope, mean_g, out=tmp[:n]), out=means[:, 1])
            if coeffs is not None:
                np.copyto(coeffs[0][rows], slope)
                np.copyto(coeffs[1][rows], intercept)
            yield means[:, :2]

    for rows, means in _box_means(coefficients(), params.radius, strip=strip):
        if coeffs is not None:
            np.copyto(coeffs[2][rows], means[:, 0])
            np.copyto(coeffs[3][rows], means[:, 1])
        values = np.multiply(means[:, 0], gg[rows], out=means[:, 0])
        values += means[:, 1]
        yield rows, values


def lep_filter(img: Image, params: FilterParams) -> tuple[Image, CoeffMaps]:
    """Local edge-preserving smoothing of a single-channel image.

    Every (2r+1)^2 window gets a linear model ``out = a * in + b`` with

        a = var / (var + alpha * mean(|grad|^(2 - beta)))
        b = (1 - a) * window mean

    so flat windows are replaced by their mean (a near 0) while windows
    whose variance dominates the local gradient regularizer pass through
    (a near 1).  The overlapping window estimates at each pixel are blended
    by box-averaging the coefficient maps.  A window with zero variance and
    zero regularizer is defined to have a = 0 (output is the window mean),
    closing the 0/0 case continuously.

    Returns the filtered image and the coefficient maps; every slope value
    lies in [0, 1].  The fit streams over strips of rows, so beyond the
    returned planes it holds O(strip) scratch.
    """
    plane = _single_plane(img, "lep_filter")
    out, *coeffs = (np.empty(img.data.shape) for _ in range(5))
    _fill(out[:, :, 0], _fit(plane, plane, params, [c[:, :, 0] for c in coeffs]))
    slope, intercept, slope_mean, intercept_mean = coeffs
    maps = CoeffMaps(
        slope=Image._adopt(slope, 1.0),
        intercept=Image._adopt(intercept, img.max_val),
        slope_mean=Image._adopt(slope_mean, 1.0),
        intercept_mean=Image._adopt(intercept_mean, img.max_val),
    )
    return Image._adopt(out, img.max_val), maps


def _guided_planes(p: Image, guide: Image) -> tuple[np.ndarray, np.ndarray]:
    # The input and guide planes of a guided fit, checked.
    pp = _single_plane(p, "lep_filter_guided")
    gg = _single_plane(guide, "lep_filter_guided")
    if pp.shape != gg.shape:
        raise ValueError(
            f"input and guide dimensions differ: {pp.shape} vs {gg.shape}"
        )
    return pp, gg


def lep_filter_guided(p: Image, guide: Image, params: FilterParams) -> Image:
    """Edge-preserving filtering of ``p`` steered by a guidance image.

    The per-window linear model is fit from the guide to ``p``
    (a = cov(guide, p) / (var(guide) + regularizer)), with the gradient
    regularizer taken from the guide so edge preservation follows the
    guide's structure.  With ``guide is p`` this reduces to lep_filter.
    """
    pp, gg = _guided_planes(p, guide)
    out = np.empty(p.data.shape)
    _fill(out[:, :, 0], _fit(pp, gg, params))
    return Image._adopt(out, p.max_val)


def guided_filter(p: Image, guide: Image, radius: int, epsilon: float) -> Image:
    """Classic guided filter: a = cov(guide, p) / (var(guide) + epsilon).

    This is lep_filter_guided at beta = 2, where the gradient regularizer
    is the constant alpha = epsilon.  Kept as the constant-regularizer
    baseline; it smooths edges that the gradient-adaptive variant preserves.
    """
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return lep_filter_guided(p, guide, FilterParams(radius, epsilon, beta=2.0))
