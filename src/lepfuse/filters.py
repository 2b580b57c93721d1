"""Windowed filter kernels.

Box-window sums run through an integral image, so they cost O(n) in the
pixel count regardless of the window radius.  Borders are replicate-padded;
the valid-mode kernels shared with the metrics leave padding to callers.
"""

from dataclasses import dataclass

import numpy as np

from .image import Image


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


def _box_mean(arr: np.ndarray, radius: int, out: np.ndarray = None, integral: np.ndarray = None) -> np.ndarray:
    # Mean over (2r+1)^2 replicate-padded windows via an integral image.
    # Anchoring on the corner sample keeps constant regions exact: a flat
    # input yields all-zero window sums instead of cancellation residue.
    # One buffer of shape (h+k, w+k[, c]) holds the integral image: its lead
    # row and column are zero, the body takes the anchored input plus a
    # replicate border, and both prefix sums and the corner combination run
    # in place.  Callers may pass that buffer and the output; ``out`` may
    # alias ``arr``, so the anchor is copied before anything is written.
    anchor = arr[0:1, 0:1].copy()
    k = 2 * radius + 1
    h, w = arr.shape[:2]
    s = np.empty((h + k, w + k) + arr.shape[2:]) if integral is None else integral
    s[0] = 0.0
    s[:, 0] = 0.0
    body = s[1:, 1:]
    np.subtract(arr, anchor, out=body[radius:radius + h, radius:radius + w])
    body[radius:radius + h, :radius] = body[radius:radius + h, radius:radius + 1]
    body[radius:radius + h, radius + w:] = body[radius:radius + h, radius + w - 1:radius + w]
    body[:radius] = body[radius]
    body[radius + h:] = body[radius + h - 1]
    # Vertical prefix sum as a sweep over whole rows.  numpy's axis-0
    # accumulate walks each column with a stride of one full row; the sweep
    # adds contiguous rows instead.  It performs the same sequential
    # additions, so it is bitwise cumsum(axis=0).
    for i in range(1, body.shape[0]):
        body[i] += body[i - 1]
    np.cumsum(body, axis=1, out=body)
    out = np.subtract(s[k:k + h, k:k + w], s[:h, k:k + w], out=out)
    out -= s[k:k + h, :w]
    out += s[:h, :w]
    out /= k * k
    out += anchor
    return out


def _single_plane(img: Image, op: str) -> np.ndarray:
    if img.channels != 1:
        raise ValueError(f"{op} requires a single-channel image, got {img.channels} channels")
    return img.plane()


def box_mean(img: Image, radius: int) -> Image:
    """Arithmetic mean over (2r+1)^2 replicate-padded windows, per channel.

    Runtime is independent of the radius (running sums, not a window loop).
    """
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    return Image(_box_mean(img.data, radius), img.max_val)


def _gaussian_kernel_1d(radius: int, sigma: float) -> np.ndarray:
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(t * t) / (2.0 * sigma * sigma))
    return k / k.sum()


# Output rows per strip of the strip-wise kernels.  A strip of a 2048-wide
# plane and its scratch stay in cache across all the taps.  The 11-tap
# correlation of a 2048^2 output (one Xeon core, numpy 2.4.6) measured
# 121 ms in strips of 16 rows, 126 ms in strips of 8, 136 ms in strips of
# 32, 198 ms in strips of 128 and 273 ms in whole-plane passes.
_STRIP_ROWS = 16


def _strips(height: int):
    # Row slices of at most _STRIP_ROWS rows that cover ``height`` rows.
    return (slice(i, min(i + _STRIP_ROWS, height)) for i in range(0, height, _STRIP_ROWS))


def _valid_correlate_sep(arr: np.ndarray, kernel: np.ndarray, out: np.ndarray = None,
                         scratch: np.ndarray = None) -> np.ndarray:
    # Separable valid-mode correlation over the two spatial axes; the output
    # shrinks by 2*radius per axis.  It runs one strip of output rows at a
    # time: the row pass sums the weighted taps into the first scratch
    # strip, then the column pass sums into the matching rows of ``out``,
    # with the second scratch strip holding each weighted tap.  Both sums
    # start from zero and add the taps in kernel order, so every sample is
    # the same as from whole-plane passes.  ``scratch`` is an optional
    # (2, >= _STRIP_ROWS) + arr.shape[1:] buffer.
    radius = len(kernel) // 2
    h, w = arr.shape[:2]
    oh, ow = h - 2 * radius, w - 2 * radius
    if out is None:
        out = np.empty((oh, ow) + arr.shape[2:])
    if scratch is None:
        scratch = np.empty((2, min(oh, _STRIP_ROWS)) + arr.shape[1:])
    for rows in _strips(oh):
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
    np.add(padded[:-2, 1:-1], padded[2:, 1:-1], out=out)
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
    dx = np.subtract(plane[1:-1, 2:], plane[1:-1, :-2], out=out)
    dx *= 0.5
    dy = np.subtract(plane[2:, 1:-1], plane[:-2, 1:-1], out=tmp)
    dy *= 0.5
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def gradient_magnitude(img: Image) -> Image:
    """Per-pixel sqrt(dx^2 + dy^2) with central differences, replicated borders."""
    plane = _single_plane(img, "gradient_magnitude")
    return Image(_gradient_magnitude(np.pad(plane, 1, mode="edge")), img.max_val)


def _fit_workspace(shape: tuple, radius: int) -> tuple:
    # Scratch for one buffered fit at a time: four planes, an integral-image
    # buffer sized for the radius, and a mask.
    h, w = shape
    k = 2 * radius + 1
    return [np.empty(shape) for _ in range(4)], np.empty((h + k, w + k)), np.empty(shape, dtype=bool)


def _edge_regularizer(guide_plane: np.ndarray, params: FilterParams, out: np.ndarray,
                      tmp: np.ndarray, integral: np.ndarray) -> np.ndarray:
    # alpha * window mean of |grad|^(2 - beta), written into ``out``.  The
    # replicate-padded guide lives in the integral buffer until the gradient
    # is taken.  Clamped so rounding residue in the box filter can never
    # push the slope denominator below the variance term.
    h, w = guide_plane.shape
    padded = integral[:h + 2, :w + 2]
    padded[1:-1, 1:-1] = guide_plane
    padded[0, 1:-1] = guide_plane[0]
    padded[-1, 1:-1] = guide_plane[-1]
    padded[:, 0] = padded[:, 1]
    padded[:, -1] = padded[:, -2]
    grad = _gradient_magnitude(padded, out=out, tmp=tmp)
    grad **= 2.0 - params.beta  # numpy's scalar-power fast path, as grad ** (2 - beta)
    _box_mean(grad, params.radius, out=grad, integral=integral)
    grad *= params.alpha
    return np.maximum(grad, 0.0, out=grad)


def _linear_fit(pp: np.ndarray, gg: np.ndarray, params: FilterParams, work: tuple) -> tuple[np.ndarray, np.ndarray]:
    # Per-window a = cov(gg, pp) / (var(gg) + edge regularizer of gg), or 0
    # where the denominator is 0, and b = mean(pp) - a * mean(gg).  Passing
    # one array as both arguments reuses the variance as the covariance.
    # Every plane lives in ``work`` (from _fit_workspace); slope and
    # intercept are returned as two of its planes.
    (p0, p1, p2, p3), integral, mask = work
    r = params.radius
    h, w = gg.shape
    denom = _edge_regularizer(gg, params, out=p0, tmp=p1, integral=integral)
    mean_g = _box_mean(gg, r, out=p1, integral=integral)
    var_g = _box_mean(np.multiply(gg, gg, out=p2), r, out=p2, integral=integral)
    var_g -= np.multiply(mean_g, mean_g, out=p3)
    np.maximum(var_g, 0.0, out=var_g)
    denom += var_g
    if pp is gg:
        mean_p, cov = mean_g, var_g
    else:
        mean_p = _box_mean(pp, r, out=p3, integral=integral)
        cov = _box_mean(np.multiply(gg, pp, out=p2), r, out=p2, integral=integral)
        cov -= np.multiply(mean_g, mean_p, out=integral[:h, :w])
    np.greater(denom, 0.0, out=mask)
    slope = np.divide(cov, denom, out=cov, where=mask)
    np.logical_not(mask, out=mask)
    np.copyto(slope, 0.0, where=mask)
    intercept = np.multiply(slope, mean_g, out=denom)
    return slope, np.subtract(mean_p, intercept, out=intercept)


def _guided_fit(out: np.ndarray, pp: np.ndarray, gg: np.ndarray, params: FilterParams, work: tuple) -> np.ndarray:
    # box_mean(slope) * gg + box_mean(intercept), written into ``out``.
    slope, intercept = _linear_fit(pp, gg, params, work)
    integral = work[1]
    np.multiply(_box_mean(slope, params.radius, out=slope, integral=integral), gg, out=out)
    out += _box_mean(intercept, params.radius, out=intercept, integral=integral)
    return out


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
    lies in [0, 1].
    """
    plane = _single_plane(img, "lep_filter")
    slope, intercept = _linear_fit(plane, plane, params, _fit_workspace(plane.shape, params.radius))
    slope_mean = _box_mean(slope, params.radius)
    intercept_mean = _box_mean(intercept, params.radius)
    out = slope_mean * plane + intercept_mean
    coeffs = CoeffMaps(
        slope=Image(slope, 1.0),
        intercept=Image(intercept, img.max_val),
        slope_mean=Image(slope_mean, 1.0),
        intercept_mean=Image(intercept_mean, img.max_val),
    )
    return Image(out, img.max_val), coeffs


def _guided_planes(p: Image, guide: Image) -> tuple[np.ndarray, np.ndarray]:
    # The input and guide planes of a guided fit, checked.
    pp = _single_plane(p, "lep_filter_guided")
    gg = _single_plane(guide, "lep_filter_guided")
    if pp.shape != gg.shape:
        raise ValueError(
            f"input and guide dimensions differ: {pp.shape} vs {gg.shape}"
        )
    return pp, gg


def _guided_params(radius: int, epsilon: float) -> FilterParams:
    # The classic guided filter as the beta = 2 fit, arguments checked.
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return FilterParams(radius, epsilon, beta=2.0)


def lep_filter_guided(p: Image, guide: Image, params: FilterParams) -> Image:
    """Edge-preserving filtering of ``p`` steered by a guidance image.

    The per-window linear model is fit from the guide to ``p``
    (a = cov(guide, p) / (var(guide) + regularizer)), with the gradient
    regularizer taken from the guide so edge preservation follows the
    guide's structure.  With ``guide is p`` this reduces to lep_filter.
    """
    pp, gg = _guided_planes(p, guide)
    out = np.empty(pp.shape)
    return Image(_guided_fit(out, pp, gg, params, _fit_workspace(pp.shape, params.radius)), p.max_val)


def guided_filter(p: Image, guide: Image, radius: int, epsilon: float) -> Image:
    """Classic guided filter: a = cov(guide, p) / (var(guide) + epsilon).

    This is lep_filter_guided at beta = 2, where the gradient regularizer
    is the constant alpha = epsilon.  Kept as the constant-regularizer
    baseline; it smooths edges that the gradient-adaptive variant preserves.
    """
    return lep_filter_guided(p, guide, _guided_params(radius, epsilon))
