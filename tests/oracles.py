"""Brute-force reference implementations.

Everything here trades speed for obviousness: explicit window loops,
normal equations solved per window, no integral images, no separability
tricks.  The fast library kernels are validated against these.  Two
straightforward vectorized window kernels (a padded-copy integral image
and a tap-by-tap separable correlation) and the local linear fit written
with one fresh array per step pin the in-place library kernels bit for
bit, since both perform the same floating-point operations; so do the
whole-plane saliency, binary weight maps and weight normalization, which
pin their strip-wise library forms.  The
image helpers at the end (constant images, replicate padding, single-point
bilinear sampling) serve only the tests.
"""

import numpy as np

from lepfuse import Image


def naive_box_mean(plane: np.ndarray, radius: int) -> np.ndarray:
    """Window average via an explicit per-pixel loop over padded windows."""
    h, w = plane.shape
    k = 2 * radius + 1
    padded = np.pad(plane, radius, mode="edge")
    out = np.empty((h, w), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            out[i, j] = padded[i:i + k, j:j + k].mean()
    return out


def naive_gaussian(plane: np.ndarray, radius: int, sigma: float) -> np.ndarray:
    """Direct 2-D convolution with an explicitly normalized Gaussian kernel."""
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(t * t) / (2.0 * sigma * sigma))
    kernel = np.outer(k1, k1)
    kernel /= kernel.sum()
    h, w = plane.shape
    k = 2 * radius + 1
    padded = np.pad(plane, radius, mode="edge")
    out = np.empty((h, w), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            out[i, j] = (padded[i:i + k, j:j + k] * kernel).sum()
    return out


def reference_box_mean(arr: np.ndarray, radius: int) -> np.ndarray:
    """Anchored integral-image window mean written with padded copies.

    Same arithmetic as the library's in-place kernel: subtract the corner
    sample, edge-pad, cumsum down then across, prepend a zero row and
    column, and combine the four corners as ((A - B) - C) + D.
    """
    anchor = arr[0:1, 0:1]
    k = 2 * radius + 1
    spatial = [(radius, radius), (radius, radius)] + [(0, 0)] * (arr.ndim - 2)
    lead = [(1, 0), (1, 0)] + [(0, 0)] * (arr.ndim - 2)
    s = np.pad(np.pad(arr - anchor, spatial, mode="edge").cumsum(axis=0).cumsum(axis=1), lead)
    h, w = arr.shape[:2]
    return (s[k:k + h, k:k + w] - s[:h, k:k + w] - s[k:k + h, :w] + s[:h, :w]) / (k * k) + anchor


def reference_valid_correlate_sep(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Valid-mode separable correlation, one fresh weighted product per tap."""
    radius = len(kernel) // 2
    h, w = arr.shape[:2]
    rows = np.zeros((h - 2 * radius,) + arr.shape[1:])
    for t, weight in enumerate(kernel):
        rows += weight * arr[t:t + h - 2 * radius]
    out = np.zeros((h - 2 * radius, w - 2 * radius) + arr.shape[2:])
    for t, weight in enumerate(kernel):
        out += weight * rows[:, t:t + w - 2 * radius]
    return out


def reference_ssim(pa: np.ndarray, pb: np.ndarray, max_val: float) -> float:
    """metrics.ssim's formula over reference_valid_correlate_sep, so it
    pins the strip-wise correlation inside ssim bit for bit."""
    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2
    t = np.arange(-5, 6, dtype=np.float64)
    kernel = np.exp(-(t * t) / (2.0 * 1.5 * 1.5))
    kernel /= kernel.sum()
    mu_a = reference_valid_correlate_sep(pa, kernel)
    mu_b = reference_valid_correlate_sep(pb, kernel)
    var_a = reference_valid_correlate_sep(pa * pa, kernel) - mu_a * mu_a
    var_b = reference_valid_correlate_sep(pb * pb, kernel) - mu_b * mu_b
    cov_ab = reference_valid_correlate_sep(pa * pb, kernel) - mu_a * mu_b
    score = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov_ab + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(np.mean(score))


def reference_edge_regularizer(guide: np.ndarray, radius: int, alpha: float, beta: float) -> np.ndarray:
    """alpha * window mean of |grad|^(2 - beta), one fresh array per step."""
    padded = np.pad(guide, 1, mode="edge")
    dx = (padded[1:-1, 2:] - padded[1:-1, :-2]) * 0.5
    dy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) * 0.5
    grad = np.sqrt(dx * dx + dy * dy)
    return np.maximum(alpha * reference_box_mean(grad ** (2.0 - beta), radius), 0.0)


def reference_linear_fit(pp: np.ndarray, gg: np.ndarray, radius: int, alpha: float, beta: float):
    """Slope and intercept of the local linear fit, one fresh array per step.

    Same arithmetic as the library's buffered fit core, so the two agree
    bit for bit.  ``pp is gg`` reuses the variance as the covariance.
    """
    mean_g = reference_box_mean(gg, radius)
    var_g = np.maximum(reference_box_mean(gg * gg, radius) - mean_g * mean_g, 0.0)
    if pp is gg:
        mean_p, cov = mean_g, var_g
    else:
        mean_p = reference_box_mean(pp, radius)
        cov = reference_box_mean(gg * pp, radius) - mean_g * mean_p
    denom = var_g + reference_edge_regularizer(gg, radius, alpha, beta)
    slope = np.divide(cov, denom, out=np.zeros_like(cov), where=denom > 0.0)
    return slope, mean_p - slope * mean_g


def reference_lep_filter_guided(pp: np.ndarray, gg: np.ndarray, radius: int, alpha: float, beta: float):
    """Guided fit output box_mean(slope) * gg + box_mean(intercept)."""
    slope, intercept = reference_linear_fit(pp, gg, radius, alpha, beta)
    return reference_box_mean(slope, radius) * gg + reference_box_mean(intercept, radius)


def reference_saliency(plane: np.ndarray, radius: int, sigma: float) -> np.ndarray:
    """Whole-plane saliency: edge-padded 4-neighbor Laplacian, abs, then the
    edge-padded Gaussian as a separable correlation, one fresh array per
    step.  Same arithmetic as the library's strip-wise saliency."""
    p = np.pad(plane, 1, mode="edge")
    response = np.abs(p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * plane)
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-(t * t) / (2.0 * sigma * sigma))
    kernel /= kernel.sum()
    return reference_valid_correlate_sep(np.pad(response, radius, mode="edge"), kernel)


def reference_normalize_weights(planes, weight_floor: float) -> list:
    """(map + floor) / axis-0 sum of the shifted maps, on whole planes."""
    shifted = [m + weight_floor for m in planes]
    total = np.sum(shifted, axis=0)
    return [s / total for s in shifted]


def reference_binary_weight_maps(planes) -> list:
    """Indicator planes of the per-pixel argmax over the stacked saliency
    planes (ties to the lowest index), one float64 plane per source."""
    winner = np.argmax(np.stack(planes, axis=0), axis=0)
    return [(winner == n).astype(np.float64) for n in range(len(planes))]


def naive_laplacian(plane: np.ndarray) -> np.ndarray:
    kernel = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
    h, w = plane.shape
    padded = np.pad(plane, 1, mode="edge")
    out = np.empty((h, w), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            out[i, j] = (padded[i:i + 3, j:j + 3] * kernel).sum()
    return out


def guide_gradient_power(guide: np.ndarray, beta: float) -> np.ndarray:
    """|central-difference gradient|^(2-beta) of the guide, replicate borders."""
    padded = np.pad(guide, 1, mode="edge")
    dx = (padded[1:-1, 2:] - padded[1:-1, :-2]) / 2.0
    dy = (padded[2:, 1:-1] - padded[:-2, 1:-1]) / 2.0
    return np.hypot(dx, dy) ** (2.0 - beta)


def lep_oracle(p: np.ndarray, guide: np.ndarray, radius: int, alpha: float, beta: float):
    """Edge-preserving filter by per-window ridge regression.

    For every window, the linear coefficients solve the 2x2 normal
    equations of  min_a,b  sum (a*g + b - p)^2 + n*reg*a^2,  which is the
    closed form a = cov(g,p)/(var(g) + reg) computed a completely
    different way (np.linalg.solve).  Windows that are flat with zero
    regularizer fall back to a = 0, b = window mean.  The per-pixel output
    averages the coefficients of every window covering the pixel, which
    under replicate padding equals a padded window mean of the coefficient
    maps.

    Returns (output, a_map, b_map).
    """
    h, w = p.shape
    k = 2 * radius + 1
    n = k * k
    padded_g = np.pad(guide, radius, mode="edge")
    padded_p = np.pad(p, radius, mode="edge")
    padded_r = np.pad(guide_gradient_power(guide, beta), radius, mode="edge")
    a = np.empty((h, w), dtype=np.float64)
    b = np.empty((h, w), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            gw = padded_g[i:i + k, j:j + k].ravel()
            pw = padded_p[i:i + k, j:j + k].ravel()
            reg = alpha * padded_r[i:i + k, j:j + k].mean()
            if gw.max() == gw.min() and reg == 0.0:
                a[i, j] = 0.0
                b[i, j] = pw.mean()
                continue
            lhs = np.array(
                [[gw @ gw + n * reg, gw.sum()], [gw.sum(), float(n)]]
            )
            rhs = np.array([gw @ pw, pw.sum()])
            a[i, j], b[i, j] = np.linalg.solve(lhs, rhs)
    out = naive_box_mean(a, radius) * guide + naive_box_mean(b, radius)
    return out, a, b


def window_has_gradient(grad_power: np.ndarray, radius: int) -> np.ndarray:
    """True where a window's regularizer term is mathematically nonzero.

    The term is a sum of non-negatives, so it is exactly zero iff every
    gradient sample in the (replicate-padded) window is zero.  Integer
    counting makes this decision exact, free of the float rounding the
    fast path is allowed to carry.
    """
    marker = (grad_power != 0.0).astype(np.int64)
    h, w = marker.shape
    k = 2 * radius + 1
    padded = np.pad(marker, radius, mode="edge")
    count = np.empty((h, w), dtype=np.int64)
    for i in range(h):
        for j in range(w):
            count[i, j] = padded[i:i + k, j:j + k].sum()
    return count > 0


def direct_ssim(pa: np.ndarray, pb: np.ndarray, max_val: float) -> float:
    """SSIM evaluated window by window with deviation-form statistics.

    Uses E[(x-mu)^2] instead of E[x^2]-mu^2 so the arithmetic differs from
    the library's separable-correlation path.
    """
    radius, sigma = 5, 1.5
    size = 2 * radius + 1
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(t * t) / (2.0 * sigma * sigma))
    mask = np.outer(k1, k1)
    mask /= mask.sum()
    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2
    h, w = pa.shape
    scores = []
    for i in range(h - size + 1):
        for j in range(w - size + 1):
            wa = pa[i:i + size, j:j + size]
            wb = pb[i:i + size, j:j + size]
            mu_a = (mask * wa).sum()
            mu_b = (mask * wb).sum()
            da = wa - mu_a
            db = wb - mu_b
            var_a = (mask * da * da).sum()
            var_b = (mask * db * db).sum()
            cov = (mask * da * db).sum()
            scores.append(
                ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2))
                / ((mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2))
            )
    return float(np.mean(scores))


def tensor_bilinear(data: np.ndarray, x: float, y: float) -> np.ndarray:
    """Bilinear sample as an explicit kernel-weighted sum over the 4 surrounding grid points."""
    def u(s):
        return max(0.0, 1.0 - abs(s))

    h, w = data.shape[:2]
    x0 = int(np.floor(x))
    y0 = int(np.floor(y))
    total = np.zeros(data.shape[2:], dtype=np.float64)
    for yk in (y0, y0 + 1):
        for xk in (x0, x0 + 1):
            if 0 <= xk < w and 0 <= yk < h:
                total = total + data[yk, xk] * u(x - xk) * u(y - yk)
    return total


def gathered_bilinear(data: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Corner-aligned bilinear resize of an (h, w, c) array, gathering the
    four corner samples of every output sample: (1 - fy) * top + fy *
    bottom, with top and bottom (1 - fx) * left + fx * right."""
    h, w = data.shape[:2]
    xs = np.zeros(1) if out_w == 1 else np.linspace(0.0, float(w - 1), out_w)
    ys = np.zeros(1) if out_h == 1 else np.linspace(0.0, float(h - 1), out_h)
    x0 = np.zeros(out_w, dtype=np.intp) if w == 1 else np.minimum(np.floor(xs).astype(np.intp), w - 2)
    y0 = np.zeros(out_h, dtype=np.intp) if h == 1 else np.minimum(np.floor(ys).astype(np.intp), h - 2)
    fx = (xs - x0)[np.newaxis, :, np.newaxis]
    fy = (ys - y0)[:, np.newaxis, np.newaxis]
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    top = (1.0 - fx) * data[y0[:, np.newaxis], x0] + fx * data[y0[:, np.newaxis], x1]
    bottom = (1.0 - fx) * data[y1[:, np.newaxis], x0] + fx * data[y1[:, np.newaxis], x1]
    return (1.0 - fy) * top + fy * bottom


def constant_image(height: int, width: int, channels: int, value: float,
                   max_val: float = 255.0) -> Image:
    """Image of the given shape with every sample equal to ``value``."""
    if height < 1 or width < 1:
        raise ValueError(f"dimensions must be positive, got {height}x{width}")
    if channels not in (1, 3):
        raise ValueError(f"channel count must be 1 or 3, got {channels}")
    if not np.isfinite(value):
        raise ValueError("value must be finite")
    return Image(np.full((height, width, channels), float(value)), max_val)


def pad_replicate(img: Image, margin: int) -> Image:
    """Extend the image by ``margin`` pixels on every side, repeating edge pixels."""
    if margin < 0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    if margin == 0:
        return Image(img.data, img.max_val)
    padded = np.pad(img.data, ((margin, margin), (margin, margin), (0, 0)), mode="edge")
    return Image(padded, img.max_val)


def bilinear_kernel(s: float) -> float:
    """Triangle kernel: 1 - |s| inside the unit cell, 0 at and beyond |s| = 1."""
    if not np.isfinite(s):
        raise ValueError(f"kernel argument must be finite, got {s}")
    return max(0.0, 1.0 - abs(s))


def _cell(coord: float, size: int) -> tuple[int, float]:
    # Left grid index and fractional offset; the last cell absorbs coord == size-1
    # so the offset stays in [0, 1] and grid points reproduce exactly.
    if size == 1:
        return 0, 0.0
    lo = min(int(np.floor(coord)), size - 2)
    return lo, coord - lo


def sample_bilinear(img: Image, x: float, y: float) -> np.ndarray:
    """Interpolated sample at (x, y), one value per channel.

    The value is the convex combination of the four surrounding grid
    samples with triangle-kernel weights, evaluated as two horizontal
    interpolations followed by one vertical.  Integer coordinates return
    stored samples exactly.
    """
    if not (np.isfinite(x) and np.isfinite(y)):
        raise ValueError(f"sample coordinates must be finite, got ({x}, {y})")
    if not (0.0 <= x <= img.width - 1 and 0.0 <= y <= img.height - 1):
        raise IndexError(
            f"sample point ({x}, {y}) outside domain "
            f"[0, {img.width - 1}] x [0, {img.height - 1}]"
        )
    x0, fx = _cell(x, img.width)
    y0, fy = _cell(y, img.height)
    x1 = min(x0 + 1, img.width - 1)
    y1 = min(y0 + 1, img.height - 1)
    top = (1.0 - fx) * img.data[y0, x0] + fx * img.data[y0, x1]
    bottom = (1.0 - fx) * img.data[y1, x0] + fx * img.data[y1, x1]
    return (1.0 - fy) * top + fy * bottom
