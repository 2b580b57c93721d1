"""Image quality metrics: PSNR, SSIM, sharpness, naturalness.

PSNR and SSIM are full-reference; sharpness and naturalness need no
reference.  Naturalness here is an explicitly labeled proxy scoring the
global mean and contrast against mid-tone priors; the priors are exposed
so calibrated statistics can be substituted.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .filters import _STRIP_ROWS, _gaussian_kernel_1d, _gradient_magnitude, _single_plane, _strips, _valid_correlate_sep
from .image import Image, _luma, _luma_rows

SSIM_WINDOW_RADIUS = 5
SSIM_SIGMA = 1.5


@dataclass(frozen=True)
class NaturalnessPriors:
    """Target global mean/std and their tolerances for the naturalness score.

    Defaults favor mid-tone, moderate-contrast 8-bit imagery: both factors
    peak at 1 when the image statistics hit the priors and decay smoothly
    as they drift.
    """

    mean_prior: float = 115.0
    mean_tol: float = 40.0
    std_prior: float = 28.0
    std_tol: float = 15.0

    def __post_init__(self):
        if not (np.isfinite(self.mean_tol) and self.mean_tol > 0.0):
            raise ValueError(f"mean_tol must be positive, got {self.mean_tol}")
        if not (np.isfinite(self.std_tol) and self.std_tol > 0.0):
            raise ValueError(f"std_tol must be positive, got {self.std_tol}")


@dataclass(frozen=True)
class MetricsReport:
    """Metric bundle for one image, optionally scored against a reference.

    ``psnr`` and ``ssim`` are None when no reference was supplied; a psnr
    of math.inf marks identical images and serializes as "inf".
    """

    sharpness: float
    naturalness: float
    psnr: Optional[float] = None
    ssim: Optional[float] = None

    @staticmethod
    def _fmt(value: float) -> str:
        return "inf" if math.isinf(value) else f"{value:.6f}"

    def to_lines(self) -> list[str]:
        """key=value lines in fixed order, reference metrics first."""
        lines = []
        if self.psnr is not None:
            lines.append(f"psnr={self._fmt(self.psnr)}")
        if self.ssim is not None:
            lines.append(f"ssim={self._fmt(self.ssim)}")
        lines.append(f"sharpness={self._fmt(self.sharpness)}")
        lines.append(f"naturalness={self._fmt(self.naturalness)}")
        return lines

    @staticmethod
    def csv_header() -> str:
        return "sharpness,naturalness,psnr,ssim"

    def csv_row(self) -> str:
        cells = [self._fmt(self.sharpness), self._fmt(self.naturalness)]
        cells.append("" if self.psnr is None else self._fmt(self.psnr))
        cells.append("" if self.ssim is None else self._fmt(self.ssim))
        return ",".join(cells)


def _check_same_shape(a: Image, b: Image, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ValueError(
            f"{op} requires identical dimensions, got {a.data.shape} vs {b.data.shape}"
        )


def psnr(a: Image, b: Image, max_val: float = None) -> float:
    """Peak signal-to-noise ratio in dB; math.inf for identical images."""
    _check_same_shape(a, b, "psnr")
    if max_val is None:
        max_val = a.max_val
    if not (np.isfinite(max_val) and max_val > 0.0):
        raise ValueError(f"max_val must be positive, got {max_val}")
    diff = np.subtract(a.data, b.data, dtype=np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(max_val * max_val / mse)


def ssim(a: Image, b: Image, max_val: float = None) -> float:
    """Mean structural similarity over 11x11 Gaussian-weighted windows.

    Windows are fully interior (valid mode, no padding), weighted by a
    sigma-1.5 Gaussian; stabilizing constants are (0.01*max_val)^2 and
    (0.03*max_val)^2.  Identical inputs score exactly 1.
    """
    _check_same_shape(a, b, "ssim")
    if a.channels != 1:
        raise ValueError(f"ssim requires single-channel images, got {a.channels} channels")
    size = 2 * SSIM_WINDOW_RADIUS + 1
    if a.height < size or a.width < size:
        raise ValueError(
            f"ssim requires images at least {size}x{size}, got {a.height}x{a.width}"
        )
    if max_val is None:
        max_val = a.max_val
    if not (np.isfinite(max_val) and max_val > 0.0):
        raise ValueError(f"max_val must be positive, got {max_val}")
    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2
    kernel = _gaussian_kernel_1d(SSIM_WINDOW_RADIUS, SSIM_SIGMA)
    pa = a.plane().astype(np.float64, copy=False)
    pb = b.plane().astype(np.float64, copy=False)
    mu_a = _valid_correlate_sep(pa, kernel)
    mu_b = _valid_correlate_sep(pb, kernel)
    var_a = _valid_correlate_sep(pa * pa, kernel) - mu_a * mu_a
    var_b = _valid_correlate_sep(pb * pb, kernel) - mu_b * mu_b
    cov_ab = _valid_correlate_sep(pa * pb, kernel) - mu_a * mu_b
    score = ((2.0 * mu_a * mu_b + c1) * (2.0 * cov_ab + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(np.mean(score))


_LEAF = 1 << 12  # values per leaf of _pairwise_sum, which one np.add.reduce sums


def _pairwise_sum(chunks, count: int) -> float:
    # The sum of ``count`` float64 values that arrive in order as the flat
    # arrays ``chunks``, bit for bit as np.add.reduce over one C-contiguous
    # array of them.  numpy sums pairwise: a range of more than 128 values
    # splits at half its length, rounded down to a multiple of 8, as ranges
    # of at most _LEAF do within the one np.add.reduce that sums each.
    chunks, rest, buf = iter(chunks), np.empty(0), np.empty(min(count, _LEAF))

    def total(n):
        nonlocal rest
        if n > _LEAF:
            half = n // 2 - n // 2 % 8
            return total(half) + total(n - half)
        if not len(rest):
            rest = next(chunks)
        if len(rest) >= n:
            leaf, rest = rest[:n], rest[n:]
            return np.add.reduce(leaf)
        held = 0
        while held < n:
            if not len(rest):
                rest = next(chunks)
            k = min(n - held, len(rest))
            buf[held:held + k] = rest[:k]
            rest, held = rest[k:], held + k
        return np.add.reduce(buf[:n])

    return float(total(count))


def _sharpness(plane, h: int, w: int) -> float:
    # sharpness of an (h, w) plane read as plane[rows] for slices of rows,
    # in strips of 8 rows, which with numpy's 128 KiB of buffers for a
    # difference of two row views hold under a tenth of a 512^2 plane.
    if h < 3 or w < 3:
        return 0.0
    magnitudes, tmp = np.empty((2, min(h - 2, _STRIP_ROWS // 2), w - 2))

    def strips():
        for rows in _strips(h - 2, _STRIP_ROWS // 2):
            n = rows.stop - rows.start
            yield _gradient_magnitude(plane[rows.start:rows.stop + 2], out=magnitudes[:n], tmp=tmp[:n]).ravel()

    return _pairwise_sum(strips(), (h - 2) * (w - 2)) / ((h - 2) * (w - 2))


def sharpness(img: Image) -> float:
    """Mean central-difference gradient magnitude over interior pixels.

    Images without interior pixels (either dimension < 3) score 0.  The
    magnitudes are built and summed strip by strip, bit for bit as
    np.mean of the whole plane of them, so the scratch is one strip.
    """
    return _sharpness(_single_plane(img, "sharpness"), img.height, img.width)


def _naturalness(plane, h: int, w: int, priors: NaturalnessPriors) -> float:
    # naturalness of an (h, w) plane read as plane[rows] for slices of
    # rows, with np.mean's and np.std's bits: the samples, then their
    # squared deviations from the mean, are summed strip by strip.
    count, scratch = h * w, np.empty((min(h, _STRIP_ROWS), w))

    def strips(mean=None):
        for rows in _strips(h):
            strip = scratch[:rows.stop - rows.start]
            np.copyto(strip, plane[rows])
            if mean is not None:
                strip -= mean
                strip *= strip
            yield strip.ravel()

    mu = _pairwise_sum(strips(), count) / count
    sd = math.sqrt(_pairwise_sum(strips(mu), count) / count)
    return (math.exp(-((mu - priors.mean_prior) ** 2) / (2.0 * priors.mean_tol ** 2))
            * math.exp(-((sd - priors.std_prior) ** 2) / (2.0 * priors.std_tol ** 2)))


def naturalness(img: Image, priors: NaturalnessPriors = NaturalnessPriors()) -> float:
    """Product of Gaussian scores of the global mean and std against priors.

    Always in [0, 1]; depends on the image only through (mean, std), which
    are np.mean's and np.std's, summed strip by strip.
    """
    if img.channels != 1:
        raise ValueError(f"naturalness requires a single-channel image, got {img.channels} channels")
    return _naturalness(img.plane(), img.height, img.width, priors)


def report(
    fused: Image,
    reference: Optional[Image] = None,
    priors: NaturalnessPriors = NaturalnessPriors(),
) -> MetricsReport:
    """All applicable metrics for an image.

    PSNR runs on all samples; SSIM, sharpness, and naturalness run on
    luminance for color inputs.  Without a reference only the no-reference
    metrics are populated.
    """
    rows = _luma_rows(fused, _STRIP_ROWS + 2)  # a colour image's luminance, built for the rows read
    result_sharpness = _sharpness(rows, fused.height, fused.width)
    result_naturalness = _naturalness(rows, fused.height, fused.width, priors)
    if reference is None:
        return MetricsReport(sharpness=result_sharpness, naturalness=result_naturalness)
    _check_same_shape(fused, reference, "report")
    return MetricsReport(
        sharpness=result_sharpness,
        naturalness=result_naturalness,
        psnr=psnr(fused, reference, fused.max_val),
        ssim=ssim(_luma(fused), _luma(reference), fused.max_val),
    )
