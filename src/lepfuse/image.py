"""Image value type and basic geometry: cropping, luminance.

Every public operation is pure: inputs are never mutated and pixel data of
returned images is read-only.  ``read_image`` keeps the decoded uint8
samples; every other image holds float64.  Each operation widens uint8
samples to float64 as it reads them, so its result bits do not depend on
which of the two an image holds.  Quantization to integers happens only
when a file is written.
"""

from dataclasses import dataclass

import numpy as np

BT601_WEIGHTS = (0.299, 0.587, 0.114)
# Rows per strip of every strip-wise pass: the window kernels, luminance,
# encoding and the fusion stages.  A strip of a 2048-wide plane and its
# scratch stay in cache across all the taps.  The 11-tap correlation of a
# 2048^2 output (one Xeon core, numpy 2.4.6) measured 121 ms in strips of
# 16 rows, 126 ms in strips of 8, 136 ms in strips of 32, 198 ms in strips
# of 128 and 273 ms in whole-plane passes.
_STRIP_ROWS = 16


@dataclass(frozen=True, eq=False)
class Image:
    """An H x W x C raster of real-valued samples with a declared range.

    ``data`` is an (H, W, C) array with C in {1, 3}; 2-D input is accepted
    and lifted to a single channel.  ``Image(...)`` copies its input to
    float64; only ``read_image`` returns uint8 data.  ``max_val`` declares
    the nominal [0, max_val] range used for quantization and PSNR;
    intermediate results (detail layers, filter overshoot) may fall
    outside it.
    """

    data: np.ndarray
    max_val: float = 255.0

    def __post_init__(self):
        self._own(np.array(self.data, dtype=np.float64, copy=True, order="C"))

    @classmethod
    def _adopt(cls, arr: np.ndarray, max_val: float) -> "Image":
        # Wraps a float64 or uint8, C-contiguous array that the library
        # allocated and no longer writes, without the copy; every other
        # check still runs.
        if arr.dtype not in (np.float64, np.uint8) or not arr.flags.c_contiguous:
            raise ValueError("only float64 or uint8, C-contiguous arrays can be adopted")
        img = object.__new__(cls)
        object.__setattr__(img, "max_val", max_val)
        img._own(arr)
        return img

    def _own(self, arr: np.ndarray) -> None:
        # Checks ``arr``, freezes it and makes it this image's data.
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3:
            raise ValueError(f"image data must be 2-D or 3-D, got ndim={arr.ndim}")
        h, w, c = arr.shape
        if h < 1 or w < 1:
            raise ValueError(f"image dimensions must be positive, got {h}x{w}")
        if c not in (1, 3):
            raise ValueError(f"channel count must be 1 or 3, got {c}")
        finite = arr.dtype == np.uint8 or np.isfinite(arr.min()) and np.isfinite(arr.max())  # NaN propagates
        if not finite:
            raise ValueError("image samples must be finite")
        if not (np.isfinite(self.max_val) and self.max_val > 0):
            raise ValueError(f"max_val must be positive and finite, got {self.max_val}")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "max_val", float(self.max_val))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]

    def plane(self, channel: int = 0) -> np.ndarray:
        """Read-only 2-D view of one channel."""
        return self.data[:, :, channel]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned crop region: origin (x0, y0), positive width and height."""

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self):
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError(f"rect origin must be non-negative, got ({self.x0}, {self.y0})")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"rect dimensions must be positive, got {self.width}x{self.height}")


def crop(img: Image, region: Rect) -> Image:
    """Extract ``region`` from ``img``, bit-exact.

    Raises IndexError if the region does not lie inside the image.
    """
    _check_inside(img, region)
    return Image(
        img.data[region.y0:region.y0 + region.height, region.x0:region.x0 + region.width],
        img.max_val,
    )


def _check_inside(img: Image, region: Rect) -> None:
    if region.x0 + region.width > img.width or region.y0 + region.height > img.height:
        raise IndexError(f"rect {region} out of bounds for {img.width}x{img.height} image")


def rgb_to_luma(img: Image) -> Image:
    """BT.601 luminance of a 3-channel image.

    Output is clamped to the observed sample range of the input so the
    weighted sum cannot escape it by rounding (the weights sum to one).
    """
    if img.channels != 3:
        raise ValueError(f"rgb_to_luma requires 3 channels, got {img.channels}")
    data = img.data
    return Image._adopt(_rgb_to_luma(data, np.empty(data.shape[:2]), data.min(), data.max()), img.max_val)


def _rgb_to_luma(data: np.ndarray, luma: np.ndarray, lo, hi) -> np.ndarray:
    # (wr * R + wg * G) + wb * B of an (h, w, 3) array, built in the float64
    # (h, w) plane ``luma``, which may be a view, a strip of rows at a time
    # through one strip of scratch, then clamped in place to [lo, hi], the
    # sample range of the whole image.  Each sample depends only on its
    # pixel and the range, so any rows of an image can be built alone.
    wr, wg, wb = BT601_WEIGHTS
    tmp = np.empty((min(len(luma), _STRIP_ROWS), luma.shape[1]))
    for start in range(0, len(luma), _STRIP_ROWS):
        block, out = data[start:start + _STRIP_ROWS], luma[start:start + _STRIP_ROWS]
        t = tmp[:len(out)]
        np.multiply(block[:, :, 0], wr, out=out)
        out += np.multiply(block[:, :, 1], wg, out=t)
        out += np.multiply(block[:, :, 2], wb, out=t)
    return np.clip(luma, lo, hi, out=luma)


def _luma(img: Image) -> Image:
    # Luminance of a color image; single-channel images pass through.
    return rgb_to_luma(img) if img.channels == 3 else img


class _Luma:
    # The luminance of an (h, w, 3) array as a plane that is built for the
    # rows asked for: ``luma[rows]`` for a slice of at most ``keep`` rows,
    # each sample rgb_to_luma's, and ``shape`` (h, w).  The last rows built
    # are kept, up to 2 * keep, so a row asked for again within ``keep``
    # rows of the last row built is built once.  A read returns rows that
    # later reads may overwrite.
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


def _luma_rows(img: Image, keep: int):
    # The luminance of ``img`` for reads of rows: its plane if gray, else a
    # _Luma that keeps ``keep`` rows, so no luminance plane is held.
    return img.plane() if img.channels == 1 else _Luma(img.data, keep)
