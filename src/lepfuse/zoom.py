"""Bilinear resizing and crop-then-zoom.

Coordinates use the pixel-center convention: sample (x, y) = (j, i) is the
center of pixel (i, j), so the valid domain is [0, width-1] x [0, height-1].
Resizing maps output corners onto input corners, which keeps corner samples
exact and makes small hand-checkable cases (1x2 -> 1x3) come out in closed
form.
"""

from dataclasses import dataclass

import numpy as np

from .image import Image, Rect, crop


@dataclass(frozen=True)
class ZoomSpec:
    """Crop region plus per-axis magnification factor."""

    region: Rect
    scale: float

    def __post_init__(self):
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError(f"scale must be positive, got {self.scale}")


def _axis_taps(out_size: int, in_size: int) -> tuple:
    # The two input indices each output sample of one axis interpolates
    # between, and its fraction of the way from the first to the second.
    # Corner-aligned: the first output sample sits at 0, the last at
    # in_size - 1, exactly.
    coords = np.zeros(1) if out_size == 1 else np.linspace(0.0, float(in_size - 1), out_size)
    if in_size == 1:
        i0 = np.zeros(out_size, dtype=np.intp)
    else:
        i0 = np.minimum(np.floor(coords).astype(np.intp), in_size - 2)
    return i0, np.minimum(i0 + 1, in_size - 1), coords - i0


def resize_bilinear(img: Image, out_w: int, out_h: int) -> Image:
    """Resize by bilinear interpolation with corner-aligned sampling.

    Separable: the x pass runs once on every input row, and the y pass
    blends the rows it gathers, so each sample is (1 - fy) * top +
    fy * bottom of the x pass's (1 - fx) * left + fx * right.
    """
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output dimensions must be >= 1, got {out_w}x{out_h}")
    x0, x1, fx = _axis_taps(out_w, img.width)
    y0, y1, fy = _axis_taps(out_h, img.height)
    fx, fy = fx[:, np.newaxis], fy[:, np.newaxis, np.newaxis]
    across = (1.0 - fx) * img.data[:, x0]
    across += fx * img.data[:, x1]
    out = (1.0 - fy) * across[y0]
    out += fy * across[y1]
    return Image._adopt(out, img.max_val)


def zoom_region(img: Image, spec: ZoomSpec) -> Image:
    """Crop a region and magnify it by the spec's scale factor.

    Output dimensions are the region dimensions times the scale, rounded
    half-up, never below 1.
    """
    region = crop(img, spec.region)
    out_w, out_h = map(int, _zoomed_size(spec))
    return resize_bilinear(region, out_w, out_h)


def _zoomed_size(spec: ZoomSpec) -> tuple:
    # zoom_region's output width and height, as floats, which are inf when
    # the scale overflows them.
    return tuple(max(1.0, float(np.floor(n * spec.scale + 0.5))) for n in (spec.region.width, spec.region.height))
