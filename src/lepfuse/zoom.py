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


def _axis_coords(out_size: int, in_size: int) -> np.ndarray:
    # Corner-aligned: first output sample at 0, last at in_size - 1, exactly.
    if out_size == 1:
        return np.zeros(1)
    return np.linspace(0.0, float(in_size - 1), out_size)


def resize_bilinear(img: Image, out_w: int, out_h: int) -> Image:
    """Resize by bilinear interpolation with corner-aligned sampling."""
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output dimensions must be >= 1, got {out_w}x{out_h}")
    xs = _axis_coords(out_w, img.width)
    ys = _axis_coords(out_h, img.height)
    if img.width == 1:
        x0 = np.zeros(out_w, dtype=np.intp)
    else:
        x0 = np.minimum(np.floor(xs).astype(np.intp), img.width - 2)
    if img.height == 1:
        y0 = np.zeros(out_h, dtype=np.intp)
    else:
        y0 = np.minimum(np.floor(ys).astype(np.intp), img.height - 2)
    fx = (xs - x0)[np.newaxis, :, np.newaxis]
    fy = (ys - y0)[:, np.newaxis, np.newaxis]
    x1 = np.minimum(x0 + 1, img.width - 1)
    y1 = np.minimum(y0 + 1, img.height - 1)

    rows0 = img.data[y0[:, np.newaxis], x0[np.newaxis, :]]
    rows1 = img.data[y0[:, np.newaxis], x1[np.newaxis, :]]
    top = (1.0 - fx) * rows0 + fx * rows1
    rows0 = img.data[y1[:, np.newaxis], x0[np.newaxis, :]]
    rows1 = img.data[y1[:, np.newaxis], x1[np.newaxis, :]]
    bottom = (1.0 - fx) * rows0 + fx * rows1
    return Image((1.0 - fy) * top + fy * bottom, img.max_val)


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
