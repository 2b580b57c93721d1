"""Minimal Netpbm encoding and decoding for the benchmark's inputs and checks.

Kept independent of ``lepfuse.netpbm`` so that a defect in the code under
test cannot hide itself from the output checks.
"""

import re
from pathlib import Path

import numpy as np

_BINARY_HEADER = re.compile(rb"\A(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s")


def to_uint8(samples: np.ndarray) -> np.ndarray:
    """Clamp to [0, 255] and round half-up, as an 8-bit file would store it."""
    return np.floor(np.clip(samples, 0.0, 255.0) + 0.5).astype(np.uint8)


def write_binary(path, samples: np.ndarray) -> None:
    """Write uint8 samples of shape (h, w) as P5 or (h, w, 3) as P6."""
    magic = b"P5" if samples.ndim == 2 else b"P6"
    h, w = samples.shape[:2]
    raster = np.ascontiguousarray(samples, dtype=np.uint8).tobytes()
    Path(path).write_bytes(b"%s\n%d %d\n255\n" % (magic, w, h) + raster)


def write_plain(path, samples: np.ndarray) -> None:
    """Write 2-D integer samples as a plain (P2) PGM with maxval 255, one
    image row per line.  Values are written as given, even above 255."""
    h, w = samples.shape
    rows = "\n".join(" ".join(map(str, row)) for row in samples.tolist())
    Path(path).write_text(f"P2\n{w} {h}\n255\n{rows}\n")


def read_binary(path) -> tuple[np.ndarray, int]:
    """Decode a P5/P6 file into (uint8 samples, maxval).

    Raises ValueError unless the header is well formed and the raster holds
    exactly width * height * channels bytes.
    """
    blob = Path(path).read_bytes()
    match = _BINARY_HEADER.match(blob)
    if match is None:
        raise ValueError(f"{Path(path).name}: not a binary PGM/PPM header")
    magic, w, h, maxval = match.group(1), *(int(g) for g in match.groups()[1:])
    channels = 1 if magic == b"P5" else 3
    raster = blob[match.end():]
    if len(raster) != w * h * channels:
        raise ValueError(
            f"{Path(path).name}: raster holds {len(raster)} bytes, header declares {w * h * channels}"
        )
    shape = (h, w) if channels == 1 else (h, w, 3)
    return np.frombuffer(raster, dtype=np.uint8).reshape(shape), maxval
