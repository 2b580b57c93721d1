"""Netpbm image I/O: PGM (P2/P5) and PPM (P3/P6), 8-bit.

These formats round-trip bit-exactly without third-party decoders, which
is what the tests and the CLI rely on.  Parse failures report the byte
offset where decoding stopped.
"""

from pathlib import Path

import numpy as np

from .image import _STRIP_ROWS, Image

_GRAY_MAGICS = (b"P2", b"P5")
_COLOR_MAGICS = (b"P3", b"P6")
_PLAIN_MAGICS = (b"P2", b"P3")

FORMATS = ("pgm-binary", "ppm-binary")


class NetpbmError(Exception):
    """Base class for netpbm decoding problems."""


class NetpbmParseError(NetpbmError):
    """Malformed or truncated file; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class NetpbmUnsupportedError(NetpbmError):
    """Recognizable netpbm data outside the supported P2/P3/P5/P6 8-bit subset."""


class _Tokenizer:
    """Whitespace/comment-aware header scanner over raw file bytes."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def _skip_filler(self) -> None:
        while self.pos < len(self.blob):
            c = self.blob[self.pos:self.pos + 1]
            if c.isspace():
                self.pos += 1
            elif c == b"#":
                while self.pos < len(self.blob) and self.blob[self.pos:self.pos + 1] not in (b"\n", b"\r"):
                    self.pos += 1
            else:
                return

    def next_token(self, what: str) -> tuple[bytes, int]:
        self._skip_filler()
        if self.pos >= len(self.blob):
            raise NetpbmParseError(f"unexpected end of file, expected {what}", self.pos)
        start = self.pos
        while self.pos < len(self.blob):
            c = self.blob[self.pos:self.pos + 1]
            if c.isspace() or c == b"#":
                break
            self.pos += 1
        return self.blob[start:self.pos], start

    def next_int(self, what: str, low: int, high: int) -> int:
        token, start = self.next_token(what)
        if not token.isdigit():  # ASCII digits only: no sign, no underscore
            raise NetpbmParseError(f"expected integer {what}, got {token!r}", start)
        value = int(token)
        if not (low <= value <= high):
            raise NetpbmParseError(f"{what} {value} outside [{low}, {high}]", start)
        return value


_PLAIN_BYTES = b"0123456789 \t\n\r\x0b\x0c"  # the digits, and the whitespace of bytes.isspace


def _plain_samples(raster: bytes, count: int, maxval: int):
    # The first ``count`` samples of a plain raster, parsed in one numpy
    # call, or None where the tokenizer must decide: a byte other than an
    # ASCII digit or whitespace, fewer than ``count`` samples, or one above
    # ``maxval`` (an over-long sample saturates at the int64 maximum).  The
    # samples are counted as digit-run starts before the parse, because
    # np.fromstring reads a blank raster as [0], and because ``count`` comes
    # from the header and may far exceed what the raster holds.
    if raster.translate(None, _PLAIN_BYTES):
        return None
    digit = np.frombuffer(raster, dtype=np.uint8) > ord(" ")
    tokens = int(digit[:1].sum()) + np.count_nonzero(digit[1:] > digit[:-1])
    if tokens < count:
        return None
    values = np.fromstring(raster, dtype=np.int64, sep=" ")
    if len(values) != tokens or values[:count].max() > maxval:
        return None
    return values[:count].astype(np.uint8)


def read_image(path) -> Image:
    """Decode a PGM or PPM file into an image of read-only uint8 samples.

    A plain (P2/P3) raster of ASCII digits and whitespace alone is parsed
    in one numpy call.  One with anything else in it (a comment, a sign, a
    sample above maxval) or too few samples is read token by token, which
    gives the same samples for every file that decodes and the same error
    for every file that does not.

    Raises OSError for unreadable paths, NetpbmUnsupportedError for magic
    numbers or maxval outside the 8-bit P2/P3/P5/P6 subset, and
    NetpbmParseError (with byte offset) for malformed content.
    """
    blob = Path(path).read_bytes()
    tok = _Tokenizer(blob)
    magic, magic_at = tok.next_token("magic number")
    if magic not in _GRAY_MAGICS + _COLOR_MAGICS:
        raise NetpbmUnsupportedError(
            f"unsupported magic {magic!r} at byte offset {magic_at}; "
            "supported: P2, P3, P5, P6"
        )
    width = tok.next_int("width", 1, 10 ** 9)
    height = tok.next_int("height", 1, 10 ** 9)
    tok._skip_filler()
    maxval_at = tok.pos
    maxval = tok.next_int("maxval", 1, 65535)
    if maxval > 255:
        raise NetpbmUnsupportedError(
            f"maxval {maxval} at byte offset {maxval_at} exceeds the supported 8-bit range"
        )
    channels = 3 if magic in _COLOR_MAGICS else 1
    count = width * height * channels

    if magic in _PLAIN_MAGICS:
        samples = _plain_samples(blob[tok.pos:], count, maxval)
        if samples is None:
            # A sample takes at least one byte, so never allocate more samples
            # than bytes remain; the loop reports where a too-short raster ends.
            samples = np.empty(min(count, len(blob) - tok.pos), dtype=np.uint8)
            for i in range(count):
                tok._skip_filler()
                if tok.pos >= len(blob):
                    raise NetpbmParseError(
                        f"pixel data ended early: expected {count} samples, got {i}", tok.pos
                    )
                samples[i] = tok.next_int("sample", 0, maxval)
    else:
        # Binary formats: exactly one whitespace byte separates the header
        # from the raster.
        if tok.pos >= len(blob) or not blob[tok.pos:tok.pos + 1].isspace():
            raise NetpbmParseError("expected single whitespace before binary pixel data", tok.pos)
        start = tok.pos + 1
        if len(blob) - start < count:
            raise NetpbmParseError(
                f"pixel data truncated: expected {count} bytes, got {len(blob) - start}", len(blob)
            )
        samples = np.frombuffer(blob, np.uint8, count, offset=start)  # read-only: a view of the bytes
        over = np.flatnonzero(samples > maxval)
        if over.size:
            raise NetpbmParseError(
                f"sample value {int(samples[over[0]])} exceeds maxval {maxval}",
                start + int(over[0]),
            )

    # The raster was built here and is not written again, so it is adopted
    # rather than copied.
    shape = (height, width) if channels == 1 else (height, width, 3)
    return Image._adopt(samples.reshape(shape), float(maxval))


def _encode(data: np.ndarray, maxval: int, out: np.ndarray, op=None, operand=None) -> None:
    # out = the uint8 quantization of op(data, operand), or of ``data`` if
    # ``op`` is None: clamp to [0, maxval], add 0.5, floor, in that order,
    # one block of rows at a time through one block of float scratch.  The
    # floor is the cast to uint8, which truncates: every value is at least
    # 0.5 there, where truncation is floor.  Every step is elementwise, so
    # the bytes do not depend on the blocks.
    scratch = np.empty((min(len(data), _STRIP_ROWS),) + data.shape[1:])
    for start in range(0, len(data), _STRIP_ROWS):
        block = data[start:start + _STRIP_ROWS]
        tmp = scratch[:len(block)]
        if op is not None:
            block = op(block, operand, out=tmp)
        np.clip(block, 0.0, float(maxval), out=tmp)
        tmp += 0.5
        out[start:start + _STRIP_ROWS] = tmp


def quantize(img: Image) -> np.ndarray:
    """Clamp to [0, max_val] and round half-up to uint8."""
    out = np.empty(img.data.shape, dtype=np.uint8)
    _encode(img.data, int(round(img.max_val)), out)
    return out


def _header(shape: tuple, maxval: int) -> bytes:
    # The header of a binary PGM (c = 1) or PPM (c = 3) of an (h, w, c) raster.
    h, w, c = shape
    return b"%s\n%d %d\n%d\n" % (b"P5" if c == 1 else b"P6", w, h, maxval)


def _write_raster(f, header: bytes, rows: np.ndarray) -> None:
    # Appends ``header`` (empty after a file's first call) and then the
    # uint8 ``rows`` to the binary file ``f``.  Every byte of every file
    # this package writes goes through here.
    f.write(header)
    f.write(rows)


def write_image(img: Image, path, format: str = None) -> None:
    """Encode as binary PGM or PPM; quantizes via clamp + round half-up.

    ``format`` is "pgm-binary" or "ppm-binary"; omitted, it follows the
    path suffix (.pgm or .ppm).  The channel count must match the format.
    """
    path = Path(path)
    if format is None:
        by_suffix = {".pgm": "pgm-binary", ".ppm": "ppm-binary"}
        format = by_suffix.get(path.suffix.lower())
        if format is None:
            raise ValueError(
                f"cannot infer format from suffix {path.suffix!r}; pass format explicitly"
            )
    if format not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {format!r}")
    expected_channels = 1 if format == "pgm-binary" else 3
    if img.channels != expected_channels:
        raise ValueError(
            f"{format} requires {expected_channels} channel(s), image has {img.channels}"
        )
    maxval = int(round(img.max_val))
    if not (1 <= maxval <= 255) or img.max_val != maxval:
        raise ValueError(
            f"netpbm encoding requires an integer max_val in [1, 255], got {img.max_val}"
        )
    raster = quantize(img)
    with open(path, "wb") as f:
        _write_raster(f, _header(raster.shape, maxval), raster)
