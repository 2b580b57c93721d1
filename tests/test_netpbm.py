"""PGM/PPM codec: decoding, round trips, quantization, malformed inputs."""

import re

import numpy as np
import pytest

from lepfuse import (
    Image,
    NetpbmError,
    NetpbmParseError,
    NetpbmUnsupportedError,
    read_image,
    write_image,
)


def test_reads_plain_pgm(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2 2 2 255 0 128 255 64")
    img = read_image(path)
    assert img.data.shape == (2, 2, 1)
    assert np.array_equal(img.plane(), np.array([[0.0, 128.0], [255.0, 64.0]]))
    assert img.max_val == 255.0


def test_reads_binary_pgm_identically(tmp_path):
    plain = tmp_path / "a.pgm"
    plain.write_text("P2 2 2 255 0 128 255 64")
    binary = tmp_path / "b.pgm"
    binary.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    assert np.array_equal(read_image(plain).data, read_image(binary).data)


def test_reads_plain_ppm_with_comments(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_text("P3\n# a comment\n1 2\n# another\n255\n1 2 3\n4 5 6\n")
    img = read_image(path)
    assert img.data.shape == (2, 1, 3)
    assert np.array_equal(img.data[0, 0], np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(img.data[1, 0], np.array([4.0, 5.0, 6.0]))


def test_reads_low_maxval(tmp_path):
    path = tmp_path / "d.pgm"
    path.write_text("P2 2 1 15 0 15")
    img = read_image(path)
    assert img.max_val == 15.0


@pytest.mark.parametrize("channels,suffix", [(1, ".pgm"), (3, ".ppm")])
def test_round_trip_random_integer_images(tmp_path, channels, suffix):
    rng = np.random.default_rng(123 + channels)
    for trial in range(20):
        h = int(rng.integers(1, 12))
        w = int(rng.integers(1, 12))
        shape = (h, w) if channels == 1 else (h, w, 3)
        data = rng.integers(0, 256, shape).astype(np.float64)
        img = Image(data)
        path = tmp_path / f"t{trial}{suffix}"
        write_image(img, path)
        back = read_image(path)
        assert np.array_equal(back.data, img.data)
        assert back.max_val == img.max_val


def test_write_quantizes_half_up_and_clamps(tmp_path):
    img = Image(np.array([[127.5, -3.0], [255.9, 0.49]]))
    path = tmp_path / "q.pgm"
    write_image(img, path)
    back = read_image(path)
    assert np.array_equal(back.plane(), np.array([[128.0, 0.0], [255.0, 0.0]]))


def test_write_format_channel_mismatch(tmp_path):
    color = Image(np.zeros((2, 2, 3)))
    gray = Image(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        write_image(color, tmp_path / "x.pgm")
    with pytest.raises(ValueError):
        write_image(gray, tmp_path / "x.ppm")
    with pytest.raises(ValueError):
        write_image(gray, tmp_path / "x.png")
    with pytest.raises(ValueError):
        write_image(gray, tmp_path / "x.pgm", format="pgm-ascii")


def test_write_requires_integer_maxval(tmp_path):
    img = Image(np.zeros((2, 2)), max_val=254.5)
    with pytest.raises(ValueError):
        write_image(img, tmp_path / "m.pgm")


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        read_image(tmp_path / "nothere.pgm")


def test_unsupported_magic(tmp_path):
    path = tmp_path / "bad.pbm"
    path.write_bytes(b"P1\n2 2\n0 1 1 0\n")
    with pytest.raises(NetpbmUnsupportedError):
        read_image(path)
    path.write_bytes(b"JUNKJUNK")
    with pytest.raises(NetpbmUnsupportedError):
        read_image(path)


def test_unsupported_16bit_maxval(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(NetpbmUnsupportedError):
        read_image(path)


def test_truncated_plain_names_counts(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_text("P2 3 3 255 1 2 3 4")
    with pytest.raises(NetpbmParseError) as info:
        read_image(path)
    assert "expected 9 samples, got 4" in str(info.value)
    assert info.value.offset == len("P2 3 3 255 1 2 3 4")


def test_truncated_binary_names_counts(tmp_path):
    path = tmp_path / "short5.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x01\x02")
    with pytest.raises(NetpbmParseError) as info:
        read_image(path)
    assert "expected 4 bytes, got 2" in str(info.value)


def test_parse_errors_carry_byte_offsets(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2 zz 2 255 0 0 0 0")
    with pytest.raises(NetpbmParseError) as info:
        read_image(path)
    assert info.value.offset == 3  # the offending token starts at byte 3

    path.write_bytes(b"P2 2 2 0 0 0 0 0")  # maxval below 1
    with pytest.raises(NetpbmParseError):
        read_image(path)


@pytest.mark.parametrize("token", [b"+5", b"-0", b"1_0"])
@pytest.mark.parametrize("at", range(5), ids=["width", "height", "maxval", "sample", "last-sample"])
def test_signed_or_underscored_integers_rejected(tmp_path, at, token):
    """Netpbm integers are ASCII digits alone, in the header and in plain
    samples alike: a sign or an underscore is a parse error at the token."""
    fields = [b"2", b"1", b"255", b"7", b"8"]
    fields[at] = token
    path = tmp_path / "signed.pgm"
    path.write_bytes(b" ".join([b"P2"] + fields))
    with pytest.raises(NetpbmParseError, match=f"expected integer .*, got {re.escape(repr(token))}") as info:
        read_image(path)
    assert info.value.offset == len(b" ".join([b"P2"] + fields[:at])) + 1


def test_binary_sample_above_maxval_rejected(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5\n2 1\n100\n\x10\xff")
    with pytest.raises(NetpbmParseError) as info:
        read_image(path)
    assert "exceeds maxval" in str(info.value)


def test_plain_sample_above_maxval_rejected(tmp_path):
    path = tmp_path / "over2.pgm"
    path.write_text("P2 2 1 100 10 255")
    with pytest.raises(NetpbmParseError):
        read_image(path)


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        b"P5",
        b"P5\n",
        b"P5\n2\n",
        b"P5\n2 2\n",
        b"P5\n-1 2\n255\n\x00\x00\x00\x00",
        b"P2 2 2 255 1 2 3 nope",
        b"P6\n1 1\n255\n\x00",
        b"P5\n2 2\n255#comment",
    ],
)
def test_malformed_inputs_raise_netpbm_errors_never_crash(tmp_path, blob):
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(blob)
    with pytest.raises(NetpbmError):
        read_image(path)


_SEPARATORS = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c", b"\r\n", b"  \n\t"]
_PLAIN_CASES = ["clean", "zeros", "long", "plus", "minus", "underscore", "arabic", "comment", "junk", "short",
                "over", "empty", "blank", "extra"]


def _plain_blob(rng, magic, case):
    # A small plain file of one fuzz case: the header, then a raster that
    # is clean apart from that case's feature.
    width, height = (int(v) for v in rng.integers(1, 6, 2))
    maxval = int(rng.choice([1, 15, 100, 255]))
    count = width * height * (3 if magic == b"P3" else 1)
    tokens = [b"%d" % v for v in rng.integers(0, maxval + 1, count)]
    at = int(rng.integers(0, count))
    if case == "zeros":
        tokens[at] = b"0" * int(rng.integers(1, 5)) + tokens[at]
    elif case == "long":
        digits = int(rng.integers(17, 26))
        tokens[at] = (b"0" * (digits - len(tokens[at])) + tokens[at] if rng.random() < 0.5
                      else bytes(rng.integers(ord("1"), ord("9") + 1, digits).astype(np.uint8)))
    elif case in ("plus", "minus", "underscore", "arabic"):
        tokens[at] = {"plus": b"+5", "minus": b"-0", "underscore": b"1_0", "arabic": "٥".encode()}[case]
    elif case == "comment":
        tokens[at] = tokens[at] + b"# note 12 34\n"
    elif case == "junk":
        tokens.append(rng.choice([b"x", b"abc", b"1.5", b"\x00"]))
    elif case == "short":
        tokens = tokens[:int(rng.integers(0, count))]
    elif case == "over":
        tokens[at] = b"%d" % rng.integers(maxval + 1, 1000)
    elif case in ("empty", "blank"):
        tokens = []
    elif case == "extra":
        tokens += [b"%d" % v for v in rng.integers(0, 1000, int(rng.integers(1, 4)))]
    seps = [_SEPARATORS[i] for i in rng.integers(0, len(_SEPARATORS), len(tokens) + 1)]
    raster = b"".join(sep + token for sep, token in zip(seps, tokens))
    if case == "blank":
        raster = seps[0] * int(rng.integers(1, 4))
    elif case != "empty" and rng.random() < 0.5:
        raster += seps[-1]
    return b"%s %d %d %d" % (magic, width, height, maxval) + raster


def _decode(path):
    # The samples of a file, or the error it raises, in comparable form.
    try:
        img = read_image(path)
    except NetpbmError as err:
        return type(err), str(err), getattr(err, "offset", None)
    return img.data.shape, img.max_val, img.data.tobytes()


@pytest.mark.parametrize("magic", [b"P2", b"P3"])
def test_plain_fast_path_decodes_as_the_tokenizer(tmp_path, monkeypatch, magic):
    """Every plain file decodes to the same sample bits, or raises the same
    error type, message and byte offset, whether or not the numpy parse
    is allowed.  The numpy parse takes every raster of digits and
    whitespace with enough samples in range, extra samples after them
    included, and declines every other."""
    import lepfuse.netpbm

    rng = np.random.default_rng(7 if magic == b"P2" else 8)
    fast_parse, taken = lepfuse.netpbm._plain_samples, {case: set() for case in _PLAIN_CASES}
    path = tmp_path / "fuzz.pnm"
    for trial in range(700):
        case = _PLAIN_CASES[trial % len(_PLAIN_CASES)]
        path.write_bytes(_plain_blob(rng, magic, case))

        def counted(*args):
            samples = fast_parse(*args)
            taken[case].add(samples is not None)
            return samples

        monkeypatch.setattr(lepfuse.netpbm, "_plain_samples", counted)
        fast = _decode(path)
        monkeypatch.setattr(lepfuse.netpbm, "_plain_samples", lambda *args: None)
        assert fast == _decode(path), (case, path.read_bytes())
    assert {case for case, seen in taken.items() if seen == {True}} == {"clean", "zeros", "extra"}
    assert taken["long"] == {True, False}  # zero-padded small samples pass, big ones do not


@pytest.mark.parametrize("magic, side", [(b"P2", 64), (b"P3", 16)])
def test_clean_plain_raster_has_no_per_sample_tokens(tmp_path, monkeypatch, magic, side):
    import lepfuse.netpbm

    channels = 3 if magic == b"P3" else 1
    data = np.random.default_rng(side).integers(0, 256, (side, side, channels))
    path = tmp_path / "clean.pnm"
    path.write_bytes(b"%s\n%d %d\n255\n" % (magic, side, side) + b"\n".join(b"%d" % v for v in data.ravel()))
    real_next_int, calls = lepfuse.netpbm._Tokenizer.next_int, []

    def counted(self, what, low, high):
        calls.append(what)
        return real_next_int(self, what, low, high)

    monkeypatch.setattr(lepfuse.netpbm._Tokenizer, "next_int", counted)
    assert np.array_equal(read_image(path).data, data)
    assert calls == ["width", "height", "maxval"]
