"""Decoded uint8 samples against their float64 twins.

``read_image`` keeps a file's uint8 samples.  Every public function, and
every command, must give the same result bits on such an image as on the
float64 image of the same values: a uint8 operand left unwidened would
wrap (a difference, a square, a sum of neighbours) or reduce in another
order (a mean over a cast buffer).
"""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

import lepfuse
import lepfuse.cli
import lepfuse.filters
import lepfuse.fusion
import lepfuse.netpbm
from lepfuse import (
    FilterParams,
    FusionConfig,
    Image,
    Rect,
    WeightStack,
    ZoomSpec,
    binary_weight_maps,
    box_mean,
    crop,
    decompose,
    fuse,
    gaussian_filter,
    guided_filter,
    laplacian_filter,
    lep_filter,
    lep_filter_guided,
    naturalness,
    normalize_weights,
    psnr,
    read_image,
    refine_weights,
    report,
    resize_bilinear,
    rgb_to_luma,
    saliency,
    sharpness,
    ssim,
    write_image,
    zoom_region,
)
from lepfuse.cli import _check_scratch, main

SHAPES = [(1, 9), (20, 3), (37, 41)]


def _bits(value):
    # A comparable form of a result: every array and float by its bytes.
    if isinstance(value, Image):
        return "Image", value.data.dtype.str, value.data.shape, value.data.tobytes(), value.max_val
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [_bits(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [_bits(v) for v in value]
    if isinstance(value, float):
        return value.hex()
    return value


def _outcome(fn, *args):
    # The bits of fn's result, or the type and message of what it raised.
    try:
        return "ok", _bits(fn(*args))
    except (ValueError, IndexError) as err:
        return type(err).__name__, str(err)


def _samples(shape, channels, seed):
    return np.random.default_rng(seed).integers(0, 256, shape + (channels,), dtype=np.uint8)


def _twins(shape, channels, seed):
    # A uint8-backed image, as read_image returns them, and its float64 twin.
    data = _samples(shape, channels, seed)
    return Image._adopt(data, 255.0), Image(data)


def _held_as(img, data, max_val):
    # An image of ``data`` whose samples are held as img's are.
    if img.data.dtype == np.uint8:
        return Image._adopt(np.ascontiguousarray(data), max_val)
    return Image(data, max_val)


def _refined_stack(*images):
    # A "refined" stack of the images' first planes.
    return WeightStack(tuple(_held_as(img, img.data[:, :, :1], 1.0) for img in images), "refined")


def _binary(img):
    # Binary maps of a fixed pair of float saliencies of img's shape.
    rng = np.random.default_rng(5)
    return binary_weight_maps([Image(rng.uniform(0, 1, (img.height, img.width))) for _ in range(2)])


def _gradient(img):
    # The gradient stage of sharpness and of the LEP regularizer, on img's
    # edge-padded plane.
    plane = lepfuse.filters._single_plane(img, "gradient")
    return lepfuse.filters._gradient_magnitude(np.pad(plane, 1, mode="edge"))


def _quantize(img):
    # The samples write_image would encode, before any header.
    out = np.empty(img.data.shape, dtype=np.uint8)
    lepfuse.netpbm._encode(img.data, int(round(img.max_val)), out)
    return out


def _write(img, tmp_path):
    path = tmp_path / ("w.pgm" if img.channels == 1 else "w.ppm")
    write_image(img, path)
    return path.read_bytes()


CASES = {
    "binary_weight_maps": lambda a, b, tmp: binary_weight_maps([a, b]),
    "box_mean": lambda a, b, tmp: box_mean(a, 2),
    "crop": lambda a, b, tmp: crop(a, Rect(0, 0, 1, 1)),
    "decompose": lambda a, b, tmp: decompose(a, 5),
    "fuse": lambda a, b, tmp: fuse([a, b], FusionConfig(avg_filter_size=5)),
    "fuse_guided": lambda a, b, tmp: fuse([a, b, a], FusionConfig(refine_filter="guided")),
    "gaussian_filter": lambda a, b, tmp: gaussian_filter(a, 2, 1.0),
    "gradient_magnitude": lambda a, b, tmp: _gradient(a),
    "guided_filter": lambda a, b, tmp: guided_filter(b, a, 2, 0.3),
    "laplacian_filter": lambda a, b, tmp: laplacian_filter(a),
    "lep_filter": lambda a, b, tmp: lep_filter(a, FilterParams(2, 0.1)),
    "lep_filter_guided": lambda a, b, tmp: lep_filter_guided(b, a, FilterParams(2, 0.1, 0.5)),
    "naturalness": lambda a, b, tmp: naturalness(a),
    "normalize_weights": lambda a, b, tmp: normalize_weights(_refined_stack(a, b)),
    "psnr": lambda a, b, tmp: psnr(a, b),
    "quantize": lambda a, b, tmp: _quantize(a),
    "refine_weights": lambda a, b, tmp: refine_weights(_binary(a), [a, b], FilterParams(2, 0.1)),
    "report": lambda a, b, tmp: report(a, b),
    "resize_bilinear": lambda a, b, tmp: resize_bilinear(a, 7, 5),
    "rgb_to_luma": lambda a, b, tmp: rgb_to_luma(a),
    "saliency": lambda a, b, tmp: saliency(a),
    "sharpness": lambda a, b, tmp: sharpness(a),
    "ssim": lambda a, b, tmp: ssim(a, b),
    "write_image": lambda a, b, tmp: _write(a, tmp),
    "zoom_region": lambda a, b, tmp: zoom_region(a, ZoomSpec(Rect(0, 0, 1, 1), 2.5)),
}


GRAY_ONLY = {"binary_weight_maps", "gradient_magnitude", "guided_filter", "laplacian_filter", "lep_filter",
             "lep_filter_guided", "naturalness", "refine_weights", "saliency", "sharpness", "ssim"}


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", sorted(CASES))
def test_uint8_image_gives_the_bits_of_its_float64_twin(tmp_path, name, shape, channels):
    (a8, a64), (b8, b64) = _twins(shape, channels, 1), _twins(shape, channels, 2)
    fn = CASES[name]
    got = _outcome(fn, a8, b8, tmp_path)
    assert got == _outcome(fn, a64, b64, tmp_path)
    runs = name not in GRAY_ONLY if channels == 3 else name != "rgb_to_luma"
    if shape == (37, 41) and runs:  # each case runs, not just fails alike, at the largest shape
        assert got[0] == "ok", got


def test_every_public_function_has_a_twin_case():
    images = {"Image", "Rect", "ZoomSpec", "FilterParams", "FusionConfig", "FusionResult", "LayerPair",
              "WeightStack", "CoeffMaps", "MetricsReport", "NaturalnessPriors", "NetpbmError",
              "NetpbmParseError", "NetpbmUnsupportedError", "read_image"}
    assert set(lepfuse.__all__) - images <= set(CASES)


def _cli_files(tmp_path, shape, channels):
    suffix = ".pgm" if channels == 1 else ".ppm"
    paths = []
    for seed in (1, 2):
        path = tmp_path / f"src{seed}{suffix}"
        write_image(Image(_samples(shape, channels, seed)), path)
        paths.append(str(path))
    return paths, suffix


def _float64(img):
    return Image(img.data, img.max_val)


def _run(monkeypatch, capsys, tmp_path, argv, widen):
    # Exit code, stdout, stderr and every written file of one command,
    # with read_image widening its samples to float64 when ``widen``.
    read = lepfuse.netpbm.read_image
    monkeypatch.setattr(lepfuse.cli, "read_image", (lambda path: _float64(read(path))) if widen else read)
    out_dir = tmp_path / ("wide" if widen else "narrow")
    out_dir.mkdir()
    code = main([arg.replace("OUT", str(out_dir)) for arg in argv])
    captured = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return code, captured.out, captured.err.replace(str(out_dir), "OUT"), files


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("command", ["fuse", "fuse-dump", "zoom", "metrics", "decompose"])
def test_commands_on_read_samples_match_float64_twins(tmp_path, monkeypatch, capsys, command, shape,
                                                      channels):
    (a, b), suffix = _cli_files(tmp_path, shape, channels)
    argv = {
        "fuse": ["fuse", a, b, "-o", "OUT/f" + suffix, "--avg-filter-size", "5"],
        "fuse-dump": ["fuse", a, b, a, "-o", "OUT/f" + suffix, "--dump-intermediates"],
        "zoom": ["zoom", a, "--rect", "0,0,1,1", "--scale", "2.5", "-o", "OUT/z" + suffix],
        "metrics": ["metrics", a] + (["--reference", b] if min(shape) >= 11 else []),  # ssim needs 11^2
        "decompose": ["decompose", a, "--avg-filter-size", "3", "-o", "OUT/d" + suffix],
    }[command]
    narrow = _run(monkeypatch, capsys, tmp_path, argv, widen=False)
    assert narrow == _run(monkeypatch, capsys, tmp_path, argv, widen=True)
    assert narrow[0] == 0, narrow


@pytest.mark.parametrize("header, raster, shape", [
    (b"P2 3 2 255\n", b"0 1 2\n250 251 255\n", (2, 3, 1)),
    (b"P3 1 2 200\n", b"1 2 3 4 5 200\n", (2, 1, 3)),
    (b"P5 3 2 255\n", bytes([0, 1, 2, 250, 251, 255]), (2, 3, 1)),
    (b"P6 1 2 255\n", bytes([1, 2, 3, 4, 5, 255]), (2, 1, 3)),
    (b"P2 2 1 15\n# a comment sends it to the tokenizer\n", b"0 15", (1, 2, 1)),
])
def test_read_image_returns_read_only_uint8(tmp_path, header, raster, shape):
    path = tmp_path / "img.pnm"
    path.write_bytes(header + raster)
    img = read_image(path)
    assert img.data.dtype == np.uint8 and img.data.shape == shape
    assert not img.data.flags.writeable and img.data.flags.c_contiguous
    digits = raster.split() if header.startswith((b"P2", b"P3")) else list(raster)
    assert img.data.ravel().tolist() == [int(v) for v in digits]


def test_image_constructor_still_copies_to_float64():
    data = np.arange(6, dtype=np.uint8).reshape(2, 3)
    assert Image(data).data.dtype == np.float64


def test_scratch_bound_counts_float64_bytes():
    """The scratch bound is 64 times the sources' samples at 8 bytes each,
    whatever the type the samples are held in: here 512 MiB for two
    1024 x 512 sources, above the 256 MiB floor."""
    sources = [Image._adopt(np.zeros((1024, 512), dtype=np.uint8), 255.0) for _ in range(2)]
    bound = 64 * 8 * 2 * 1024 * 512
    _check_scratch(bound, sources)
    with pytest.raises(ValueError, match="MiB"):
        _check_scratch(bound + 1, sources)


def test_gray_cli_fuse_peak_counts_the_sources(tmp_path, monkeypatch, capsys):
    """The traced peak of a whole gray ``lepfuse fuse`` of a 256^2 pair,
    sources included, in one process: 3.36 float64 planes with the
    decoded samples kept as uint8 (a quarter of a plane for the pair),
    5.06 with float64 sources.  The peak comes in a base fit; the two
    detail fits, which run in lockstep here in strips of 4 rows, peak at
    about 3.1."""
    side = 256
    paths = []
    for seed in (1, 2):
        paths.append(str(tmp_path / f"s{seed}.pgm"))
        write_image(Image(_samples((side, side), 1, seed)), paths[-1])
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 1)
    tracemalloc.start()
    try:
        code = main(["fuse", *paths, "-o", str(tmp_path / "f.pgm")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak / (8 * side * side) < 4.0, peak / (8 * side * side)
    assert os.path.exists(tmp_path / "f.pgm")
