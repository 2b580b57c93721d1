"""Exact integer window sums against the float64 integral image.

_exact_box_means sums the windows of uint8 and bool channels in int32.
Every mean it gives must carry the bits of _box_means' on the float64
copy of the same samples, in the same strips of rows, and every caller
that takes it must give the bits of its float64 path.
"""

import numpy as np
import pytest

import lepfuse.cli
import lepfuse.filters
import lepfuse.fusion
from lepfuse import FilterParams, Image, box_mean, write_image
from lepfuse.filters import _EXACT_RADIUS, _STRIP_ROWS, _box_means, _exact_box_means, _fill, _fit
from lepfuse.fusion import _layers, _Winner

TALLER = 5 * _STRIP_ROWS + 3


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _strips_of(stream):
    # The (rows, means) strips of a stream, each means copied.
    return [(rows, means.copy()) for rows, means in stream]


def _counted(monkeypatch):
    # A list that receives (channels, radius) for each _exact_box_means call.
    calls, real = [], lepfuse.filters._exact_box_means

    def counted(fill, shape, radius, *args):
        calls.append((shape[1], radius))
        return real(fill, shape, radius, *args)

    monkeypatch.setattr(lepfuse.filters, "_exact_box_means", counted)
    return calls


def _cases():
    # Seeded (shape, radius, strip, kind) draws: single rows and columns,
    # planes shorter than a window, radii up to _EXACT_RADIUS and strips of
    # 1 to _STRIP_ROWS rows.
    rng = np.random.default_rng(23)
    cases = [((1, 1, 1), 1, 1, "uint8"), ((1, 2, 9), 90, 16, "square"), ((300, 1, 1), 90, 7, "bool"),
             ((9, 3, 1), 4, 3, "uint8"), ((TALLER, 4, 13), 15, 16, "square")]
    for _ in range(40):
        h, w = (int(v) for v in rng.integers(1, 40, 2))
        radius = int(rng.choice([1, 2, 3, 7, 15, 16, 31, 64, _EXACT_RADIUS]))
        cases.append(((h, int(rng.integers(1, 5)), w), radius, int(rng.integers(1, 17)),
                      str(rng.choice(["uint8", "bool", "square"]))))
    return cases


@pytest.mark.parametrize("shape, radius, strip, kind", _cases())
def test_exact_sums_give_the_integral_image_bits(shape, radius, strip, kind):
    """On uint8, bool and squared uint8 samples (up to 255^2, as the fit's
    g^2 and g * p channels hold), the int32 window sums give _box_means'
    strips and means bit for bit, whether its input blocks come in strips
    of 1 to 16 rows, and whatever rows the exact sums read in which order."""
    rng = np.random.default_rng(sum(shape) * 97 + radius * 7 + strip)
    plane = rng.integers(0, 256, shape)
    if kind == "square":
        plane = plane * plane
    elif kind == "bool":
        plane = plane > 127
    sizes = rng.integers(1, 17, shape[0] + 1)
    starts = np.cumsum(np.concatenate([[0], sizes]))
    floats = plane.astype(np.float64)
    blocks = (floats[s:s + n] for s, n in zip(starts, sizes) if s < shape[0])
    want = _strips_of(_box_means(blocks, radius, strip))
    out = np.empty((min(shape[0], strip),) + shape[1:])
    got = _strips_of(_exact_box_means(lambda block, rows: np.copyto(block, plane[rows]), shape, radius, out,
                                      strip))
    assert [rows for rows, _ in got] == [rows for rows, _ in want]
    assert all(_same_bits(g, m) for (_, g), (_, m) in zip(got, want))


PARAMS = [FilterParams(radius, alpha, beta) for radius, alpha in ((15, 0.3), (3, 1e-4)) for beta in (0.5, 1.0, 2.0)]
PARAMS += [FilterParams(radius, alpha, 2.0) for radius, alpha in ((15, 0.3), (3, 1e-4))]


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (300, 1), (20, 31), (TALLER, 13)])
@pytest.mark.parametrize("params", PARAMS, ids=lambda p: f"r{p.radius}-a{p.alpha}-b{p.beta}")
def test_fit_of_a_uint8_guide_and_a_winner_map_matches_float64(monkeypatch, shape, params):
    """A weight fit on a uint8 guide and a winner-plane map, as fuse runs
    it on read sources, sends its integer channels to the exact sums and
    gives the bits, and the coefficient maps, of the float64 fit."""
    rng = np.random.default_rng(shape[0] + params.radius)
    guide = rng.integers(0, 256, shape, dtype=np.uint8)
    winner = rng.integers(0, 3, shape).astype(np.uint8)
    calls = _counted(monkeypatch)
    planes = []
    for pp, gg in ((_Winner(winner, 1), guide), ((winner == 1).astype(np.float64), guide.astype(np.float64))):
        out, *coeffs = np.empty((5,) + shape)
        _fill(out, _fit(pp, gg, params, coeffs))
        planes.append([out] + coeffs)
    assert calls == [(4, params.radius)]
    assert all(_same_bits(g, w) for g, w in zip(*planes))


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 9, 3), (9, 1, 1), (20, 31, 3), (TALLER, 13, 1)])
@pytest.mark.parametrize("radius", [1, 3, 15, 40])
def test_layers_of_uint8_data_match_float64(monkeypatch, shape, radius):
    """The layers of uint8 sources come from the exact sums, in the strips
    and with the bits of the layers of their float64 copies."""
    data = np.random.default_rng(sum(shape) + radius).integers(0, 256, shape, dtype=np.uint8)
    calls = _counted(monkeypatch)
    got, want = ([(rows, base.copy(), detail.copy()) for rows, base, detail in _layers(d, radius)]
                 for d in (data, data.astype(np.float64)))
    assert calls == [(shape[2], radius)]
    assert [g[0] for g in got] == [w[0] for w in want]
    assert all(_same_bits(a, b) for g, w in zip(got, want) for a, b in zip(g[1:], w[1:]))


@pytest.mark.parametrize("radius", [_EXACT_RADIUS + 1, 120])
def test_radii_past_the_int32_bound_take_the_float_path(monkeypatch, radius):
    """Past _EXACT_RADIUS a window sum of squares could overflow int32, so
    box means and fits of uint8 samples take the float64 integral image,
    with the same bits as for float64 samples."""
    rng = np.random.default_rng(radius)
    data = rng.integers(0, 256, (40, 23, 3), dtype=np.uint8)
    guide, winner = data[:, :, 0], data[:, :, 1] > 127
    calls = _counted(monkeypatch)
    assert _same_bits(box_mean(Image._adopt(data, 255.0), radius).data, box_mean(Image(data), radius).data)
    params = FilterParams(radius, 0.3)
    got, want = np.empty((2,) + guide.shape)
    _fill(got, _fit(_Winner(winner.astype(np.uint8), 1), guide, params))
    _fill(want, _fit(winner.astype(np.float64), guide.astype(np.float64), params))
    assert calls == []
    assert _same_bits(got, want)


@pytest.mark.parametrize("cpus", [1, 2])
def test_cli_fuse_sends_gray_fits_and_every_layer_to_the_exact_sums(tmp_path, monkeypatch, capsys, cpus):
    """lepfuse fuse of read gray sources takes the exact sums for each of
    its 2N weight fits and N layer streams, in this process and in forked
    ones; of colour sources, for the layers only, as their luminance guides
    are not integers."""
    log = tmp_path / "calls.log"
    real = lepfuse.filters._exact_box_means

    def logged(fill, shape, radius, *args):  # appended to a file, which forked stages share
        with open(log, "a") as f:
            f.write(f"{shape[1]} {radius}\n")
        return real(fill, shape, radius, *args)

    monkeypatch.setattr(lepfuse.filters, "_exact_box_means", logged)
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(cpus)
    for channels, suffix, want in ((1, ".pgm", ["1 15"] * 2 + ["4 15"] * 2 + ["4 3"] * 2),
                                   (3, ".ppm", ["3 15"] * 2)):
        paths = [str(tmp_path / f"src{n}{suffix}") for n in range(2)]
        for path in paths:
            write_image(Image(rng.integers(0, 256, (3 * _STRIP_ROWS + 5, 29, channels)).astype(np.float64)), path)
        log.write_text("")
        assert lepfuse.cli.main(["fuse", *paths, "-o", str(tmp_path / f"fused{suffix}")]) == 0
        assert sorted(log.read_text().splitlines()) == sorted(want)
    capsys.readouterr()
