"""Acceptance suite: one test per shipping criterion.

Every test prints a single verdict line (bypassing pytest capture, so the
lines appear in plain `pytest -v` output) and then asserts.  Numbering is
stable so run logs can be compared across revisions.
"""

import sys
import time

import numpy as np
import pytest

from lepfuse import (
    FilterParams,
    FusionConfig,
    Image,
    NetpbmError,
    box_mean,
    decompose,
    fuse,
    guided_filter,
    lep_filter,
    lep_filter_guided,
    psnr,
    read_image,
    resize_bilinear,
    sharpness,
    ssim,
    write_image,
    zoom_region,
)
from lepfuse.cli import main as cli_main
from lepfuse.image import Rect, rgb_to_luma
from lepfuse.synthetic import multifocus_pair, smooth_field
from lepfuse.zoom import ZoomSpec
from oracles import (
    direct_ssim,
    guide_gradient_power,
    lep_oracle,
    naive_box_mean,
    sample_bilinear,
    window_has_gradient,
)


_EMIT = None


@pytest.fixture(autouse=True)
def _verdict_channel(capfd):
    # Route verdict lines past pytest's capture so they show up in plain
    # `pytest -v` runs, not just on failures.
    global _EMIT

    def emit(line):
        with capfd.disabled():
            sys.stdout.write(line + "\n")
            sys.stdout.flush()

    _EMIT = emit
    yield
    _EMIT = None


def _verdict(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    if _EMIT is not None:
        _EMIT(line)
    assert ok, line


def _random_image(rng, shape, max_val=255.0):
    return Image(rng.uniform(0.0, max_val, shape), max_val=max_val)


def _structured_images():
    ramp = np.outer(np.arange(10.0), np.ones(10)) * 20.0
    step = np.where(np.arange(100).reshape(10, 10) % 10 < 5, 40.0, 200.0)
    checker = np.indices((10, 10)).sum(axis=0) % 2 * 255.0
    impulse = np.zeros((10, 10))
    impulse[4, 6] = 255.0
    return [
        Image(np.full((10, 10), 80.0)),
        Image(step),
        Image(ramp),
        Image(checker),
        Image(impulse),
    ]


def test_criterion_01_decomposition_exactness():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        img = _random_image(rng, (64, 64))
        pair = decompose(img)
        err = np.abs(pair.base.data + pair.detail.data - img.data).max()
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    _verdict(1, "decomposition exactness", worst <= 1e-12 and elapsed < 1.0,
             f"max err {worst:.2e}, {elapsed:.3f}s for 50 images")


def test_criterion_02_box_filter_oracle():
    rng = np.random.default_rng(102)
    plane = rng.uniform(0, 255, (64, 64))
    worst = 0.0
    for radius in (1, 2, 5, 15):
        got = box_mean(Image(plane), radius).plane()
        want = naive_box_mean(plane, radius)
        worst = max(worst, np.abs(got - want).max())
    _verdict(2, "box filter vs naive convolution", worst <= 1e-9,
             f"max err {worst:.2e} over radii 1,2,5,15")


def test_criterion_03_box_filter_window_independence():
    rng = np.random.default_rng(103)
    img = Image(rng.uniform(0, 255, (1024, 1024)))
    box_mean(img, 2)  # warm up

    def median_time(radius):
        times = []
        for _ in range(10):
            t0 = time.perf_counter()
            box_mean(img, radius)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    t_small = median_time(2)
    t_large = median_time(50)
    _verdict(3, "box filter runtime independent of radius", t_large <= 2.0 * t_small,
             f"radius 2: {t_small * 1e3:.1f}ms, radius 50: {t_large * 1e3:.1f}ms")


def test_criterion_04_slope_bounds():
    rng = np.random.default_rng(104)
    images = [_random_image(rng, (12, 12)) for _ in range(20)]
    images += _structured_images()
    params = FilterParams(radius=2, alpha=0.1, beta=1.0)
    ok = True
    for img in images:
        _, coeffs = lep_filter(img, params)
        a = coeffs.slope.data
        if a.min() < 0.0 or a.max() > 1.0:
            ok = False
            break
        # Saturation is only legitimate in windows whose edge term is
        # mathematically zero, decided by exact integer counting.
        for c in range(img.channels):
            power = guide_gradient_power(img.data[:, :, c], params.beta)
            nonzero_term = window_has_gradient(power, params.radius)
            if a[:, :, c][nonzero_term].size and a[:, :, c][nonzero_term].max() >= 1.0:
                ok = False
    _verdict(4, "slope in [0,1], saturating only on flat-edge windows", ok,
             "25 images, radius 2")


def test_criterion_05_identity_limits():
    rng = np.random.default_rng(105)
    img = _random_image(rng, (16, 16))
    out, _ = lep_filter(img, FilterParams(radius=3, alpha=0.0))
    err_zero_alpha = np.abs(out.data - img.data).max()

    flat = Image(np.full((16, 16), 123.0))
    out_flat, _ = lep_filter(flat, FilterParams(radius=3, alpha=0.5))
    exact = np.array_equal(out_flat.data, flat.data)
    _verdict(5, "identity limits", err_zero_alpha <= 1e-9 and exact,
             f"alpha 0 err {err_zero_alpha:.2e}, constant exact: {exact}")


def test_criterion_06_lep_oracle_equivalence():
    rng = np.random.default_rng(106)
    worst = 0.0
    for radius in (1, 2):
        for trial in range(4):
            p = rng.uniform(0, 255, (8, 8))
            g = rng.uniform(0, 255, (8, 8))
            params = FilterParams(radius=radius, alpha=0.2, beta=1.0)
            out_self, _ = lep_filter(Image(p), params)
            want_self, _, _ = lep_oracle(p, p, radius, 0.2, 1.0)
            worst = max(worst, np.abs(out_self.plane() - want_self).max())
            out_cross = lep_filter_guided(Image(p), Image(g), params)
            want_cross, _, _ = lep_oracle(p, g, radius, 0.2, 1.0)
            worst = max(worst, np.abs(out_cross.plane() - want_cross).max())
    _verdict(6, "per-window least-squares oracle equivalence", worst <= 1e-9,
             f"max err {worst:.2e} on 8x8, radii 1,2")


def test_criterion_07_range_containment():
    rng = np.random.default_rng(107)
    images = [_random_image(rng, (12, 12)) for _ in range(10)] + _structured_images()
    ok = True
    for img in images:
        for params in (FilterParams(1, 0.1), FilterParams(3, 2.0, 0.5)):
            out, _ = lep_filter(img, params)
            lo, hi = img.data.min(), img.data.max()
            if out.data.min() < lo - 1e-12 or out.data.max() > hi + 1e-12:
                ok = False
    _verdict(7, "output within input range", ok, "15 images, 2 parameter sets")


def test_criterion_08_fusion_degeneracy():
    rng = np.random.default_rng(108)
    img = _random_image(rng, (48, 48))
    config = FusionConfig(avg_filter_size=11)
    ok = True
    details = []
    for n in (1, 2, 5):
        result = fuse([img] * n, config)
        err = np.abs(result.fused.data - img.data).max()
        tol = 1e-9 if n == 1 else 1e-6
        base_sum = sum(m.data for m in result.base_weights.maps)
        detail_sum = sum(m.data for m in result.detail_weights.maps)
        sums_ok = (np.abs(base_sum - 1.0).max() <= 1e-9
                   and np.abs(detail_sum - 1.0).max() <= 1e-9)
        ok = ok and err <= tol and sums_ok
        details.append(f"N={n}: {err:.2e}")
    _verdict(8, "fusing identical copies is the identity", ok, ", ".join(details))


def test_criterion_09_multifocus_functional():
    sharp, left_sharp, right_sharp = multifocus_pair(512, 512, 3.0)
    t0 = time.perf_counter()
    result = fuse([left_sharp, right_sharp], FusionConfig())
    elapsed = time.perf_counter() - t0
    fused = result.fused
    half = fused.width // 2
    def halves(img):
        return (Image(img.data[:, :half], max_val=img.max_val),
                Image(img.data[:, half:], max_val=img.max_val))
    fused_l, fused_r = halves(fused)
    sharp_l, sharp_r = halves(sharp)
    ssim_l = ssim(fused_l, sharp_l)
    ssim_r = ssim(fused_r, sharp_r)
    sh_fused = sharpness(fused)
    sh_max = max(sharpness(left_sharp), sharpness(right_sharp))
    ok = (ssim_l >= 0.90 and ssim_r >= 0.90
          and sh_fused >= 0.95 * sh_max and elapsed < 5.0)
    _verdict(9, "multifocus fusion quality", ok,
             f"ssim {ssim_l:.4f}/{ssim_r:.4f}, sharpness {sh_fused:.2f} vs "
             f"0.95x{sh_max:.2f}, {elapsed:.2f}s")


def test_criterion_10_refiner_comparison():
    _, left_sharp, right_sharp = multifocus_pair(512, 512, 3.0)
    sh_lep = sharpness(fuse([left_sharp, right_sharp],
                            FusionConfig(refine_filter="lep")).fused)
    sh_guided = sharpness(fuse([left_sharp, right_sharp],
                               FusionConfig(refine_filter="guided")).fused)
    delta = sh_lep - sh_guided
    # Soft check: the edge-preserving refiner must not be materially worse.
    # The measured delta is logged either way.
    ok = sh_lep >= 0.99 * sh_guided
    _verdict(10, "edge-preserving refiner vs plain guided refiner", ok,
             f"sharpness {sh_lep:.4f} vs {sh_guided:.4f}, delta {delta:+.6f}")


def test_criterion_11_bilinear_exactness():
    rng = np.random.default_rng(111)
    img = _random_image(rng, (15, 17))
    grid_err = 0.0
    for i in range(img.height):
        for j in range(img.width):
            grid_err = max(grid_err, abs(
                sample_bilinear(img, float(j), float(i))[0] - img.data[i, j, 0]))

    yy, xx = np.mgrid[0:15, 0:17].astype(np.float64)
    affine = Image(3.0 + 0.5 * xx - 0.25 * yy, max_val=255.0)
    affine_err = 0.0
    for _ in range(1000):
        x = rng.uniform(0, 16)
        y = rng.uniform(0, 14)
        want = 3.0 + 0.5 * x - 0.25 * y
        affine_err = max(affine_err, abs(sample_bilinear(affine, x, y)[0] - want))

    tiny = resize_bilinear(Image(np.array([[0.0, 2.0]])), 3, 1)
    tiny_ok = np.array_equal(tiny.plane(), np.array([[0.0, 1.0, 2.0]]))
    ok = grid_err <= 1e-12 and affine_err <= 1e-10 and tiny_ok
    _verdict(11, "bilinear sampling exactness", ok,
             f"grid {grid_err:.2e}, affine {affine_err:.2e}, 1x2 upsample exact: {tiny_ok}")


def test_criterion_12_psnr_closed_forms():
    rng = np.random.default_rng(112)
    base = np.floor(rng.uniform(0, 224, (32, 32)))
    a = Image(base)
    b = Image(base + 16.0)
    offset_db = psnr(a, b)

    flat = np.full((32, 32), 50.0)
    bumped = flat.copy()
    bumped[::2, :] += 1.0  # exactly half the samples off by one
    half_db = psnr(Image(flat), Image(bumped))

    same = psnr(a, a)
    ok = (abs(offset_db - 24.048) <= 1e-3
          and abs(half_db - 51.141) <= 1e-3
          and same == float("inf"))
    _verdict(12, "psnr closed forms", ok,
             f"offset16 {offset_db:.4f}dB, half-off {half_db:.4f}dB, identical inf: {same == float('inf')}")


def test_criterion_13_ssim_closed_forms():
    rng = np.random.default_rng(113)
    img = _random_image(rng, (24, 24))
    self_score = ssim(img, img)

    const_score = ssim(Image(np.full((16, 16), 100.0)),
                       Image(np.full((16, 16), 110.0)))

    pa = rng.uniform(0, 255, (20, 20))
    pb = np.clip(pa + rng.normal(0, 12, (20, 20)), 0, 255)
    impl = ssim(Image(pa), Image(pb))
    ref = direct_ssim(pa, pb, 255.0)
    ok = (self_score == 1.0
          and abs(const_score - 0.99548) <= 1e-4
          and abs(impl - ref) <= 1e-9)
    _verdict(13, "ssim closed forms and independent oracle", ok,
             f"self {self_score}, const {const_score:.5f}, oracle diff {abs(impl - ref):.2e}")


def test_criterion_14_zoom_noise():
    img = smooth_field(64, 64)
    spec = ZoomSpec(Rect(0, 0, 64, 64), 2.0)
    zoomed = zoom_region(img, spec)
    assert zoomed.data.shape[:2] == (128, 128)
    decimated = Image(zoomed.data[::2, ::2], max_val=img.max_val)
    db = psnr(decimated, img)
    _verdict(14, "zoom then decimate stays close", db >= 40.0, f"psnr {db:.2f}dB")


def test_criterion_15_io_round_trip(tmp_path):
    rng = np.random.default_rng(115)
    ok = True
    for i in range(100):
        h = int(rng.integers(1, 16))
        w = int(rng.integers(1, 16))
        gray = Image(rng.integers(0, 256, (h, w)).astype(np.float64))
        color = Image(rng.integers(0, 256, (h, w, 3)).astype(np.float64))
        gray_path = tmp_path / f"g{i}.pgm"
        color_path = tmp_path / f"c{i}.ppm"
        write_image(gray, gray_path)
        write_image(color, color_path)
        if not np.array_equal(read_image(gray_path).data, gray.data):
            ok = False
        if not np.array_equal(read_image(color_path).data, color.data):
            ok = False

    malformed = [
        b"", b"P9\n1 1\n255\n0", b"P2\n2 2\n255\n1 2 3",
        b"P2\n-3 2\n255\n", b"P5\n2 2\n255\n\x01\x02\x03",
        b"P2\n2 2\n10\n1 2 3 99\n", b"P3\n1 1\n255\n1 2\n",
    ]
    crash_free = True
    for k, blob in enumerate(malformed):
        path = tmp_path / f"bad{k}.pgm"
        path.write_bytes(blob)
        try:
            read_image(path)
            crash_free = False  # should have raised
        except NetpbmError:
            pass
        except Exception:
            crash_free = False
    _verdict(15, "file format round trip and malformed handling", ok and crash_free,
             "100 images x {pgm,ppm} bit-exact, 7 malformed blobs rejected")


def test_criterion_16_cli_contract(tmp_path):
    _, a, b = multifocus_pair(32, 32, 2.0)
    pa, pb = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_image(a, pa)
    write_image(b, pb)
    ghost = str(tmp_path / "ghost.pgm")

    checks = {
        "fuse ok": cli_main(["fuse", str(pa), str(pb), "-o", str(tmp_path / "f.pgm")]) == 0,
        "fuse io": cli_main(["fuse", ghost, "-o", str(tmp_path / "x.pgm")]) == 1,
        "fuse usage": cli_main(["fuse", str(pa)]) == 2,
        "zoom ok": cli_main(["zoom", str(pa), "--rect", "0,0,8,8", "--scale", "2",
                             "-o", str(tmp_path / "z.pgm")]) == 0,
        "zoom io": cli_main(["zoom", ghost, "--rect", "0,0,8,8", "--scale", "2",
                             "-o", str(tmp_path / "z2.pgm")]) == 1,
        "zoom usage": cli_main(["zoom", str(pa), "--rect", "0,0,8,8", "--scale", "0",
                                "-o", str(tmp_path / "z3.pgm")]) == 2,
        "decompose ok": cli_main(["decompose", str(pa), "-o", str(tmp_path / "d.pgm")]) == 0,
        "decompose io": cli_main(["decompose", ghost, "-o", str(tmp_path / "d2.pgm")]) == 1,
        "decompose usage": cli_main(["decompose", str(pa), "-o", str(tmp_path / "d3.pgm"),
                                     "--avg-filter-size", "4"]) == 2,
        "metrics ok": cli_main(["metrics", str(pa)]) == 0,
        "metrics io": cli_main(["metrics", ghost]) == 1,
        "metrics usage": cli_main(["metrics", str(pa), "--reference",
                                   str(tmp_path / "z.pgm")]) == 2,
    }

    dump_dir = tmp_path / "dump"
    dump_dir.mkdir()
    out = dump_dir / "fused.pgm"
    checks["dump exit"] = cli_main([
        "fuse", str(pa), str(pb), "-o", str(out), "--dump-intermediates"]) == 0
    checks["dump count"] = len(list(dump_dir.iterdir())) == 5 * 2 + 1

    failed = [name for name, passed in checks.items() if not passed]
    _verdict(16, "command-line exit codes and dump contract", not failed,
             f"{len(checks)} checks" + (f", failed: {failed}" if failed else ""))
