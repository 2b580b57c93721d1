"""Seeded inputs, CLI invocations and output checks for each workload.

A workload writes its input files into a work directory before any timing
starts, so the program under test receives only files.  The seed picks the
sensor-noise draw and which source is sharp where; image sizes and the
amount of work per job do not depend on it.

Each workload lists the ``lepfuse`` invocations that make up one job and
checks their outputs.  A check returns None when the output is right and a
one-line reason otherwise.
"""

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pnm import read_binary, to_uint8, write_binary, write_plain

NOISE_SIGMA = 2.0  # sensor noise, in 8-bit intensity units
BLUR_SIGMA = 3.0  # defocus of the out-of-focus regions


@dataclass
class Invocation:
    """One ``lepfuse.cli.main`` call of a job.

    ``outputs`` are the files the call writes on success; for a malformed
    input they are the files it must not leave behind.  ``mpix`` counts the
    source megapixels the call consumes.
    """

    label: str
    argv: list
    outputs: list = field(default_factory=list)
    malformed: bool = False
    mpix: float = 0.0


def _noisy(plane: np.ndarray, rng) -> np.ndarray:
    return to_uint8(plane + rng.normal(0.0, NOISE_SIGMA, plane.shape))


def _mpix(shape) -> float:
    return shape[0] * shape[1] / 1e6


def _expect_image(path, shape) -> tuple:
    """(samples, reason): reason is None when the file is 8-bit with ``shape``."""
    try:
        samples, maxval = read_binary(path)
    except ValueError as err:
        return None, str(err)
    if maxval != 255:
        return None, f"{Path(path).name}: maxval {maxval}, expected 255"
    if samples.shape != tuple(shape):
        return None, f"{Path(path).name}: shape {samples.shape}, expected {tuple(shape)}"
    return samples, None


def _reconstruction_error(source, base, detail, name) -> str:
    """Check that base + detail - 127.5 rebuilds ``source`` within quantisation.

    Base and shifted detail are each rounded once, so unclamped pixels
    rebuild within 1.  Where the shifted detail is clamped to 0 or 255, the
    true detail must lie beyond the clamp.
    """
    residual = source.astype(np.float64) - base
    shifted = detail.astype(np.float64) - 127.5
    inner = (detail > 0) & (detail < 255)
    worst = float(np.max(np.abs(residual[inner] - shifted[inner]), initial=0.0))
    if worst > 1.0 + 1e-9:
        return f"{name}: base + detail misses the source by {worst:.3f}"
    if np.any(residual[detail == 255] < 126.5) or np.any(residual[detail == 0] > -126.5):
        return f"{name}: clamped detail does not match the source"
    return None


def psnr_db(a: np.ndarray, b: np.ndarray) -> float:
    """PSNR in dB of two 8-bit sample arrays over all samples."""
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    return math.inf if mse == 0.0 else 10.0 * math.log10(255.0 * 255.0 / mse)


def _luma(samples: np.ndarray) -> np.ndarray:
    x = samples.astype(np.float64)
    if x.ndim == 2:
        return x
    return 0.299 * x[:, :, 0] + 0.587 * x[:, :, 1] + 0.114 * x[:, :, 2]


def _gauss_valid(plane: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    r = len(kernel) // 2
    h, w = plane.shape
    rows = sum(k * plane[t:t + h - 2 * r, :] for t, k in enumerate(kernel))
    return sum(k * rows[:, t:t + w - 2 * r] for t, k in enumerate(kernel))


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    """Mean SSIM on luma: 11x11 Gaussian windows (sigma 1.5), valid mode."""
    t = np.arange(-5, 6, dtype=np.float64)
    kernel = np.exp(-t * t / (2 * 1.5 * 1.5))
    kernel /= kernel.sum()
    x, y = _luma(a), _luma(b)
    mx, my = _gauss_valid(x, kernel), _gauss_valid(y, kernel)
    vx = _gauss_valid(x * x, kernel) - mx * mx
    vy = _gauss_valid(y * y, kernel) - my * my
    cxy = _gauss_valid(x * y, kernel) - mx * my
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    s = ((2 * mx * my + c1) * (2 * cxy + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))
    return float(np.mean(s))


class FuseWorkload:
    """``lepfuse fuse`` on N seeded multifocus sources.

    The fused output is scored against the all-in-focus reference and must
    reach ``psnr_floor``.  With ``dump`` the run also writes every
    intermediate, and the checks rebuild each source from its base and
    detail layers and require the weight maps to sum to one.
    """

    def __init__(self, sources, reference, ext, dump, psnr_floor):
        self.sources = sources
        self.reference = reference
        self.ext = ext
        self.dump = dump
        self.psnr_floor = psnr_floor
        self.paths = [f"src_{n}{ext}" for n in range(1, len(sources) + 1)]
        self.plane_bytes = reference.shape[0] * reference.shape[1] * 8  # one float64 plane
        argv = ["fuse", *self.paths, "-o", f"fused{ext}"]
        outputs = [f"fused{ext}"]
        if dump:
            argv.append("--dump-intermediates")
            for n in range(1, len(sources) + 1):
                outputs += [f"fused_base_{n}{ext}", f"fused_detail_{n}{ext}"]
                outputs += [f"fused_{kind}_{n}.pgm" for kind in ("sal", "wb", "wd")]
        self.invocations = [
            Invocation("fuse", argv, outputs, mpix=len(sources) * _mpix(reference.shape))
        ]

    def write(self, workdir: Path) -> None:
        for path, samples in zip(self.paths, self.sources):
            write_binary(workdir / path, samples)

    def check(self, inv, stdout, files) -> str:
        keys = [line.partition("=")[0] for line in stdout.splitlines()]
        if keys != ["sharpness", "naturalness"]:
            return f"fuse printed keys {keys}, expected sharpness and naturalness"
        fused, reason = _expect_image(files[f"fused{self.ext}"], self.reference.shape)
        if reason:
            return reason
        score = psnr_db(fused, self.reference)
        if not score >= self.psnr_floor:
            return f"fused PSNR {score:.2f} dB below the floor of {self.psnr_floor} dB"
        if self.dump:
            return self._check_dump(files)
        return None

    def quality(self, files) -> dict:
        """Fused output scored against the all-in-focus reference."""
        fused, _ = read_binary(files[f"fused{self.ext}"])
        return {"fused_psnr_db": psnr_db(fused, self.reference), "fused_ssim": ssim(fused, self.reference)}

    def _check_dump(self, files) -> str:
        plane_shape = self.reference.shape[:2]
        sums = {"wb": 0, "wd": 0}
        for n, source in enumerate(self.sources, start=1):
            layers = {}
            for kind in ("base", "detail"):
                name = f"fused_{kind}_{n}{self.ext}"
                layers[kind], reason = _expect_image(files[name], self.reference.shape)
                if reason:
                    return reason
            reason = _reconstruction_error(source, layers["base"], layers["detail"], f"source {n}")
            if reason:
                return reason
            for kind in ("sal", "wb", "wd"):
                samples, reason = _expect_image(files[f"fused_{kind}_{n}.pgm"], plane_shape)
                if reason:
                    return reason
                if kind in sums:
                    sums[kind] = sums[kind] + samples.astype(np.int64)
        tolerance = len(self.sources) / 2.0
        for kind, total in sums.items():
            worst = int(np.max(np.abs(total - 255)))
            if worst > tolerance:
                return f"{kind} maps sum to 255 +- {worst}, allowed +- {tolerance}"
        return None


def fuse_gray_2x2048(rng) -> FuseWorkload:
    """Two 2048^2 gray P5 sources, each sharp in one half."""
    from lepfuse import synthetic

    sharp, left, right = synthetic.multifocus_pair(2048, 2048, BLUR_SIGMA)
    halves = [left.plane(), right.plane()]
    if rng.integers(2):
        halves.reverse()
    sources = [_noisy(h, rng) for h in halves]
    return FuseWorkload(sources, to_uint8(sharp.plane()), ".pgm", dump=False, psnr_floor=38.0)


def fuse_rgb_5x512_dump(rng) -> FuseWorkload:
    """Five 512^2 colour P6 sources, each sharp in one of five vertical bands."""
    from lepfuse import Image, synthetic

    chart = synthetic.detail_chart(512, 512).plane()
    sharp = np.stack([chart, chart[:, ::-1], chart[::-1, :]], axis=2)
    blurred = synthetic.defocus(Image(sharp), BLUR_SIGMA).data
    edges = np.linspace(0, 512, 6).astype(int)
    sources = []
    for band in rng.permutation(5):
        lo, hi = edges[band], edges[band + 1]
        src = blurred.copy()
        src[:, lo:hi] = sharp[:, lo:hi]
        sources.append(_noisy(src, rng))
    return FuseWorkload(sources, to_uint8(sharp), ".ppm", dump=True, psnr_floor=34.0)


# Small plain files keep the interpreted plain parsing to about a fifth of
# the fuse-rgb-dump-plain-io job (see RgbDumpPlainIoWorkload).
PLAIN_SIDE = 128
ZOOM_W, ZOOM_H, ZOOM_SCALE = 48, 40, 2.5
HUGE_SIDE = 10 ** 6


class PlainIoWorkload:
    """metrics, zoom and decompose on seeded 128^2 plain (P2) files, plus
    three malformed files whose right outcome is exit 1 or 2 and no output.

    The ``metrics`` and ``zoom`` outputs are compared with the library's
    in-process results on the same samples.
    """

    def __init__(self, rng):
        from lepfuse import Image, Rect, ZoomSpec, psnr, ssim as lib_ssim, synthetic, zoom_region

        sharp, left, right = synthetic.multifocus_pair(PLAIN_SIDE, PLAIN_SIDE, BLUR_SIGMA)
        self.image = _noisy((left, right)[rng.integers(2)].plane(), rng)
        self.reference = to_uint8(sharp.plane())
        self.plane_bytes = self.image.size * 8  # one float64 plane
        x0 = int(rng.integers(0, PLAIN_SIDE - ZOOM_W + 1))
        y0 = int(rng.integers(0, PLAIN_SIDE - ZOOM_H + 1))
        img, ref = Image(self.image, 255.0), Image(self.reference, 255.0)
        self.expected = {"psnr": psnr(img, ref), "ssim": lib_ssim(img, ref)}
        spec = ZoomSpec(Rect(x0, y0, ZOOM_W, ZOOM_H), ZOOM_SCALE)
        self.zoom_expected = to_uint8(zoom_region(img, spec).plane())
        self.zoom_corners = self.image[[y0, y0, y0 + ZOOM_H - 1, y0 + ZOOM_H - 1],
                                       [x0, x0 + ZOOM_W - 1, x0, x0 + ZOOM_W - 1]]
        self.over_value = int(rng.integers(256, 1000))
        self.huge_samples = rng.integers(0, 256, 8)

        rect = f"{x0},{y0},{ZOOM_W},{ZOOM_H}"
        mp = _mpix(self.image.shape)
        self.invocations = [
            Invocation("metrics", ["metrics", "image.pgm", "--reference", "reference.pgm"], mpix=2 * mp),
            Invocation("zoom", ["zoom", "image.pgm", "--rect", rect, "--scale", str(ZOOM_SCALE),
                                "-o", "zoom.pgm"], ["zoom.pgm"], mpix=mp),
            Invocation("decompose", ["decompose", "image.pgm", "-o", "layers.pgm"],
                       ["layers_base.pgm", "layers_detail.pgm"], mpix=mp),
            Invocation("truncated-p5", ["zoom", "truncated.pgm", "--rect", rect, "--scale",
                                        str(ZOOM_SCALE), "-o", "bad_zoom.pgm"],
                       ["bad_zoom.pgm"], malformed=True),
            Invocation("sample-above-maxval", ["decompose", "over_maxval.pgm", "-o", "bad_over.pgm"],
                       ["bad_over_base.pgm", "bad_over_detail.pgm"], malformed=True),
            Invocation("oversized-header", ["decompose", "huge_header.pgm", "-o", "bad_huge.pgm"],
                       ["bad_huge_base.pgm", "bad_huge_detail.pgm"], malformed=True),
        ]

    def write(self, workdir: Path) -> None:
        write_plain(workdir / "image.pgm", self.image)
        write_plain(workdir / "reference.pgm", self.reference)
        truncated = workdir / "truncated.pgm"
        write_binary(truncated, self.image)
        os.truncate(truncated, truncated.stat().st_size - self.image.size // 2)
        corner = self.image[:64, :64].astype(np.int64)
        corner[-1, -1] = self.over_value
        write_plain(workdir / "over_maxval.pgm", corner)
        samples = " ".join(str(v) for v in self.huge_samples)
        (workdir / "huge_header.pgm").write_text(f"P2\n{HUGE_SIDE} {HUGE_SIDE}\n255\n{samples}\n")

    def check(self, inv, stdout, files) -> str:
        if inv.label == "metrics":
            return self._check_metrics(stdout)
        if inv.label == "zoom":
            out_shape = (round(ZOOM_H * ZOOM_SCALE), round(ZOOM_W * ZOOM_SCALE))
            zoomed, reason = _expect_image(files["zoom.pgm"], out_shape)
            if reason:
                return reason
            corners = zoomed[[0, 0, -1, -1], [0, -1, 0, -1]]
            if not np.array_equal(corners, self.zoom_corners):
                return "zoom corners differ from the crop corners"
            if not np.array_equal(zoomed, self.zoom_expected):
                return "zoom output differs from the in-process zoom_region"
            return None
        base, reason = _expect_image(files["layers_base.pgm"], self.image.shape)
        if reason:
            return reason
        detail, reason = _expect_image(files["layers_detail.pgm"], self.image.shape)
        if reason:
            return reason
        return _reconstruction_error(self.image, base, detail, "decompose")

    def quality(self, files) -> dict:
        return {}

    def _check_metrics(self, stdout) -> str:
        values = {}
        for line in stdout.splitlines():
            key, sep, raw = line.partition("=")
            try:
                values[key] = float(raw)
            except ValueError:
                return f"metrics line {line!r} does not parse"
            if not sep:
                return f"metrics line {line!r} is not key=value"
        if list(values) != ["psnr", "ssim", "sharpness", "naturalness"]:
            return f"metrics printed keys {list(values)}"
        for key, expected in self.expected.items():
            if abs(values[key] - expected) > 1e-6:
                return f"metrics {key}={values[key]} but the library computes {expected:.6f}"
        return None


class RgbDumpPlainIoWorkload:
    """The colour fuse with intermediates, then the plain-file invocations.

    Interpreted Python, which dominates the plain-file part, runs up to 1.7x
    slower in phases that outlast a run on a shared host, while numpy code
    barely drifts.  Alone, the plain-file part times too unsteadily to
    gate; here it is about a fifth of the job.
    """

    def __init__(self, rng):
        self.fuse = fuse_rgb_5x512_dump(rng)
        self.plain = PlainIoWorkload(rng)
        self.plane_bytes = self.fuse.plane_bytes
        self.invocations = self.fuse.invocations + self.plain.invocations

    def write(self, workdir: Path) -> None:
        self.fuse.write(workdir)
        self.plain.write(workdir)

    def check(self, inv, stdout, files) -> str:
        part = self.fuse if inv in self.fuse.invocations else self.plain
        return part.check(inv, stdout, files)

    def quality(self, files) -> dict:
        return self.fuse.quality(files)


WORKLOADS = {
    "fuse-gray-2x2048": fuse_gray_2x2048,
    "fuse-rgb-dump-plain-io": RgbDumpPlainIoWorkload,
}


def build(name: str, seed: int):
    """The named workload, with inputs drawn from ``seed``."""
    return WORKLOADS[name](np.random.default_rng(seed))


if __name__ == "__main__":
    # Usage: workloads.py NAME SEED WORKDIR
    # Writes the inputs and the job's invocations (invocations.json) into
    # WORKDIR, in a process of its own so that generating them does not
    # raise the peak RSS of the process that later spawns the worker.
    import json
    import sys
    from dataclasses import asdict

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    workload = build(sys.argv[1], int(sys.argv[2]))
    workdir = Path(sys.argv[3])
    workload.write(workdir)
    (workdir / "invocations.json").write_text(json.dumps([asdict(inv) for inv in workload.invocations]))
