#!/usr/bin/env python3
"""Window kernel timing: box filter across radii, the Gaussian filter,
saliency, weight normalization, weight refinement, a whole fuse and plain
PGM decoding.

The integral-image formulation should make box filter runtime flat in the
radius.  Prints the median wall time of the saliency-sized Gaussian filter
(radius 5, sigma 5), of saliency with the default configuration, of
normalize_weights and of refine_weights with the default base-layer
parameters on a seeded two-source stack, of fuse on five seeded colour
sources with every intermediate kept (as a FusionResult caller gets it),
of ``lepfuse fuse --dump-intermediates`` on the same five sources (read,
fuse from the lean pipeline, and the 26 writes), of ``lepfuse fuse`` on
two gray sources, of read_image on a plain P2 file, and of the box filter
per radius, all on fixed random images, with the numpy version, the CPU
count and the line and code-line counts of the lepfuse package in the
header; a code line is neither blank, a comment nor part of a docstring.
Every timed row follows one untimed call of the same work.  The
refine_weights line and the two command lines also give the call's peak
memory in planes of one channel of the image size (the refine_weights
peak includes its two output maps, a command's peak its sources): the
highest sum, at any moment, of the bytes tracemalloc traces and of the
shared memory maps that forked processes write into, which tracemalloc
does not see, counting each map from when it is mapped until it is
freed.
"""

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np

import lepfuse
import lepfuse.cli
import lepfuse.fusion
from lepfuse import (
    FusionConfig,
    Image,
    WeightStack,
    binary_weight_maps,
    box_mean,
    fuse,
    gaussian_filter,
    normalize_weights,
    read_image,
    refine_weights,
    saliency,
    write_image,
)


def median_ms(run, repeats: int) -> float:
    run()  # untimed, so first-touch costs do not land in the first row
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


def traced_peak(run) -> int:
    # Peak bytes allocated by one call, beyond what was allocated before it:
    # the highest sum, at any moment, of the bytes tracemalloc traces and of
    # the shared planes mapped and not yet freed.  The traced peak is read
    # and reset whenever a shared plane is mapped or freed, so each stretch
    # between two such events adds the shared bytes live during it.
    real_shared_planes, state, finalizers = lepfuse.fusion._shared_planes, {"live": 0, "peak": 0}, []

    def fold():
        top = tracemalloc.get_traced_memory()[1]
        state["peak"] = max(state["peak"], top - start + state["live"])
        tracemalloc.reset_peak()

    def freed(nbytes):
        fold()
        state["live"] -= nbytes

    def counted(count, shape):
        planes = real_shared_planes(count, shape)
        fold()
        for plane in planes:
            root = plane
            while isinstance(root, np.ndarray):
                root = root.base
            state["live"] += plane.nbytes
            finalizers.append(weakref.finalize(root.obj, freed, plane.nbytes))
        return planes

    lepfuse.fusion._shared_planes = counted
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        run()
        fold()
    finally:
        tracemalloc.stop()
        lepfuse.fusion._shared_planes = real_shared_planes
        for finalizer in finalizers:
            finalizer.detach()
    return state["peak"]


def source_lines(package: Path) -> tuple:
    # (lines, code lines) of the .py files in ``package``.
    lines = code = 0
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, documented) and ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for number, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            lines += 1
            code += bool(stripped) and not stripped.startswith("#") and number not in docstrings
    return lines, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--side", type=int, default=1024)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--radii", type=int, nargs="+",
                        default=[1, 2, 5, 10, 25, 50, 100])
    args = parser.parse_args(argv)

    rng = np.random.default_rng(0)
    img = Image(rng.uniform(0, 255, (args.side, args.side)))
    guides = [Image(rng.uniform(0, 255, (args.side, args.side))) for _ in range(2)]
    binary = binary_weight_maps([Image(rng.uniform(0, 1, (args.side, args.side))) for _ in range(2)])
    refined = WeightStack(maps=tuple(Image(rng.uniform(0, 1, (args.side, args.side)), 1.0) for _ in range(2)),
                          kind="refined")
    params = FusionConfig().base_params

    lines, code = source_lines(Path(lepfuse.__file__).parent)
    print(f"image {args.side}x{args.side}, median of {args.repeats} runs, "
          f"numpy {np.__version__}, {os.cpu_count()} CPUs, src/lepfuse {lines} lines, {code} code lines")
    ms = median_ms(lambda: gaussian_filter(img, 5, 5.0), args.repeats)
    print(f"gaussian_filter radius 5 sigma 5.0: {ms:.2f} ms")
    ms = median_ms(lambda: saliency(img), args.repeats)
    print(f"saliency: {ms:.2f} ms")
    ms = median_ms(lambda: normalize_weights(refined), args.repeats)
    print(f"normalize_weights 2 maps: {ms:.2f} ms")
    ms = median_ms(lambda: refine_weights(binary, guides, params), args.repeats)
    planes = traced_peak(lambda: refine_weights(binary, guides, params)) / (args.side * args.side * 8)
    print(f"refine_weights 2 maps radius {params.radius} alpha {params.alpha}: {ms:.2f} ms, "
          f"peak {planes:.2f} planes")
    colour = [Image(rng.uniform(0, 255, (args.side, args.side, 3))) for _ in range(5)]
    ms = median_ms(lambda: fuse(colour), args.repeats)
    print(f"fuse 5 colour sources, intermediates kept: {ms:.2f} ms")
    gray = [Image(rng.uniform(0, 255, (args.side, args.side))) for _ in range(2)]
    for label, sources, extra in (("CLI fuse --dump-intermediates, 5 colour sources", colour, ["--dump-intermediates"]),
                                  ("CLI fuse, 2 gray sources", gray, [])):
        ext = ".ppm" if sources[0].channels == 3 else ".pgm"
        with tempfile.TemporaryDirectory() as tmp:
            paths = [str(Path(tmp) / f"src{n}{ext}") for n in range(len(sources))]
            for src, path in zip(sources, paths):
                write_image(src, path)
            argv = ["fuse", *paths, "-o", str(Path(tmp) / f"fused{ext}"), *extra]

            def command():
                with contextlib.redirect_stdout(io.StringIO()):  # the report lines
                    if lepfuse.cli.main(argv) != 0:
                        raise RuntimeError(f"lepfuse {' '.join(argv)} failed")

            ms = median_ms(command, args.repeats)
            planes = traced_peak(command) / (args.side * args.side * 8)
        print(f"{label}: {ms:.2f} ms, peak {planes:.2f} planes")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plain.pgm"
        samples = rng.integers(0, 256, args.side * args.side)
        path.write_bytes(b"P2\n%d %d\n255\n" % (args.side, args.side) + b"\n".join(b"%d" % v for v in samples))
        ms = median_ms(lambda: read_image(path), args.repeats)
    print(f"read_image plain P2 {args.side}x{args.side}: {ms:.2f} ms")
    print(f"{'radius':>6} {'ms':>8}")
    baseline = None
    for radius in args.radii:
        ms = median_ms(lambda: box_mean(img, radius), args.repeats)
        if baseline is None:
            baseline = ms
        print(f"{radius:>6} {ms:>8.2f}  (x{ms / baseline:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
