#!/usr/bin/env python3
"""Window kernel timing: box filter across radii, the Gaussian filter,
saliency, weight normalization and weight refinement.

The integral-image formulation should make box filter runtime flat in the
radius.  Prints the median wall time of the saliency-sized Gaussian filter
(radius 5, sigma 5), of saliency with the default configuration, of
normalize_weights and of refine_weights with the default base-layer
parameters on a seeded two-source stack, and of the box filter per radius,
all on fixed random images, with the numpy version and CPU count in the
header.  Every timed row follows one untimed call of the same work.  The
refine_weights line also gives the call's tracemalloc peak in planes of
the image size, its two output maps included.
"""

import argparse
import os
import sys
import time
import tracemalloc

import numpy as np

from lepfuse import (
    FusionConfig,
    Image,
    WeightStack,
    binary_weight_maps,
    box_mean,
    gaussian_filter,
    normalize_weights,
    refine_weights,
    saliency,
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
    # Peak bytes allocated by one call, beyond what was allocated before it.
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


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

    print(f"image {args.side}x{args.side}, median of {args.repeats} runs, "
          f"numpy {np.__version__}, {os.cpu_count()} CPUs")
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
