#!/usr/bin/env python3
"""Synthetic multi-focus fusion demo.

Builds a sharp test chart, defocuses each half in turn, fuses the two
partially blurred frames, and reports quality metrics against the sharp
original.  Writes all frames as PGM files for inspection.
"""

import argparse
import dataclasses
import pathlib
import sys
import time

from lepfuse import FusionConfig, fuse, psnr, sharpness, ssim, write_image
from lepfuse.synthetic import multifocus_pair


def run(out_dir: pathlib.Path, size: int, blur_sigma: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    sharp, left_sharp, right_sharp = multifocus_pair(size, size, blur_sigma)
    write_image(sharp, out_dir / "reference.pgm")
    write_image(left_sharp, out_dir / "source_left_sharp.pgm")
    write_image(right_sharp, out_dir / "source_right_sharp.pgm")

    print(f"{'variant':<10} {'sharpness':>10} {'psnr_db':>9} {'ssim':>7} {'time_s':>7}")
    # beta = 2 makes each refinement the guided filter, with alpha as epsilon.
    default = FusionConfig()
    for name, beta in (("lep", default.base_params.beta), ("guided", 2.0)):
        config = FusionConfig(base_params=dataclasses.replace(default.base_params, beta=beta),
                              detail_params=dataclasses.replace(default.detail_params, beta=beta))
        t0 = time.perf_counter()
        result = fuse([left_sharp, right_sharp], config)
        elapsed = time.perf_counter() - t0
        write_image(result.fused, out_dir / f"fused_{name}.pgm")
        print(f"{name:<10} {sharpness(result.fused):>10.4f} "
              f"{psnr(result.fused, sharp):>9.3f} {ssim(result.fused, sharp):>7.4f} "
              f"{elapsed:>7.3f}")

    for name, img in (("left", left_sharp), ("right", right_sharp)):
        print(f"src_{name:<6} {sharpness(img):>10.4f} "
              f"{psnr(img, sharp):>9.3f} {ssim(img, sharp):>7.4f} {'-':>7}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("demo_out"))
    parser.add_argument("--size", type=int, default=512)
    parser.add_argument("--blur-sigma", type=float, default=3.0)
    args = parser.parse_args(argv)
    run(args.out_dir, args.size, args.blur_sigma)
    return 0


if __name__ == "__main__":
    sys.exit(main())
