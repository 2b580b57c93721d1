"""Command-line front end: fuse, zoom, decompose, metrics.

Exit codes: 0 success, 1 I/O failure (unreadable/unwritable/undecodable
files), 2 validation failure (bad arguments, dimension mismatches).  All
validation runs before any output file is created, and every output is
written under a temporary name and renamed into place only after all of a
command's writes succeeded, so a non-zero exit leaves no outputs behind.
"""

import argparse
import contextlib
import os
import sys
from pathlib import Path

from .config import FUSE_FLAGS, CliConfig, _PARSERS, apply_values, parse_config_text, parse_rect
from .fusion import decompose, fuse
from .image import Image
from .metrics import MetricsReport, psnr, report
from .netpbm import NetpbmError, read_image, write_image
from .zoom import zoom_region

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", help="output image path (.pgm or .ppm)")
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument("--verbose", action="store_true", help="print the effective configuration to stderr")
    common.add_argument(
        "--dump-intermediates",
        action="store_true",
        default=None,
        help="also write per-source base/detail/saliency/weight images",
    )

    parser = argparse.ArgumentParser(
        prog="lepfuse",
        description="Edge-preserving two-scale image fusion, zooming, and quality metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuse = sub.add_parser("fuse", parents=[common], help="fuse source images")
    p_fuse.add_argument("inputs", nargs="+", help="source images (PGM/PPM, equal dimensions)")
    for key, options in FUSE_FLAGS.items():
        p_fuse.add_argument("--" + key.replace("_", "-"), type=_PARSERS[key], **options)
    p_fuse.set_defaults(handler=_cmd_fuse)

    p_zoom = sub.add_parser("zoom", parents=[common], help="crop and magnify a region")
    p_zoom.add_argument("input", help="source image")
    p_zoom.add_argument("--rect", type=parse_rect, help="crop region as x,y,w,h")
    p_zoom.add_argument("--scale", type=float, help="magnification factor (> 0)")
    p_zoom.add_argument("--psnr-against", help="ground-truth image to score the zoomed result against")
    p_zoom.set_defaults(handler=_cmd_zoom)

    p_dec = sub.add_parser("decompose", parents=[common], help="write base and detail layers")
    p_dec.add_argument("input", help="source image")
    p_dec.add_argument("--avg-filter-size", type=int)
    p_dec.set_defaults(handler=_cmd_decompose)

    p_met = sub.add_parser("metrics", parents=[common], help="print quality metrics")
    p_met.add_argument("image", help="image to score")
    p_met.add_argument("--reference", help="reference image for PSNR/SSIM")
    p_met.add_argument("--csv", action="store_true", help="emit one CSV header line and one data line")
    p_met.set_defaults(handler=_cmd_metrics)
    return parser


def _effective_config(args) -> CliConfig:
    cfg = CliConfig()
    if getattr(args, "config", None):
        apply_values(cfg, parse_config_text(Path(args.config).read_text()))
    # Flags that were given override the file; absent flags parse as None.
    for key in _PARSERS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _resolve_output(args, cfg: CliConfig) -> Path:
    if not args.output:
        raise ValueError("output path required (-o/--output)")
    path = Path(args.output)
    if cfg.output_dir and not path.is_absolute():
        path = Path(cfg.output_dir) / path
    return path


def _check_encodable(path: Path, channels: int) -> None:
    # Catches suffix/channel mismatches before the pipeline runs, so failed
    # runs never leave files behind.
    suffix = path.suffix.lower()
    if suffix not in (".pgm", ".ppm"):
        raise ValueError(f"output suffix must be .pgm or .ppm, got {path.name!r}")
    expected = ".pgm" if channels == 1 else ".ppm"
    if suffix != expected:
        raise ValueError(
            f"{path.name!r} cannot hold a {channels}-channel image; use {expected}"
        )


def _shift_for_encoding(detail: Image) -> Image:
    # Detail layers are signed; recenter on mid-gray so structure survives
    # quantization.
    return Image(detail.data + detail.max_val / 2.0, detail.max_val)


def _scale_to_range(img: Image) -> Image:
    peak = float(img.data.max())
    if peak <= 0.0:
        return Image(img.data * 0.0, img.max_val)
    return Image(img.data * (img.max_val / peak), img.max_val)


@contextlib.contextmanager
def _atomic_outputs():
    """Yields write(img, path); the files appear only if the block succeeds.

    Each image goes to a hidden temporary file beside its target.  On
    success every temporary file is renamed onto its target; on any failure
    the temporary files, and targets already renamed, are removed.
    """
    pending, done = [], []

    def write(img: Image, path: Path) -> None:
        tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp{path.suffix}")
        pending.append((tmp, path))
        write_image(img, tmp)

    try:
        yield write
        for tmp, path in pending:
            os.replace(tmp, path)
            done.append(path)
    except BaseException:
        for path in [tmp for tmp, _ in pending] + done:
            with contextlib.suppress(OSError):
                path.unlink()
        raise


def _cmd_fuse(args, cfg: CliConfig) -> int:
    sources = [read_image(p) for p in args.inputs]
    first_shape = sources[0].data.shape
    for path, src in zip(args.inputs, sources):
        if src.data.shape != first_shape:
            h, w, c = first_shape
            raise ValueError(
                f"input dimensions differ: {args.inputs[0]} is {w}x{h}x{c} "
                f"but {path} is {src.width}x{src.height}x{src.channels}"
            )
    fusion_config = cfg.fusion_config()
    out_path = _resolve_output(args, cfg)
    _check_encodable(out_path, sources[0].channels)

    # Intermediates are kept only when they are to be written.
    result = fuse(sources, fusion_config, _keep_intermediates=bool(cfg.dump_intermediates))
    with _atomic_outputs() as write:
        write(result.fused, out_path)
        if cfg.dump_intermediates:
            layer_ext = ".pgm" if sources[0].channels == 1 else ".ppm"
            for n, (pair, sal, wb, wd) in enumerate(
                zip(result.layers, result.saliencies, result.base_weights.maps, result.detail_weights.maps),
                start=1,
            ):
                stem = out_path.with_suffix("")
                write(pair.base, stem.with_name(f"{stem.name}_base_{n}{layer_ext}"))
                write(_shift_for_encoding(pair.detail), stem.with_name(f"{stem.name}_detail_{n}{layer_ext}"))
                write(_scale_to_range(sal), stem.with_name(f"{stem.name}_sal_{n}.pgm"))
                write(Image(wb.data * result.fused.max_val, result.fused.max_val), stem.with_name(f"{stem.name}_wb_{n}.pgm"))
                write(Image(wd.data * result.fused.max_val, result.fused.max_val), stem.with_name(f"{stem.name}_wd_{n}.pgm"))
    for line in report(result.fused, None, cfg.naturalness_priors()).to_lines():
        print(line)
    return EXIT_OK


def _cmd_zoom(args, cfg: CliConfig) -> int:
    img = read_image(args.input)
    spec = cfg.zoom_spec()
    out_path = _resolve_output(args, cfg)
    _check_encodable(out_path, img.channels)
    zoomed = zoom_region(img, spec)
    psnr_line = None
    if args.psnr_against:
        truth = read_image(args.psnr_against)
        if truth.data.shape != zoomed.data.shape:
            raise ValueError(
                f"ground truth {args.psnr_against} is "
                f"{truth.width}x{truth.height}x{truth.channels} but the zoomed "
                f"result is {zoomed.width}x{zoomed.height}x{zoomed.channels}"
            )
        psnr_line = f"psnr={MetricsReport._fmt(psnr(zoomed, truth, zoomed.max_val))}"
    with _atomic_outputs() as write:
        write(zoomed, out_path)
    if psnr_line is not None:
        print(psnr_line)
    return EXIT_OK


def _cmd_decompose(args, cfg: CliConfig) -> int:
    img = read_image(args.input)
    out_path = _resolve_output(args, cfg)
    _check_encodable(out_path, img.channels)
    pair = decompose(img, cfg.avg_filter_size)
    stem = out_path.with_suffix("")
    suffix = out_path.suffix
    with _atomic_outputs() as write:
        write(pair.base, stem.with_name(f"{stem.name}_base{suffix}"))
        write(_shift_for_encoding(pair.detail), stem.with_name(f"{stem.name}_detail{suffix}"))
    return EXIT_OK


def _cmd_metrics(args, cfg: CliConfig) -> int:
    img = read_image(args.image)
    reference = read_image(args.reference) if args.reference else None
    rep = report(img, reference, cfg.naturalness_priors())
    if args.csv:
        print(MetricsReport.csv_header())
        print(rep.csv_row())
    else:
        for line in rep.to_lines():
            print(line)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return EXIT_OK
        return EXIT_USAGE
    try:
        cfg = _effective_config(args)
        if args.verbose:
            for key, value in cfg.items():
                print(f"{key}={value}", file=sys.stderr)
        return args.handler(args, cfg)
    except (OSError, NetpbmError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
