"""Command-line front end: fuse, zoom, decompose, metrics.

Exit codes: 0 success, 1 I/O failure (unreadable/unwritable/undecodable
files, or memory exhausted), 2 validation failure (bad arguments,
dimension mismatches, radii or scales whose largest array would pass a
bound that grows with the inputs).  All validation, of the fusion
parameters too, runs before any output file is created or any work is
forked, and every output, each dumped intermediate too, is written
under a temporary name and renamed into place only after all of a
command's writes succeeded, so a non-zero exit leaves no outputs behind.
"""

import argparse
import collections
import contextlib
import os
import re
import sys
from pathlib import Path

import numpy as np

from .config import FUSE_FLAGS, CliConfig, _PARSERS, apply_values, parse_config_text, parse_rect
from .fusion import _layers_bytes, _scratch_bytes, decompose, fuse
from .image import _check_inside
from .metrics import MetricsReport, psnr, report
from .netpbm import NetpbmError, _check_target, _encode, _header, _write_raster, read_image, write_image
from .zoom import _zoomed_size, zoom_region

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2

# The largest array a command may allocate: 64 times its sources' samples
# at 8 bytes each, however they are held, and never less than 256 MiB.
# Window radii and zoom scales ask for arrays that grow with them rather
# than with the image, and a few thousand pixels of radius on a small
# image would ask for gigabytes.
_SCRATCH_FACTOR, _SCRATCH_FLOOR = 64, 256 << 20


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-o", "--output", help="output image path (.pgm or .ppm)")
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument("--verbose", action="store_true", help="print the effective configuration to stderr")

    parser = argparse.ArgumentParser(
        prog="lepfuse",
        description="Edge-preserving two-scale image fusion, zooming, and quality metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuse = sub.add_parser("fuse", parents=[common], help="fuse source images")
    p_fuse.add_argument("inputs", nargs="+", help="source images (PGM/PPM, equal dimensions)")
    p_fuse.add_argument(
        "--dump-intermediates",
        action="store_true",
        default=None,
        help="also write per-source base/detail/saliency/weight images",
    )
    for key in FUSE_FLAGS:
        p_fuse.add_argument("--" + key.replace("_", "-"), type=_PARSERS[key])
    p_fuse.set_defaults(handler=_cmd_fuse)

    p_zoom = sub.add_parser("zoom", parents=[common], help="crop and magnify a region")
    p_zoom.add_argument("input", help="source image")
    p_zoom.add_argument("--rect", help="crop region as x,y,w,h")
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
    # --rect is parsed here, not by argparse, so that a bad one gets
    # parse_rect's message, as it does in the file.
    for key in _PARSERS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, parse_rect(value) if key == "rect" else value)
    return cfg


def _resolve_output(args, cfg: CliConfig, channels: int) -> Path:
    # The output path of an image of ``channels`` channels, checked before
    # any work: every file a command writes goes beside it.
    if not args.output:
        raise ValueError("output path required (-o/--output)")
    path = Path(args.output)
    if cfg.output_dir and not path.is_absolute():
        path = Path(cfg.output_dir) / path
    _check_target(path, channels)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"cannot write {path}: no directory {path.parent}")
    return path


def _encoding(kind: str, data, max_val: float):
    # The (op, operand) that maps a dumped plane of ``kind`` onto [0,
    # max_val] for _encode.  Detail layers are signed, so they are
    # recentered on mid-gray; saliency is scaled by its own peak, which
    # ``data`` must hold; weights in [0, 1] are scaled by max_val.
    if kind == "base":
        return None, None
    if kind == "detail":
        return np.add, max_val / 2.0
    if kind == "sal":
        peak = float(data.max())
        return np.multiply, max_val / peak if peak > 0.0 else 0.0
    return np.multiply, max_val


def _dump_writer(write, out_path: Path, shape: tuple, max_val: float):
    # The _dump hook of fuse for --dump-intermediates: each strip of a
    # dumped kind is quantized into a uint8 raster of its rows, which
    # ``write`` appends to <stem>_<kind>_<n>.  A saliency map is scaled by
    # its peak, so its strips are held until its last one.
    maxval = int(max_val)
    stem = out_path.with_suffix("")
    layer_ext = out_path.suffix.lower()  # the layers have the fused image's channels, which _check_target matched
    saliencies = collections.defaultdict(lambda: np.empty(shape[:2] + (1,)))

    def dump(kind: str, n: int, rows: slice, data) -> None:
        if kind in ("refined_base", "refined_detail"):  # stages that have no file
            return
        if kind == "sal":
            saliencies[n][rows] = data
            if rows.stop < shape[0]:
                return
            data = saliencies.pop(n)
        raster = np.empty(data.shape, dtype=np.uint8)
        _encode(data, maxval, raster, *_encoding(kind, data, max_val))
        ext = layer_ext if kind in ("base", "detail") else ".pgm"
        write(raster, stem.with_name(f"{stem.name}_{kind}_{n + 1}{ext}"), maxval, shape[0])

    return dump


def _check_scratch(nbytes: float, sources) -> None:
    # Refuses a command whose largest array, ``nbytes`` as estimated from
    # the shapes, radii or scale, would pass the bound above.
    bound = max(_SCRATCH_FACTOR * sum(8 * src.data.size for src in sources), _SCRATCH_FLOOR)
    if nbytes > bound:
        raise ValueError(f"these settings need an array of {nbytes / 2**20:.4g} MiB, more than the "
                         f"{bound / 2**20:.4g} MiB allowed for these inputs; use smaller radii or scale")


@contextlib.contextmanager
def _atomic_outputs():
    """Yields write(img, path, maxval=None, height=None); the files appear
    only if the block succeeds.

    ``img`` is an Image, or with ``maxval`` rows of a uint8 raster from
    netpbm._encode, of a raster ``height`` rows tall (by default, these
    rows alone), which later calls for the same path append to, so a
    raster written in strips is never whole.  Each file goes to a hidden
    temporary file beside its target, renamed onto it on success; on any
    failure the files are closed, and those written are removed.
    """
    pending, streams, done = [], {}, []

    def write(img, path: Path, maxval: int = None, height: int = None) -> None:
        header = b""
        if path not in streams:
            tmp = path.with_name(f".{path.stem}.{os.getpid()}.tmp{path.suffix}")
            pending.append((tmp, path))
            if maxval is None:
                write_image(img, tmp)
                return
            height = len(img) if height is None else height
            streams[path] = [open(tmp, "wb"), height]
            header = _header((height,) + img.shape[1:], maxval)
        stream = streams[path]
        _write_raster(stream[0], header, img)
        stream[1] -= len(img)
        if stream[1] == 0:
            streams.pop(path)[0].close()

    try:
        yield write
        for tmp, path in pending:
            os.replace(tmp, path)
            done.append(path)
    except BaseException:
        for f, _ in streams.values():
            f.close()
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
    out_path = _resolve_output(args, cfg, sources[0].channels)
    _check_scratch(_scratch_bytes(first_shape, fusion_config), sources)

    # With a hook fuse keeps no intermediates; the dumped ones are written
    # as their stages end, so fuse runs inside the block that removes them
    # on failure.
    with _atomic_outputs() as write:
        dump = (_dump_writer(write, out_path, first_shape, sources[0].max_val) if cfg.dump_intermediates
                else lambda kind, n, rows, data: None)
        fused = fuse(sources, fusion_config, _dump=dump).fused
        write(fused, out_path)
    for line in report(fused, None, cfg.naturalness_priors()).to_lines():
        print(line)
    return EXIT_OK


def _cmd_zoom(args, cfg: CliConfig) -> int:
    img = read_image(args.input)
    spec = cfg.zoom_spec()
    out_path = _resolve_output(args, cfg, img.channels)
    _check_inside(img, spec.region)  # before the estimate, which an absurd rect would fail first
    out_w, out_h = _zoomed_size(spec)
    _check_scratch(8.0 * out_w * out_h * img.channels, [img])
    # The truth is checked against the zoomed size, finite once the
    # estimate passed, before any work.
    truth = read_image(args.psnr_against) if args.psnr_against else None
    out_w, out_h = int(out_w), int(out_h)
    if truth is not None and truth.data.shape != (out_h, out_w, img.channels):
        raise ValueError(
            f"ground truth {args.psnr_against} is "
            f"{truth.width}x{truth.height}x{truth.channels} but the zoomed "
            f"result is {out_w}x{out_h}x{img.channels}"
        )
    zoomed = zoom_region(img, spec)
    psnr_line = None if truth is None else f"psnr={MetricsReport._fmt(psnr(zoomed, truth, zoomed.max_val))}"
    with _atomic_outputs() as write:
        write(zoomed, out_path)
    if psnr_line is not None:
        print(psnr_line)
    return EXIT_OK


def _cmd_decompose(args, cfg: CliConfig) -> int:
    img = read_image(args.input)
    out_path = _resolve_output(args, cfg, img.channels)
    _check_scratch(_layers_bytes(img.data.shape, cfg.avg_filter_size), [img])
    pair = decompose(img, cfg.avg_filter_size)
    stem = out_path.with_suffix("")
    suffix = out_path.suffix
    detail = np.empty(img.data.shape, dtype=np.uint8)
    _encode(pair.detail.data, int(img.max_val), detail, *_encoding("detail", None, img.max_val))
    with _atomic_outputs() as write:
        write(pair.base, stem.with_name(f"{stem.name}_base{suffix}"))
        write(detail, stem.with_name(f"{stem.name}_detail{suffix}"), int(img.max_val))
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
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse would take a negative value given after its flag, such as the
    # "-1e3" of "--scale -1e3" or the "-5,0,1,1" of "--rect -5,0,1,1", for an
    # option, so "--flag value" becomes "--flag=value" for any value that
    # starts with "-" and a digit, "-." and a digit, "-inf" or "-nan".
    negative = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    for i in range(len(argv) - 1, 0, -1):
        flag = argv[i - 1]
        if flag.startswith("--") and flag != "--" and "=" not in flag and negative.match(argv[i]):
            argv[i - 1:i + 1] = [f"{flag}={argv[i]}"]
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
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
