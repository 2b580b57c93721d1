"""CLI exit codes, file outputs, and config handling.

Each subcommand has three contractual exit paths: 0 on success, 1 when a
file cannot be read, 2 when validation fails.  Non-zero exits must leave
no output files behind.
"""

import errno
import gc
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dataclasses import fields

import lepfuse.cli
import lepfuse.fusion
import lepfuse.netpbm
from lepfuse import FilterParams, FusionConfig, Image, NaturalnessPriors, read_image, write_image
from lepfuse.cli import main
from lepfuse.config import CliConfig, apply_values, parse_config_text
from lepfuse.fusion import fuse
from lepfuse.synthetic import multifocus_pair

from oracles import config_at_beta


@pytest.fixture()
def workdir(tmp_path):
    _, a, b = multifocus_pair(48, 48, 2.0)
    write_image(a, tmp_path / "a.pgm")
    write_image(b, tmp_path / "b.pgm")
    rng = np.random.default_rng(0)
    write_image(Image(rng.integers(0, 256, (48, 48, 3)).astype(float)), tmp_path / "c.ppm")
    return tmp_path


def test_config_text_round_trip():
    text = """
    # fusion settings
    avg_filter_size = 11
    base_alpha = 0.5
    output_dir = out
    dump_intermediates = yes
    rect = 1,2,3,4

    scale = 2.5
    """
    values = parse_config_text(text)
    cfg = apply_values(CliConfig(), values)
    assert cfg.avg_filter_size == 11
    assert cfg.base_alpha == 0.5
    assert cfg.output_dir == "out"
    assert cfg.dump_intermediates is True
    assert cfg.rect == (1, 2, 3, 4)
    assert cfg.scale == 2.5


def test_config_rejects_unknown_keys_and_bad_lines():
    with pytest.raises(ValueError):
        parse_config_text("no_such_key = 1")
    with pytest.raises(ValueError):
        parse_config_text("just a line")
    with pytest.raises(ValueError):
        parse_config_text("avg_filter_size = eleven")
    with pytest.raises(ValueError):
        parse_config_text("rect = 1,2,3")


def test_config_booleans_and_unknown_keys_by_message():
    for word in ("0", "false", "No", "OFF"):
        assert parse_config_text(f"dump_intermediates = {word}") == {"dump_intermediates": False}
    with pytest.raises(ValueError, match=r"^config line 1: expected a boolean, got 'maybe'$"):
        parse_config_text("dump_intermediates = maybe")
    with pytest.raises(ValueError, match=r"^unknown config key 'no_such_key'$"):
        apply_values(CliConfig(), {"no_such_key": 1})


def test_config_materializers_validate():
    cfg = CliConfig(avg_filter_size=30)
    with pytest.raises(ValueError):
        cfg.fusion_config()
    with pytest.raises(ValueError):
        CliConfig(rect=None).zoom_spec()


def test_cli_defaults_are_the_library_defaults():
    assert CliConfig().fusion_config() == FusionConfig()
    assert CliConfig().naturalness_priors() == NaturalnessPriors()


def test_every_config_field_parses_from_a_file():
    defaults = CliConfig()
    unset = {"rect": "1,2,3,4", "output_dir": "out", "dump_intermediates": "true"}
    text = "\n".join(
        f"{f.name} = {unset.get(f.name, getattr(defaults, f.name))}" for f in fields(CliConfig)
    )
    values = parse_config_text(text)
    assert set(values) == {f.name for f in fields(CliConfig)}
    cfg = apply_values(CliConfig(), values)
    assert cfg.fusion_config() == FusionConfig()
    assert cfg.naturalness_priors() == NaturalnessPriors()
    assert (cfg.rect, cfg.output_dir, cfg.dump_intermediates) == ((1, 2, 3, 4), "out", True)


def test_every_fusion_field_is_a_fuse_flag(workdir, capsys):
    # FusionConfig fields flatten to CLI keys; FilterParams fields become
    # <layer>_<name>, e.g. base_params.alpha -> base_alpha.
    defaults = FusionConfig()
    expected = {}
    for f in fields(FusionConfig):
        value = getattr(defaults, f.name)
        if isinstance(value, FilterParams):
            layer = f.name.removesuffix("_params")
            expected.update((f"{layer}_{p.name}", getattr(value, p.name)) for p in fields(FilterParams))
        else:
            expected[f.name] = value
    # Valid non-default values: odd ints stay odd, betas stay within [0, 2].
    changed = {
        key: value + 2 if isinstance(value, int) else value * 2
        for key, value in expected.items()
    }
    argv = ["fuse", str(workdir / "a.pgm"), str(workdir / "b.pgm"), "-o", str(workdir / "flags.pgm"), "--verbose"]
    for key, value in changed.items():
        argv += ["--" + key.replace("_", "-"), str(value)]
    assert main(argv) == 0
    printed = set(capsys.readouterr().err.splitlines())
    for key, value in changed.items():
        assert f"{key}={value}" in printed


# --- fuse --------------------------------------------------------------------

def test_fuse_happy_path(workdir, capsys):
    out = workdir / "fused.pgm"
    code = main(["fuse", str(workdir / "a.pgm"), str(workdir / "b.pgm"), "-o", str(out)])
    assert code == 0
    assert out.exists()
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("sharpness=")
    assert lines[1].startswith("naturalness=")


def test_fuse_single_input_reproduces_source(workdir):
    out = workdir / "single.pgm"
    assert main(["fuse", str(workdir / "a.pgm"), "-o", str(out)]) == 0
    source = read_image(workdir / "a.pgm")
    fused = read_image(out)
    # Rounding to integers is the only allowed difference.
    assert np.abs(fused.data.astype(np.float64) - source.data).max() <= 1.0


def test_fuse_dump_intermediates_file_count(workdir):
    out = workdir / "dumped.pgm"
    code = main([
        "fuse", str(workdir / "a.pgm"), str(workdir / "b.pgm"),
        "-o", str(out), "--dump-intermediates",
    ])
    assert code == 0
    produced = sorted(p.name for p in workdir.glob("dumped*"))
    assert len(produced) == 5 * 2 + 1
    for tag in ("base", "detail", "sal", "wb", "wd"):
        for n in (1, 2):
            assert f"dumped_{tag}_{n}.pgm" in produced


@pytest.mark.parametrize("cpus", [1, 2, 64])
@pytest.mark.parametrize("beta", ["1", "2"])
@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("ext", [".pgm", ".ppm"])
def test_fuse_output_same_with_and_without_intermediates(tmp_path, monkeypatch, capsys, cpus, beta, count, ext):
    """Without --dump-intermediates fuse keeps no intermediates, yet writes
    the same bytes and prints the same report as with it."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(count)
    channels = 1 if ext == ".pgm" else 3
    inputs = []
    for n in range(count):
        path = tmp_path / f"src{n}{ext}"
        write_image(Image(rng.integers(0, 256, (37, 29, channels)).astype(float)), path)
        inputs.append(str(path))
    outputs = {}
    for mode, extra in (("lean", []), ("dump", ["--dump-intermediates"])):
        out = tmp_path / mode / f"fused{ext}"
        out.parent.mkdir()
        before = threading.active_count()
        assert main(["fuse", *inputs, "-o", str(out), "--base-beta", beta, "--detail-beta", beta, *extra]) == 0
        assert threading.active_count() == before
        outputs[mode] = out.read_bytes(), capsys.readouterr().out
    assert outputs["lean"] == outputs["dump"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("dump", [False, True])
def test_fuse_survives_a_failed_fork(workdir, monkeypatch, capsys, dump):
    """When os.fork fails, fuse runs the jobs in this process instead, and
    exits 0 with the same files and report as with working forks."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: 64)
    extra = ["--dump-intermediates"] if dump else []
    outputs, tries = {}, []
    for mode in ("forked", "unforked"):
        if mode == "unforked":
            def failing_fork():
                tries.append(None)
                raise OSError(errno.ENOMEM, "Cannot allocate memory")

            monkeypatch.setattr(os, "fork", failing_fork)
        out = workdir / mode / "fused.pgm"
        out.parent.mkdir()
        assert main(["fuse", str(workdir / "a.pgm"), str(workdir / "b.pgm"), "-o", str(out), *extra]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.parent.iterdir())}
        outputs[mode] = files, capsys.readouterr()
    assert len(tries) == 2  # one per streamed stage: saliency, then the weight fits
    assert len(outputs["forked"][0]) == (11 if dump else 1)
    assert outputs["forked"] == outputs["unforked"]


def _write_kept_result(result, out_path):
    # The encoding of every dumped file from a kept FusionResult, as the
    # command line wrote them before it dumped from the lean pipeline: the
    # oracle for the bytes of --dump-intermediates.
    max_val = result.fused.max_val
    stem = out_path.with_suffix("")
    layer_ext = out_path.suffix
    write_image(result.fused, out_path)
    for n, (pair, sal, wb, wd) in enumerate(
        zip(result.layers, result.saliencies, result.base_weights.maps, result.detail_weights.maps), start=1,
    ):
        peak = float(sal.data.max())
        scaled = sal.data * 0.0 if peak <= 0.0 else sal.data * (sal.max_val / peak)
        write_image(pair.base, stem.with_name(f"{stem.name}_base_{n}{layer_ext}"))
        write_image(Image(pair.detail.data + pair.detail.max_val / 2.0, max_val),
                    stem.with_name(f"{stem.name}_detail_{n}{layer_ext}"))
        write_image(Image(scaled, sal.max_val), stem.with_name(f"{stem.name}_sal_{n}.pgm"))
        write_image(Image(wb.data * max_val, max_val), stem.with_name(f"{stem.name}_wb_{n}.pgm"))
        write_image(Image(wd.data * max_val, max_val), stem.with_name(f"{stem.name}_wd_{n}.pgm"))


@pytest.mark.parametrize("cpus", [1, 2, 64])
@pytest.mark.parametrize("beta", ["1", "2"])
@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("ext", [".pgm", ".ppm"])
def test_dump_matches_kept_result(tmp_path, monkeypatch, cpus, beta, count, ext):
    """--dump-intermediates writes each file from the lean pipeline as its
    stage ends, byte for byte as the kept FusionResult encodes, and runs
    fuse with a hook, so that it keeps no intermediates."""
    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
    rng = np.random.default_rng(10 + count)
    inputs = []
    for n in range(count):
        path = tmp_path / f"src{n}{ext}"
        write_image(Image(rng.integers(0, 256, (37, 29, 1 if ext == ".pgm" else 3)).astype(float)), path)
        inputs.append(path)
    (tmp_path / "kept").mkdir()
    _write_kept_result(fuse([read_image(p) for p in inputs], config_at_beta(float(beta))),
                       tmp_path / "kept" / f"fused{ext}")
    real_fuse, results = lepfuse.cli.fuse, []

    def recorded_fuse(*args, **kwargs):
        assert callable(kwargs["_dump"])
        results.append(real_fuse(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(lepfuse.cli, "fuse", recorded_fuse)
    out = tmp_path / "dump" / f"fused{ext}"
    out.parent.mkdir()
    assert main(["fuse", *map(str, inputs), "-o", str(out), "--base-beta", beta, "--detail-beta", beta,
                 "--dump-intermediates"]) == 0
    assert len(results) == 1 and results[0].layers is results[0].base_weights is None
    kept = {p.name: p.read_bytes() for p in sorted((tmp_path / "kept").iterdir())}
    dumped = {p.name: p.read_bytes() for p in sorted(out.parent.iterdir())}
    assert len(kept) == 5 * count + 1
    assert dumped == kept


@pytest.mark.parametrize("extra, config, message", [
    (["--base-beta", "3"], None, "error: beta must lie in [0, 2], got 3.0"),
    (["--refine-filter", "guided"], None, "unrecognized arguments: --refine-filter guided"),
    ([], "refine_filter = guided\n", "error: unknown config key 'refine_filter' on line 1"),
], ids=["beta-3", "refine-filter-flag", "refine-filter-config"])
def test_fuse_bad_beta_or_refiner_exits_2_before_any_work(workdir, monkeypatch, capsys, extra, config, message):
    """A beta outside [0, 2] is refused before fuse forks or writes
    anything.  Beta alone chooses the refiner, 2 being the guided filter,
    so --refine-filter and a config line refine_filter = guided are
    unknown, and refused as early."""
    forks, writes = [], []
    monkeypatch.setattr(os, "fork", lambda: forks.append(None))
    monkeypatch.setattr(lepfuse.netpbm, "_write_raster", lambda *args: writes.append(args))
    monkeypatch.setattr(lepfuse.cli, "_write_raster", lambda *args: writes.append(args))
    if config is not None:
        (workdir / "cfg.txt").write_text(config)
        extra = ["--config", str(workdir / "cfg.txt")]
    before = sorted(p.name for p in workdir.iterdir())
    assert main(["fuse", str(workdir / "a.pgm"), str(workdir / "b.pgm"), "-o", str(workdir / "never.pgm"),
                 *extra, "--dump-intermediates"]) == 2
    assert forks == [] and writes == []
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in workdir.iterdir()) == before


def test_fuse_overflowing_weight_floor_exits_2_before_any_work(workdir, monkeypatch, capsys):
    """A weight floor for which the sum of the shifted weights overflows
    to inf, which would make every weight 0 and the output black, is
    refused before fuse forks or writes anything."""
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(None))
    out = workdir / "never.pgm"
    assert main(["fuse", str(workdir / "a.pgm"), str(workdir / "b.pgm"), "-o", str(out),
                 "--weight-floor", "1e308"]) == 2
    assert forks == [] and not out.exists()
    assert "weight_floor" in capsys.readouterr().err


def test_fuse_tiny_saliency_sigma_takes_the_limit(workdir, capsys):
    """A saliency sigma whose 2 sigma^2 underflows to 0 fuses, without a
    warning, as the smallest sigma that does not: its Gaussian is the
    delta kernel, so every source still competes."""
    outputs = []
    for sigma in ("1e-300", "1e-160"):
        out = workdir / f"fused_{sigma}.pgm"
        assert main(["fuse", str(workdir / "a.pgm"), str(workdir / "b.pgm"), "-o", str(out),
                     "--saliency-sigma", sigma]) == 0
        outputs.append((out.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert read_image(workdir / "fused_1e-300.pgm").data.tobytes() != read_image(workdir / "a.pgm").data.tobytes()


def test_fuse_huge_alpha_takes_the_limit_quietly(workdir):
    """A regularizer so large that alpha times the gradient term overflows
    is the alpha -> inf limit (slope 0, the window mean): fuse exits 0
    with nothing on stderr, from this process or a forked one.  It runs
    in a child interpreter with the default warning filters, so a
    warning would print rather than raise."""
    env = dict(os.environ, PYTHONPATH=str(Path(lepfuse.cli.__file__).resolve().parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "lepfuse.cli", "fuse", "a.pgm", "b.pgm", "-o", "o.pgm",
         "--base-alpha", "1e308", "--detail-alpha", "1e300"],
        cwd=workdir, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stderr == ""
    assert (workdir / "o.pgm").exists()


@pytest.mark.parametrize("command", [
    ["zoom", "a.pgm", "--rect", "0,0,5,5", "--scale", "2", "-o", "z.pgm"],
    ["decompose", "a.pgm", "-o", "z.pgm"],
    ["metrics", "a.pgm", "-o", "z.pgm"],
])
def test_dump_intermediates_only_for_fuse(workdir, monkeypatch, command):
    """--dump-intermediates belongs to fuse alone; the other commands
    refuse it as an unknown flag and write nothing."""
    monkeypatch.chdir(workdir)
    before = sorted(p.name for p in workdir.iterdir())
    assert main([*command, "--dump-intermediates"]) == 2
    assert sorted(p.name for p in workdir.iterdir()) == before


def _write_20x20_pair(tmp_path):
    rng = np.random.default_rng(5)
    for name in ("a.pgm", "b.pgm"):
        write_image(Image(rng.integers(0, 256, (20, 20)).astype(float)), tmp_path / name)


@pytest.mark.parametrize("command", [
    ["zoom", "a.pgm", "--rect", "0,0,10,10", "--scale", "400", "-o", "out.pgm"],
    ["fuse", "a.pgm", "b.pgm", "--base-radius", "1100", "-o", "out.pgm"],
    ["fuse", "a.pgm", "b.pgm", "--base-radius", "1100", "-o", "out.pgm", "--dump-intermediates"],
])
def test_out_of_memory_exits_1_without_traceback(tmp_path, command):
    """An allocation that fails exits 1 with a one-line message and no
    traceback, from a forked stage too, and leaves no output.  Each
    command's largest array (128 MB for the zoom, a 198 MB window-mean
    ring for the fuse) is within the bound that the commands check, so it
    is allocated.  The command runs in a child interpreter whose address
    space is capped at 96 MiB beyond what it holds after the import, so
    the allocation fails at once instead of reaching the host."""
    _write_20x20_pair(tmp_path)
    code = (
        "import resource, sys; from lepfuse.cli import main; "
        "size = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize() + (96 << 20); "
        "resource.setrlimit(resource.RLIMIT_AS, (size, size)); sys.exit(main(sys.argv[1:]))"
    )
    src = Path(lepfuse.cli.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-c", code, *command], cwd=tmp_path, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: out of memory") and done.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm"]


@pytest.mark.parametrize("command", [
    ["zoom", "a.pgm", "--rect", "0,0,10,10", "--scale", "1e9", "-o", "out.pgm"],
    ["zoom", "a.pgm", "--rect", "0,0,10,10", "--scale", "1e308", "-o", "out.pgm"],
    ["fuse", "a.pgm", "b.pgm", "--base-radius", "100000", "-o", "out.pgm"],
    ["fuse", "a.pgm", "b.pgm", "--saliency-radius", "100000000", "-o", "out.pgm"],
    ["fuse", "a.pgm", "b.pgm", "--avg-filter-size", "200001", "-o", "out.pgm"],
    ["fuse", "a.pgm", "b.pgm", "--base-radius", "3000", "-o", "out.pgm", "--dump-intermediates"],
    ["decompose", "a.pgm", "--avg-filter-size", "200001", "-o", "out.pgm"],
])
def test_oversized_scratch_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command):
    """A radius or scale whose largest array would pass 64 times the
    sources' samples (at least 256 MiB) is refused with exit 2 and one
    line, before any file is created or any work is forked: the command
    forks nothing and traces under 1 MiB.  It runs in this process, with
    no limit on its memory.  Each of these once asked the host for
    gigabytes or more, or raised OverflowError."""
    _write_20x20_pair(tmp_path)
    monkeypatch.chdir(tmp_path)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    tracemalloc.start()
    try:
        code = main(command)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "MiB" in err
    assert peak < 1 << 20
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm"]


@pytest.mark.parametrize("command", [
    ["zoom", "a.pgm", "--rect", "0,0,20,20", "--scale", "50", "-o", "out.pgm"],
    ["fuse", "a.pgm", "b.pgm", "--base-radius", "21", "--detail-radius", "20", "--saliency-radius", "21",
     "--avg-filter-size", "43", "-o", "out.pgm", "--dump-intermediates"],
    ["decompose", "a.pgm", "--avg-filter-size", "43", "-o", "out.pgm"],
])
def test_radii_past_the_image_still_run(tmp_path, monkeypatch, command):
    """Radii one past the image size, and a large zoom of a small image,
    stay within the bound and run."""
    _write_20x20_pair(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(command) == 0
    assert (tmp_path / ("out_base.pgm" if command[0] == "decompose" else "out.pgm")).exists()


@pytest.mark.parametrize("maxval", [1, 200, 255])
@pytest.mark.parametrize("op, operand", [(None, None), (np.add, 0.5), (np.multiply, 1.0), (np.multiply, 2.7)],
                         ids=["base", "detail", "weight", "saliency"])
def test_encode_casts_as_the_floor_did(op, operand, maxval):
    """_encode lets the cast to uint8 take the floor: after the clamp to
    [0, maxval] and the +0.5 every value is at least 0.5, where the cast
    truncates as floor does.  For each operand of a dumped kind (none for
    base layers, + maxval/2 for details, * maxval for weights, * maxval /
    peak for saliency), the bytes equal those of the clamp, +0.5 and
    floor, on values whose op lands at, and one ulp either side of, every
    k + 0.5, and below 0 and above maxval."""
    operand = None if op is None else operand * maxval
    halves = np.arange(-3, maxval + 4) + 0.5
    targets = np.concatenate([halves, np.nextafter(halves, -np.inf), np.nextafter(halves, np.inf),
                              [-1e300, -1.0, -5e-324, -0.0, 0.0, 5e-324, 0.25, maxval, maxval + 0.25, 1e300]])
    if op is np.add:
        data = np.concatenate([targets, targets - operand])
    elif op is np.multiply:
        data = np.concatenate([targets, targets / operand])
    else:
        data = targets
    data = data.reshape(-1, 1, 1)
    shifted = data if op is None else op(data, operand)
    want = np.floor(np.clip(shifted, 0.0, float(maxval)) + 0.5).astype(np.uint8)
    got = np.empty(data.shape, dtype=np.uint8)
    lepfuse.netpbm._encode(data, maxval, got, op, operand)
    assert got.tobytes() == want.tobytes()


def _fuse_peak_planes(tmp_path, monkeypatch, traced_peak, cpus, extra, count=2, channels=1) -> float:
    # The peak of the one fuse call of a 512^2 job of ``count`` sources
    # with ``channels`` channels, split over up to ``cpus`` processes, in
    # planes beyond its sources: the traced peak of this process, which
    # includes any uint8 raster and encoding scratch of files written
    # inside it, plus the shared planes live at each moment.
    side = 512
    rng = np.random.default_rng(3)
    ext = ".pgm" if channels == 1 else ".ppm"
    inputs = [tmp_path / f"src{n}{ext}" for n in range(count)]
    for path in inputs:
        write_image(Image(rng.integers(0, 256, (side, side, channels)).astype(float)), path)
    real_fuse, peaks = lepfuse.cli.fuse, []

    def traced_fuse(*args, **kwargs):
        result = []
        peaks.append(traced_peak(lambda: result.append(real_fuse(*args, **kwargs))) / (side * side * 8))
        return result[0]

    monkeypatch.setattr(lepfuse.fusion, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(lepfuse.cli, "fuse", traced_fuse)
    out = tmp_path / f"fused{ext}"
    assert main(["fuse", *map(str, inputs), "-o", str(out), *extra]) == 0
    assert len(peaks) == 1
    return peaks[0]


@pytest.mark.parametrize("cpus", [1, 2])
def test_dump_fuse_holds_few_planes(tmp_path, monkeypatch, traced_peak, cpus):
    """With --dump-intermediates, the fuse call of a gray N = 2 512^2 job
    holds at most 3.9 planes beyond its sources, in one process or in
    two.  It measured 3.88 planes in one process and 3.59 in two on numpy
    2.4.  In two, it holds the two saliency maps that the dump scales by
    their peaks until their last strips, or in the fit stage the fused
    image, the winner plane, the rings and strip scratch of the streamed
    fits and two detail fits in strips of 8 rows.  In one, it holds two
    shared planes of base weights, over which it writes the fused image,
    and the scratch of the two detail fits.  Holding two shared weight
    planes in both, with only the detail fits streamed, measured 3.91 and
    3.89; keeping the intermediates, as the dump once did, took 17.1
    planes before any file was encoded."""
    assert _fuse_peak_planes(tmp_path, monkeypatch, traced_peak, cpus, ["--dump-intermediates"]) <= 3.9
    assert len(list(tmp_path.glob("fused*"))) == 11


@pytest.mark.parametrize("cpus", [1, 2])
def test_lean_fuse_holds_few_planes(tmp_path, monkeypatch, traced_peak, cpus):
    """Without intermediates, the fuse call of a gray N = 2 512^2 job
    holds at most 3.9 planes beyond its sources, in one process or in two
    (3.86 and 3.10 on numpy 2.4; 3.91 and 3.87 with two whole planes of
    base weights in both)."""
    assert _fuse_peak_planes(tmp_path, monkeypatch, traced_peak, cpus, []) <= 3.9


@pytest.mark.parametrize("cpus", [1, 2])
def test_dump_fuse_of_colour_holds_few_planes(tmp_path, monkeypatch, traced_peak, cpus):
    """With --dump-intermediates, the fuse call of an RGB N = 3 512^2 job
    holds at most 6.9 planes beyond its sources, in one process or in
    two.  It measured 6.69 planes in one process and 6.85 in two on numpy
    2.4: the three planes of the fused image, and, while the fits stream,
    the layers of three colour sources, one strip of details at a time,
    the rings, the blend's strips and the scratch of the fits that this
    process runs, in two processes two detail fits in strips of 8 rows,
    in one the three detail fits in strips of 5 rows beside three shared
    planes of base weights, which the fused image is written over.  With
    two whole planes of base weights in both, it measured 6.87 and 5.49,
    where this process took no fit."""
    assert _fuse_peak_planes(tmp_path, monkeypatch, traced_peak, cpus, ["--dump-intermediates"], 3, 3) <= 6.9
    assert len(list(tmp_path.glob("fused*"))) == 16


# The file that each case's failing write was to make.  fuse with
# --dump-intermediates writes each saliency map at the first stage's last
# strip, sal_1 and sal_2.  Then, for each strip of the blend, it writes
# the base and detail weights and the layers: wb_1, wb_2, wd_1, wd_2,
# base_1, detail_1, base_2, detail_2.  The first strip of these 48-row
# images has 2 rows (the layers' window mean lags by its radius), so write
# 3 is the first strip of wb_1, made while a forked child streams fits,
# and write 14 is the second strip of wd_2, whose header and first strip
# are already written.
_FAILING_FILE = {("fuse", 1): "dumped_sal_1", ("fuse", 3): "dumped_wb_1", ("fuse", 5): "dumped_wd_1",
                 ("fuse", 8): "dumped_detail_1", ("fuse", 14): "dumped_wd_2", ("decompose", 2): "layers_detail"}


@pytest.mark.parametrize("command, failing_write", [
    (["fuse", "a.pgm", "b.pgm", "-o", "dumped.pgm", "--dump-intermediates"], 3),
    (["decompose", "a.pgm", "-o", "layers.pgm"], 2),
    (["fuse", "a.pgm", "b.pgm", "-o", "dumped.pgm", "--dump-intermediates"], 1),
    (["fuse", "a.pgm", "b.pgm", "-o", "dumped.pgm", "--dump-intermediates"], 5),
    (["fuse", "a.pgm", "b.pgm", "-o", "dumped.pgm", "--dump-intermediates"], 8),
    (["fuse", "a.pgm", "b.pgm", "-o", "dumped.pgm", "--dump-intermediates"], 14),
])
def test_failed_write_leaves_no_output(workdir, monkeypatch, capsys, command, failing_write):
    """A write that fails part way exits 1 and leaves neither the files
    written before it nor any temporary file behind, nor an open file (a
    ResourceWarning is an error here), nor a forked process: a write
    that fails in a streamed stage stops the children that stream to it.  Every byte of every file is written through
    netpbm._write_raster, which the command line calls for each block of
    rows of an encoded raster and write_image calls for images."""
    real_write = lepfuse.netpbm._write_raster
    real_streamed, stages = lepfuse.fusion._streamed, []
    calls = []

    def flaky_write(f, header, rows):
        calls.append(Path(f.name))
        if len(calls) == failing_write:
            raise OSError("no space left on device")
        real_write(f, header, rows)

    def counted_streamed(*args):
        stages.append(None)
        real_streamed(*args)

    monkeypatch.setattr(lepfuse.netpbm, "_write_raster", flaky_write)
    monkeypatch.setattr(lepfuse.cli, "_write_raster", flaky_write)
    monkeypatch.setattr(lepfuse.fusion, "_streamed", counted_streamed)
    monkeypatch.chdir(workdir)
    before = sorted(p.name for p in workdir.iterdir())
    assert main(command) == 1
    assert len(calls) == failing_write
    assert calls[-1].name.startswith(f".{_FAILING_FILE[command[0], failing_write]}.")
    assert calls.count(calls[-1]) == (2 if failing_write == 14 else 1)
    assert len(stages) == (0 if command[0] != "fuse" else 1 if "_sal_" in calls[-1].name else 2)
    gc.collect()  # an unclosed file would warn when collected
    assert sorted(p.name for p in workdir.iterdir()) == before
    assert "no space left on device" in capsys.readouterr().err
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_fuse_mismatched_dimensions_exit_2_no_output(workdir, tmp_path, capsys):
    small = tmp_path / "small.pgm"
    write_image(Image(np.zeros((24, 48))), small)
    out = workdir / "never.pgm"
    code = main(["fuse", str(workdir / "a.pgm"), str(small), "-o", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "48x48" in err and "48x24" in err  # both sizes named


def test_fuse_mixed_max_val_exit_2_no_output(workdir, tmp_path, capsys):
    dim = tmp_path / "dim.pgm"
    write_image(Image(np.full((48, 48), 7.0), 15.0), dim)
    out = workdir / "never.pgm"
    code = main(["fuse", str(workdir / "a.pgm"), str(dim), "-o", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "15" in err and "255" in err  # both max values named


def test_fuse_missing_input_exit_1(workdir):
    code = main(["fuse", str(workdir / "ghost.pgm"), "-o", str(workdir / "x.pgm")])
    assert code == 1


def test_fuse_requires_output_path(workdir):
    assert main(["fuse", str(workdir / "a.pgm")]) == 2


def test_fuse_flags_override_config_file(workdir):
    conf = workdir / "fuse.conf"
    conf.write_text("avg_filter_size = 5\nbase_radius = 4\n")
    out = workdir / "cfg.pgm"
    code = main([
        "fuse", str(workdir / "a.pgm"), "-o", str(out),
        "--config", str(conf), "--avg-filter-size", "7",
    ])
    assert code == 0
    assert out.exists()


def test_fuse_bad_config_value_exit_2(workdir):
    conf = workdir / "bad.conf"
    conf.write_text("avg_filter_size = 6\n")  # even: invalid
    code = main(["fuse", str(workdir / "a.pgm"), "-o", str(workdir / "y.pgm"), "--config", str(conf)])
    assert code == 2


def test_fuse_color_inputs(workdir):
    out = workdir / "color.ppm"
    assert main(["fuse", str(workdir / "c.ppm"), "-o", str(out)]) == 0
    assert read_image(out).channels == 3


def test_fuse_verbose_prints_effective_config(workdir, capsys):
    out = workdir / "v.pgm"
    main(["fuse", str(workdir / "a.pgm"), "-o", str(out), "--verbose", "--base-radius", "9"])
    err = capsys.readouterr().err
    assert "base_radius=9" in err


# --- zoom --------------------------------------------------------------------

def test_zoom_happy_path_dimensions(workdir):
    out = workdir / "z.pgm"
    code = main(["zoom", str(workdir / "a.pgm"), "--rect", "8,8,16,12", "--scale", "2", "-o", str(out)])
    assert code == 0
    z = read_image(out)
    assert (z.width, z.height) == (32, 24)


def test_zoom_identity_scale_equals_crop(workdir):
    out = workdir / "crop.pgm"
    code = main(["zoom", str(workdir / "a.pgm"), "--rect", "0,0,8,8", "--scale", "1", "-o", str(out)])
    assert code == 0
    source = read_image(workdir / "a.pgm")
    z = read_image(out)
    assert np.array_equal(z.data, source.data[:8, :8])


def test_zoom_psnr_against_prints_line(workdir, capsys):
    truth = workdir / "truth.pgm"
    code = main(["zoom", str(workdir / "a.pgm"), "--rect", "0,0,8,8", "--scale", "1", "-o", str(truth)])
    assert code == 0
    out = workdir / "z2.pgm"
    code = main([
        "zoom", str(workdir / "a.pgm"), "--rect", "0,0,8,8", "--scale", "1",
        "-o", str(out), "--psnr-against", str(truth),
    ])
    assert code == 0
    assert "psnr=inf" in capsys.readouterr().out


def test_zoom_psnr_against_another_size_exits_2(workdir, capsys):
    out = workdir / "z4.pgm"
    truth = workdir / "b.pgm"
    code = main(["zoom", str(workdir / "a.pgm"), "--rect", "0,0,8,8", "--scale", "1", "-o", str(out),
                 "--psnr-against", str(truth)])
    assert code == 2
    assert capsys.readouterr().err == f"error: ground truth {truth} is 48x48x1 but the zoomed result is 8x8x1\n"
    assert not out.exists()


@pytest.mark.parametrize("truth, code, message", [
    ("missing.pgm", 1, "error: [Errno 2] No such file or directory: '{}'\n"),
    ("b.pgm", 2, "error: ground truth {} is 48x48x1 but the zoomed result is 10x10x1\n"),
], ids=["missing", "another-size"])
def test_zoom_checks_the_truth_before_zooming(workdir, monkeypatch, capsys, truth, code, message):
    """A missing ground truth, or one of another size than the zoomed
    result, is refused before zoom_region runs."""
    def no_zoom(*args):
        raise AssertionError("zoom_region ran")

    monkeypatch.setattr(lepfuse.cli, "zoom_region", no_zoom)
    out, truth = workdir / "z5.pgm", workdir / truth
    assert main(["zoom", str(workdir / "a.pgm"), "--rect", "0,0,4,4", "--scale", "2.5", "-o", str(out),
                 "--psnr-against", str(truth)]) == code
    assert capsys.readouterr().err == message.format(truth)
    assert not out.exists()


def test_zoom_validation_paths(workdir):
    # Scale zero.
    assert main(["zoom", str(workdir / "a.pgm"), "--rect", "0,0,4,4", "--scale", "0", "-o", str(workdir / "n1.pgm")]) == 2
    # Rect out of bounds.
    assert main(["zoom", str(workdir / "a.pgm"), "--rect", "40,40,16,16", "--scale", "2", "-o", str(workdir / "n2.pgm")]) == 2
    # Malformed rect string (argparse-level).
    assert main(["zoom", str(workdir / "a.pgm"), "--rect", "1,2,3", "--scale", "1", "-o", str(workdir / "n3.pgm")]) == 2
    # No rect at all.
    assert main(["zoom", str(workdir / "a.pgm"), "--scale", "1", "-o", str(workdir / "n4.pgm")]) == 2
    for name in ("n1.pgm", "n2.pgm", "n3.pgm", "n4.pgm"):
        assert not (workdir / name).exists()


def test_zoom_rect_outside_the_image_is_refused_before_the_scratch_estimate(tmp_path, monkeypatch, capsys):
    """A rect far outside the image gets the crop's out-of-bounds message,
    not the scratch estimate's for the output it would zoom to."""
    _write_20x20_pair(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(["zoom", "a.pgm", "--rect", "0,0,99999999999999999999,10", "--scale", "1", "-o", "out.pgm"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: rect ") and "out of bounds for 20x20 image" in err and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm"]


@pytest.mark.parametrize("rect", [["--rect", "-5,-5,10,10"], ["--rect=-5,-5,10,10"], ["--rect", "-5,0,1,1"]])
def test_negative_rect_gets_the_rect_message(tmp_path, monkeypatch, capsys, rect):
    """A rect with a negative origin exits 2 with the rect's own one-line
    message, whether it follows --rect as the next argument, which
    argparse would read as an option, or after "=".  Nothing is written."""
    _write_20x20_pair(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main(["zoom", "a.pgm", *rect, "--scale", "2", "-o", "out.pgm"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rect origin must be non-negative") and err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm"]


_ZOOM = ["zoom", "a.pgm", "--rect", "0,0,4,4", "-o", "out.pgm"]
_FUSE = ["fuse", "a.pgm", "b.pgm", "-o", "out.pgm"]


@pytest.mark.parametrize("command, flag, value, message", [
    (_ZOOM, "--scale", "-1", "scale must be positive, got -1.0"),
    (_ZOOM, "--scale", "-1e3", "scale must be positive, got -1000.0"),
    (_ZOOM, "--scale", "-.5", "scale must be positive, got -0.5"),
    (_ZOOM, "--scale", "-inf", "scale must be positive, got -inf"),
    (_ZOOM, "--scale", "-NaN", "scale must be positive, got nan"),
    (_FUSE, "--detail-alpha", "-1e-4", "alpha must be non-negative, got -0.0001"),
    (_FUSE, "--saliency-sigma", "-Infinity", "saliency_sigma must be positive, got -inf"),
    (["decompose", "a.pgm", "-o", "out.pgm"], "--avg-filter-size", "-3", "avg_filter_size must be odd and >= 3, got -3"),
])
def test_negative_value_after_its_flag_gets_the_value_check(tmp_path, monkeypatch, capsys, command, flag, value,
                                                             message):
    """A negative number given as the argument after its flag exits 2 with
    the value's own one-line message, as it does after "=", though
    argparse alone would take "-1e3", "-.5" or "-inf" for an option.
    Nothing is written."""
    _write_20x20_pair(tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv in ([*command, flag, value], [*command, f"{flag}={value}"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm"]


def test_gray_image_to_a_ppm_gets_one_message(tmp_path, monkeypatch, capsys):
    """write_image and every command refuse a gray image for a .ppm path
    with the same message, and the command writes nothing."""
    _write_20x20_pair(tmp_path)
    monkeypatch.chdir(tmp_path)
    message = "'x.ppm' cannot hold a 1-channel image; use .pgm"
    with pytest.raises(ValueError) as err:
        write_image(read_image("a.pgm"), tmp_path / "x.ppm")
    assert str(err.value) == message
    for command in (["fuse", "a.pgm", "b.pgm"], ["zoom", "a.pgm", "--rect", "0,0,4,4"], ["decompose", "a.pgm"]):
        assert main([*command, "-o", "x.ppm"]) == 2, command
        assert capsys.readouterr().err == f"error: {message}\n", command
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm"]


@pytest.mark.parametrize("rect, message", [
    ("1,2,a,4", "rect components must be integers, got '1,2,a,4'"),
    ("1,2,3", "rect needs four comma-separated integers x,y,w,h, got '1,2,3'"),
])
def test_malformed_rect_gets_the_rect_message(tmp_path, monkeypatch, capsys, rect, message):
    """A rect that does not parse exits 2 with parse_rect's own message,
    given as the flag or in a config file.  Nothing is written."""
    _write_20x20_pair(tmp_path)
    (tmp_path / "cfg.txt").write_text(f"rect = {rect}\n")
    monkeypatch.chdir(tmp_path)
    assert main(["zoom", "a.pgm", "--rect", rect, "-o", "out.pgm"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["zoom", "a.pgm", "--config", "cfg.txt", "-o", "out.pgm"]) == 2
    assert capsys.readouterr().err == f"error: config line 1: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm", "cfg.txt"]


@pytest.mark.parametrize("command", [
    ["fuse", "a.pgm", "b.pgm"],
    ["fuse", "a.pgm", "b.pgm", "--dump-intermediates"],
    ["zoom", "a.pgm", "--rect", "0,0,4,4"],
    ["decompose", "a.pgm"],
])
@pytest.mark.parametrize("target", [["-o", "nowhere/f.pgm"], ["-o", "f.pgm", "--config", "cfg.txt"]],
                         ids=["output", "output_dir"])
def test_missing_output_directory_exits_1_before_any_work(tmp_path, monkeypatch, capsys, command, target):
    """An output in a directory that does not exist, named by -o or by
    output_dir, exits 1 with a message that names the output, before any
    work is forked.  Nothing is written."""
    _write_20x20_pair(tmp_path)
    (tmp_path / "cfg.txt").write_text("output_dir = nowhere\n")
    monkeypatch.chdir(tmp_path)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main([*command, *target]) == 1
    assert capsys.readouterr().err == "error: cannot write nowhere/f.pgm: no directory nowhere\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.pgm", "b.pgm", "cfg.txt"]


def test_output_dir_holds_a_relative_output(tmp_path, monkeypatch):
    _write_20x20_pair(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "cfg.txt").write_text("output_dir = out\n")
    monkeypatch.chdir(tmp_path)
    assert main(["zoom", "a.pgm", "--rect", "0,0,4,4", "-o", "z.pgm", "--config", "cfg.txt"]) == 0
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["z.pgm"]


def test_zoom_missing_input_exit_1(workdir):
    assert main(["zoom", str(workdir / "ghost.pgm"), "--rect", "0,0,4,4", "--scale", "1", "-o", str(workdir / "z3.pgm")]) == 1


# --- decompose ---------------------------------------------------------------

def test_decompose_writes_base_and_detail(workdir):
    out = workdir / "dec.pgm"
    code = main(["decompose", str(workdir / "a.pgm"), "-o", str(out), "--avg-filter-size", "7"])
    assert code == 0
    base = read_image(workdir / "dec_base.pgm")
    detail = read_image(workdir / "dec_detail.pgm")
    assert base.data.shape == detail.data.shape
    # Detail is recentered on mid-gray for encoding; a flat region of the
    # source should sit near 128 in the detail file.
    assert 100.0 < float(np.mean(detail.data)) < 156.0


def test_decompose_validation_and_io_paths(workdir):
    assert main(["decompose", str(workdir / "a.pgm"), "-o", str(workdir / "d.pgm"), "--avg-filter-size", "4"]) == 2
    assert main(["decompose", str(workdir / "ghost.pgm"), "-o", str(workdir / "d.pgm")]) == 1
    assert main(["decompose", str(workdir / "a.pgm")]) == 2  # no output path


def test_decompose_oversized_plain_header_exit_1_no_output(workdir, capsys):
    huge = workdir / "huge.pgm"
    huge.write_text("P2\n1000000 1000000\n255\n1 2 3 4 5 6 7 8\n")
    assert main(["decompose", str(huge), "-o", str(workdir / "h.pgm")]) == 1
    assert "expected 1000000000000 samples, got 8" in capsys.readouterr().err
    assert not (workdir / "h_base.pgm").exists()
    assert not (workdir / "h_detail.pgm").exists()


# --- metrics -----------------------------------------------------------------

def test_metrics_self_reference(workdir, capsys):
    code = main(["metrics", str(workdir / "a.pgm"), "--reference", str(workdir / "a.pgm")])
    assert code == 0
    out = capsys.readouterr().out
    assert "psnr=inf" in out
    assert "ssim=1.000000" in out


def test_metrics_no_reference_lines(workdir, capsys):
    code = main(["metrics", str(workdir / "a.pgm")])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("sharpness=")
    assert lines[1].startswith("naturalness=")


def test_metrics_csv_two_lines(workdir, capsys):
    code = main(["metrics", str(workdir / "a.pgm"), "--reference", str(workdir / "b.pgm"), "--csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == [
        "sharpness,naturalness,psnr,ssim",
        lines[1],
    ]
    assert len(lines[1].split(",")) == 4


def test_metrics_error_paths(workdir, tmp_path):
    small = tmp_path / "tiny.pgm"
    write_image(Image(np.zeros((24, 48))), small)
    assert main(["metrics", str(workdir / "a.pgm"), "--reference", str(small)]) == 2
    assert main(["metrics", str(workdir / "ghost.pgm")]) == 1


# --- argparse-level behavior -------------------------------------------------

def test_unknown_subcommand_exit_2():
    assert main(["frobnicate"]) == 2


def test_no_arguments_exit_2():
    assert main([]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
