"""CLI exit codes, file outputs, and config handling.

Each subcommand has three contractual exit paths: 0 on success, 1 when a
file cannot be read, 2 when validation fails.  Non-zero exits must leave
no output files behind.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from dataclasses import fields

import lepfuse.cli
import lepfuse.fusion
from lepfuse import FilterParams, FusionConfig, Image, NaturalnessPriors, read_image, write_image
from lepfuse.cli import main
from lepfuse.config import CliConfig, apply_values, parse_config_text
from lepfuse.synthetic import multifocus_pair


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
    refine_filter = guided
    dump_intermediates = yes
    rect = 1,2,3,4

    scale = 2.5
    """
    values = parse_config_text(text)
    cfg = apply_values(CliConfig(), values)
    assert cfg.avg_filter_size == 11
    assert cfg.base_alpha == 0.5
    assert cfg.refine_filter == "guided"
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
        key: "guided" if isinstance(value, str) else value + 2 if isinstance(value, int) else value * 2
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
    assert np.abs(fused.data - source.data).max() <= 1.0


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


@pytest.mark.parametrize("cpus", [1, 64])
@pytest.mark.parametrize("refine_filter", ["lep", "guided"])
@pytest.mark.parametrize("count", [1, 2, 5])
@pytest.mark.parametrize("ext", [".pgm", ".ppm"])
def test_fuse_output_same_with_and_without_intermediates(tmp_path, monkeypatch, capsys, cpus, refine_filter, count,
                                                        ext):
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
        assert main(["fuse", *inputs, "-o", str(out), "--refine-filter", refine_filter, *extra]) == 0
        assert threading.active_count() == before
        outputs[mode] = out.read_bytes(), capsys.readouterr().out
    assert outputs["lean"] == outputs["dump"]


def test_lean_fuse_holds_few_planes(tmp_path, monkeypatch):
    """Without intermediates, the fuse call of a gray N = 2 512^2 job
    holds at most 7 planes beyond its sources."""
    side = 512
    rng = np.random.default_rng(3)
    for name in ("a.pgm", "b.pgm"):
        write_image(Image(rng.integers(0, 256, (side, side)).astype(float)), tmp_path / name)
    real_fuse, peaks = lepfuse.cli.fuse, []

    def traced_fuse(*args, **kwargs):
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            result = real_fuse(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append((peak - start) / (side * side * 8))
        return result

    monkeypatch.setattr(lepfuse.cli, "fuse", traced_fuse)
    out = tmp_path / "fused.pgm"
    assert main(["fuse", str(tmp_path / "a.pgm"), str(tmp_path / "b.pgm"), "-o", str(out)]) == 0
    assert len(peaks) == 1 and peaks[0] <= 7


@pytest.mark.parametrize("command, failing_write", [
    (["fuse", "a.pgm", "b.pgm", "-o", "dumped.pgm", "--dump-intermediates"], 3),
    (["decompose", "a.pgm", "-o", "layers.pgm"], 2),
])
def test_failed_write_leaves_no_output(workdir, monkeypatch, capsys, command, failing_write):
    """A write that fails part way exits 1 and leaves neither the files
    written before it nor any temporary file behind."""
    real_write = lepfuse.cli.write_image
    calls = []

    def flaky_write(img, path, *args, **kwargs):
        calls.append(path)
        if len(calls) == failing_write:
            raise OSError("no space left on device")
        real_write(img, path, *args, **kwargs)

    monkeypatch.setattr(lepfuse.cli, "write_image", flaky_write)
    monkeypatch.chdir(workdir)
    before = sorted(p.name for p in workdir.iterdir())
    assert main(command) == 1
    assert len(calls) == failing_write
    assert sorted(p.name for p in workdir.iterdir()) == before
    assert "no space left on device" in capsys.readouterr().err


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
