"""Smoke tests: the example scripts run against the public API."""

import importlib.util
import os
import re
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_multifocus_demo_runs(tmp_path, capsys):
    assert _load("multifocus_demo").main(["--size", "64", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "fused_lep.pgm").exists()
    assert (tmp_path / "fused_guided.pgm").exists()
    assert "lep" in capsys.readouterr().out


def test_box_filter_timing_runs(capsys):
    assert _load("box_filter_timing").main(["--side", "64", "--repeats", "1", "--radii", "1", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"numpy {np.__version__}" in lines[0]
    assert f"{os.cpu_count()} CPUs" in lines[0]
    counts = re.search(r"src/lepfuse (\d+) lines, (\d+) code lines", lines[0])
    assert counts and 0 < int(counts[2]) < int(counts[1])
    assert lines[1].startswith("gaussian_filter radius 5 sigma 5.0: ")
    assert lines[1].endswith(" ms")
    assert lines[2].startswith("saliency: ")
    assert lines[2].endswith(" ms")
    assert lines[3].startswith("normalize_weights 2 maps: ")
    assert lines[3].endswith(" ms")
    assert lines[4].startswith("refine_weights 2 maps radius 15 alpha 0.3: ")
    timing, peak = lines[4].split(", ")
    assert timing.endswith(" ms")
    assert peak.startswith("peak ") and peak.endswith(" planes")
    assert float(peak.split()[1]) >= 2.0  # the two output maps
    assert lines[5].startswith("fuse 5 colour sources, intermediates kept: ")
    assert lines[5].endswith(" ms")
    for line, label, channels in ((lines[6], "CLI fuse --dump-intermediates, 5 colour sources: ", 3),
                                  (lines[7], "CLI fuse, 2 gray sources: ", 1)):
        assert line.startswith(label)
        timing, peak = line[len(label):].split(", ")
        assert timing.endswith(" ms")
        assert peak.startswith("peak ") and peak.endswith(" planes")
        assert float(peak.split()[1]) >= channels  # the floor: the c planes of the fused image
    assert lines[8].startswith("read_image plain P2 64x64: ")
    assert lines[8].endswith(" ms")
    for line, label in ((lines[9], "fit radius 15 alpha 0.3: "), (lines[10], "fit radius 3 alpha 0.0001: "),
                        (lines[11], "box_mean radius 15: ")):
        assert line.startswith(label)
        exact, widened = line[len(label):].split(", ")
        assert re.fullmatch(r"uint8( guide and winner map)? \d+\.\d\d ms", exact)
        assert re.fullmatch(r"float64 \d+\.\d\d ms", widened)
    assert [line.split()[0] for line in lines[13:]] == ["1", "2"]
