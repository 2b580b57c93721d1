"""Smoke tests: the example scripts run against the public API."""

import importlib.util
import os
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
    assert [line.split()[0] for line in lines[6:]] == ["1", "2"]
