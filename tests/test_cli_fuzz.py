"""Whole-CLI fuzzing: argv and config files drawn from the CliConfig table,
with extreme values and mutated PGM/PPM inputs.

Each case runs in a forked copy of one child interpreter that has
imported lepfuse, with its address space capped at 96 MiB beyond what it
holds after the import, as test_out_of_memory_exits_1_without_traceback
caps it: an allocation that would reach the host fails at once instead.
"""

import itertools
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lepfuse.cli
from lepfuse.config import FUSE_FLAGS, CliConfig

# Reads one case per line, [directory, argv, stdout path, stderr path],
# runs ``lepfuse argv`` in a forked child in that directory, and prints
# its exit status; a Python exception that escaped main would print its
# traceback, as the interpreter does.  SIGALRM ends a case that hangs.
_RUNNER = r"""
import json, os, resource, signal, sys, traceback
from lepfuse.cli import main
size = int(open("/proc/self/statm").read().split()[0]) * resource.getpagesize() + (96 << 20)
for line in sys.stdin:
    cwd, argv, out, err = json.loads(line)
    pid = os.fork()
    if pid == 0:
        status = 70
        try:
            os.chdir(cwd)
            for fd, path in ((1, out), (2, err)):
                os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
            resource.setrlimit(resource.RLIMIT_AS, (size, size))
            signal.alarm(60)
            status = main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)
    print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]), flush=True)
"""


@pytest.fixture(scope="module")
def run_cli(tmp_path_factory):
    """run_cli(files, argv) -> (status, stderr, names): runs one case in
    a fresh directory holding ``files``, a {name: bytes} dict, and lists
    that directory's file names afterwards."""
    root = tmp_path_factory.mktemp("fuzz")
    src = Path(lepfuse.cli.__file__).resolve().parent.parent
    numbers = itertools.count()

    def run(files, argv):
        n = next(numbers)
        case, out, err = root / str(n), root / f"{n}.out", root / f"{n}.err"
        case.mkdir()
        for name, data in files.items():
            (case / name).write_bytes(data)
        runner.stdin.write(json.dumps([str(case), argv, str(out), str(err)]) + "\n")
        runner.stdin.flush()
        status = int(runner.stdout.readline())
        return status, err.read_text(errors="replace"), sorted(p.name for p in case.iterdir())

    with subprocess.Popen([sys.executable, "-c", _RUNNER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src))) as runner:
        yield run


_NUMBERS = ["0", "-0", "-1", "1", "2", "3", "15", "31", "1e308", "-1e308", "1e-308", "5e-324",
            "nan", "inf", "-inf", "0.3", "1e-4", "2.0", "1000000000", "x", ""]
_RECTS = ["0,0,2,2", "1,1,3,2", "-1,0,1,1", "0,0,0,0", "0,0,99999,99999", "0,0,1", "a,b,c,d"]
_FIELDS = {f.name: f.type for f in fields(CliConfig)}
_WORDS = {"rect": _RECTS, "dump_intermediates": ["1", "no", "yes", "maybe"],
          "refine_filter": ["lep", "guided", "box", ""], "output_dir": [".", "missing", "cfg.txt"]}


def _values(name: str):
    # A value of the CliConfig field ``name``, as text: often an extreme
    # or invalid one.
    if name in _WORDS:
        return st.sampled_from(_WORDS[name])
    numbers = st.sampled_from(_NUMBERS) | st.integers(-3, 40).map(str)
    return numbers | st.floats().map(repr) if _FIELDS[name] is float else numbers


@st.composite
def _image(draw, shape, channels):
    # A plain or binary PGM/PPM of ``shape``, its header perhaps mutated:
    # a token replaced, the raster cut short or extended, another magic.
    h, w = shape
    maxval = draw(st.sampled_from([255, 255, 1, 100]))
    plain = draw(st.booleans())
    samples = draw(st.lists(st.integers(0, maxval), min_size=h * w * channels, max_size=h * w * channels))
    tokens = ["P%d" % ((2 if channels == 1 else 3) + 3 * (not plain)), str(w), str(h), str(maxval)]
    raster = " ".join(map(str, samples)).encode() if plain else bytes(samples)
    mutation = draw(st.sampled_from(["none"] * 6 + ["token", "cut", "extend", "magic"]))
    if mutation == "token":
        tokens[draw(st.integers(0, 3))] = draw(st.sampled_from(["0", "-1", "256", "65536", "99999999", "1e3",
                                                                "+5", "1_0", "x", ""]))
    elif mutation == "magic":
        tokens[0] = draw(st.sampled_from(["P1", "P4", "P7", "P2", "P6", "Q5"]))
    elif mutation == "cut":
        raster = raster[:draw(st.integers(0, max(len(raster) - 1, 0)))]
    elif mutation == "extend":
        raster += draw(st.binary(min_size=1, max_size=8))
    return (" ".join(tokens[:3]) + "\n" + tokens[3] + "\n").encode() + raster


@st.composite
def _cases(draw):
    # (files, argv) of one command line: fuse, zoom, decompose or metrics.
    shape = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    channels = draw(st.sampled_from([1, 3]))
    ext = ".pgm" if channels == 1 else ".ppm"
    files = {"a" + ext: draw(_image(shape, channels)), "b" + ext: draw(_image(shape, channels))}
    command = draw(st.sampled_from(["fuse", "fuse", "fuse", "zoom", "decompose", "metrics"]))
    argv = [command, "a" + ext]
    if command == "fuse":
        argv += draw(st.lists(st.sampled_from(["a" + ext, "b" + ext]), min_size=0, max_size=3))
        for key in draw(st.lists(st.sampled_from(sorted(FUSE_FLAGS)), max_size=3, unique=True)):
            flag, value = "--" + key.replace("_", "-"), draw(_values(key))
            argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"]]))
        argv += draw(st.sampled_from([[], ["--dump-intermediates"]]))
    elif command == "zoom":
        argv += ["--rect", draw(st.sampled_from(_RECTS)), "--scale", draw(_values("scale"))]
    elif command == "decompose":
        argv += draw(st.sampled_from([[], ["--avg-filter-size", draw(_values("avg_filter_size"))]]))
    else:
        argv += draw(st.sampled_from([[], ["--reference", "b" + ext], ["--csv"]]))
    if command != "metrics":
        argv += ["-o", draw(st.sampled_from(["out" + ext, "out.pgm", "out.ppm", "out.png"]))]
    if draw(st.booleans()):
        lines = [f"{key} = {draw(_values(key))}"
                 for key in draw(st.lists(st.sampled_from(sorted(_FIELDS)), max_size=4, unique=True))]
        lines += draw(st.lists(st.sampled_from(["# comment", "", "junk", "unknown = 1", "scale ="]), max_size=2))
        files["cfg.txt"] = "\n".join(lines).encode()
        argv += ["--config", draw(st.sampled_from(["cfg.txt", "cfg.txt", "missing.txt"]))]
    argv += draw(st.sampled_from([[], ["--verbose"]]))
    return files, argv


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=_cases())
def test_any_command_line_exits_cleanly(run_cli, case):
    """Whatever the command line, config file or input files, lepfuse exits
    0, 1 or 2, prints no traceback, and after a non-zero exit leaves no
    output and no temporary file: only the files it was given."""
    files, argv = case
    status, err, names = run_cli(files, argv)
    assert status in (0, 1, 2), (status, err)
    assert "Traceback" not in err, err
    if status != 0:
        assert names == sorted(files), (status, err)
    assert not any(".tmp" in name for name in names)
