"""lepfuse benchmark: drives ``lepfuse.cli.main`` on seeded inputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Run from the root of a source checkout; the program is imported from its
``src`` directory.  One run generates the workload's inputs, spawns one
worker process that repeats the workload's job for S seconds (see
worker.py) between two batches of set-up probes, checks every invocation's
outcome and output, and prints human-readable lines followed by one JSON
line.  With ``--trace 0`` the JSON holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Inputs, outputs and
traces stay under ``.perfbench/`` in the checkout.  NOTES.md says why each
workload exists and which metric each layer should move.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in every worker
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

# Set-up-only workers spawned before and again after the main worker, so the
# set-up median samples two moments of a noisy machine; the main worker adds
# one more sample.
SETUP_PROBES = 4
# Built by workloads.py, which imports numpy.  This process imports numpy only
# after the worker has ended: Linux carries a parent's peak RSS into the
# rusage of every child it spawns, so it must stay below the worker's own.
WORKLOADS = ("fuse-gray-2x2048", "fuse-rgb-dump-plain-io")
WORKER_TIMEOUT_S = 150.0
TAIL_BEYOND = 10  # the tail percentile needs this many samples beyond it

# Traced functions, by the module that defines them.  The tracer wraps each
# at every lepfuse module attribute that refers to it, i.e. at the name its
# caller looks up.
TRACED = [
    "cli.main",
    "netpbm.read_image", "netpbm.write_image",
    "image.rgb_to_luma", "image.crop",
    "filters.box_mean", "filters.gaussian_filter", "filters.laplacian_filter",
    "filters.lep_filter_guided",
    "fusion.fuse", "fusion.decompose", "fusion.saliency", "fusion.binary_weight_maps",
    "fusion.refine_weights", "fusion.normalize_weights",
    "metrics.report", "metrics.psnr", "metrics.ssim", "metrics.sharpness",
    "zoom.zoom_region", "zoom.resize_bilinear",
]
SIZED = {"netpbm.read_image": 0, "netpbm.write_image": 1}  # index of the path argument


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    """Interpreter, numpy and CPU facts recorded with every result."""
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "llc": "unknown",
    }
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "unknown"
            )
        caches = Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")
        levels = [(int((c / "level").read_text()), (c / "size").read_text().strip()) for c in caches]
        if levels:
            level, size = max(levels)
            env["llc"] = f"L{level} {size}"
    except (OSError, ValueError):
        pass
    return env


def setup_probe() -> float:
    """Spawn a worker that only imports lepfuse.cli; return its set-up time."""
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(WORKER), str(SRC), repr(spawned)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout)["setup_s"]


def run_worker(plan_path: Path, result_path: Path) -> int:
    """Run the main worker to completion; return its peak RSS in KiB."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(SRC), repr(spawned), str(plan_path), str(result_path)],
        stdout=subprocess.DEVNULL,
    )
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > spawned + WORKER_TIMEOUT_S:
                raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S:.0f} s")
            time.sleep(0.05)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return usage.ru_maxrss


def _judge(workload, inv, outcome, keep_dir, cache):
    """(reason, wrong_output) for one invocation; reason None means right.

    A crash or a wrong exit code is a failed operation.  A wrong, missing
    or left-behind output file, or wrong printed values, also make the run
    incorrect.
    """
    leftover = [name for name, digest in outcome["outputs"].items() if digest]
    if outcome["error"]:
        return f"raised {outcome['error']}", bool(inv.malformed and leftover)
    rc = outcome["rc"]
    if inv.malformed:
        if leftover:
            return f"exit {rc} but left {leftover} behind", True
        return (None if rc in (1, 2) else f"exit {rc}, expected 1 or 2"), False
    if rc != 0:
        last = (outcome["stderr"].strip().splitlines() or [""])[-1]
        return f"exit {rc}: {last}", False
    missing = [name for name, digest in outcome["outputs"].items() if digest is None]
    if missing:
        return f"exit 0 but no {missing}", True
    key = (inv.label, outcome["stdout"], tuple(sorted(outcome["outputs"].items())))
    if key not in cache:
        files = {name: keep_dir / f"{digest}{Path(name).suffix}" for name, digest in outcome["outputs"].items()}
        cache[key] = workload.check(inv, outcome["stdout"], files)
    return cache[key], cache[key] is not None


def evaluate(workload, jobs, keep_dir) -> dict:
    """Count attempted and failed invocations and collect failure reasons."""
    attempted = failed = 0
    correct = True
    failures = {}
    cache = {}
    for job in jobs:
        for inv, outcome in zip(workload.invocations, job["outcomes"]):
            attempted += 1
            reason, wrong_output = _judge(workload, inv, outcome, keep_dir, cache)
            if reason:
                failed += 1
                failures.setdefault(inv.label, {"count": 0, "reason": reason})["count"] += 1
            correct = correct and not wrong_output
    traced = [job for job in jobs if job["traced"]]
    plain = [job for job in jobs if not job["traced"]]
    if traced and plain and _digests(traced) != _digests(plain):
        correct = False
        failures["trace"] = {"count": 1, "reason": "traced outputs differ from untraced outputs"}
    return {"attempted": attempted, "failed": failed, "correct": correct, "failures": failures}


def _digests(jobs) -> set:
    return {
        (name, digest)
        for job in jobs for outcome in job["outcomes"] for name, digest in outcome["outputs"].items()
    }


def tail(durations) -> dict:
    """Highest percentile with TAIL_BEYOND samples beyond it, if at or above p50."""
    n = len(durations)
    k = n - TAIL_BEYOND
    if k < 1 or 100.0 * k / n < 50.0:
        return None
    return {"value": sorted(durations)[k - 1], "percentile": 100.0 * k / n, "jobs": n}


def layer_metrics(spans, traced_jobs: int, absent) -> dict:
    """Self time and calls per traced job for each function, plus I/O rates."""
    totals = {name: [0.0, 0] for name in TRACED if name not in absent}
    child = [0.0] * len(spans)
    for name, start, end, parent, _job, _bytes in spans:
        if parent >= 0:
            child[parent] += end - start
    io = {name: [0.0, 0] for name in SIZED}
    for (name, start, end, _parent, _job, nbytes), covered in zip(spans, child):
        totals[name][0] += end - start - covered
        totals[name][1] += 1
        if name in io and nbytes is not None:
            io[name][0] += end - start
            io[name][1] += nbytes
    metrics = {}
    for name, (self_s, calls) in totals.items():
        metrics[f"{name}.self_s"] = {"value": self_s / traced_jobs, "unit": "s"}
        metrics[f"{name}.calls"] = {"value": calls / traced_jobs, "unit": "count"}
    for name, label in (("netpbm.read_image", "netpbm.read_mb_s"), ("netpbm.write_image", "netpbm.write_mb_s")):
        seconds, nbytes = io[name]
        if seconds > 0.0:
            metrics[label] = {"value": nbytes / 1e6 / seconds, "unit": "MB/s"}
    return metrics


def run_once(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Generate inputs, run the worker, check outputs and derive metrics."""
    workdir = OUT / "work" / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    keep_dir = workdir / "keep"
    keep_dir.mkdir(parents=True)
    try:
        subprocess.run([sys.executable, str(HERE / "workloads.py"), name, str(seed), str(workdir)],
                       timeout=120, check=True)
        setups = [setup_probe() for _ in range(SETUP_PROBES)]
        plan = {
            "seconds": seconds, "trace": trace, "traced": TRACED, "sized": SIZED,
            "workdir": str(workdir), "keep_dir": str(keep_dir),
            "invocations": json.loads((workdir / "invocations.json").read_text()),
        }
        plan_path, result_path = workdir / "plan.json", workdir / "result.json"
        plan_path.write_text(json.dumps(plan))
        peak_kb = run_worker(plan_path, result_path)
        setups += [setup_probe() for _ in range(SETUP_PROBES)]
        result = json.loads(result_path.read_text())
        jobs = result["jobs"]
        from workloads import build

        workload = build(name, seed)
        verdict = evaluate(workload, jobs, keep_dir)
        first = jobs[0]["outcomes"][0]
        files = {n: keep_dir / f"{d}{Path(n).suffix}" for n, d in first["outputs"].items() if d}
        quality = workload.quality(files) if len(files) == len(first["outputs"]) else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups.append(result["setup_s"])
    plain = [job["seconds"] for job in jobs if not job["traced"]]
    mpix = sum(inv.mpix for inv in workload.invocations)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "jobs": len(jobs),
        "invocations_per_job": len(workload.invocations), **verdict,
        "setup_samples_s": setups, "job_seconds": [job["seconds"] for job in jobs],
        "extra": {"op_tail_s": tail(plain), **quality},
    }
    if trace:
        traced = [job["seconds"] for job in jobs if job["traced"]]
        metrics = layer_metrics(result["spans"], len(traced), result["absent"])
        peak_planes = (peak_kb - result["rss_after_setup_kb"]) * 1024 / workload.plane_bytes
        metrics["fusion.peak_planes"] = {"value": peak_planes, "unit": "planes"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced) - statistics.median(plain), "unit": "s"
        }
        report["absent"] = result["absent"]
        report["spans"] = result["spans"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_p50_s": {"value": statistics.median(plain), "unit": "s"},
            "throughput_mpix_s": {"value": mpix * len(plain) / sum(plain), "unit": "Mpix/s"},
            "peak_rss_mb": {"value": peak_kb * 1024 / 1e6, "unit": "MB"},
        }
    report["metrics"] = metrics
    return report


def save(report: dict) -> Path:
    """Write the full report (and any spans, one per line) under .perfbench/results."""
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    spans = report.pop("spans", None)
    if spans is not None:
        keys = ("name", "start", "end", "parent", "job", "bytes")
        with open(results / f"{stem}.spans.jsonl", "w") as f:
            for span in spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")
    path = results / f"{stem}.json"
    path.write_text(json.dumps(report, indent=1))
    return path


def print_report(report: dict, path: Path) -> None:
    env = report["environment"]
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"jobs={report['jobs']} invocations/job={report['invocations_per_job']}")
    print(f"env python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"cpu={env['cpu_model']!r} llc={env['llc']!r}")
    metrics = dict(report["metrics"])
    if report["trace"]:
        functions = [k[:-len(".self_s")] for k in metrics if k.endswith(".self_s")]
        functions.sort(key=lambda f: -metrics[f + ".self_s"]["value"])
        print(f"{'per traced job':<28}{'self_s [s]':>12}{'calls [count]':>15}")
        for f in functions:
            self_s, calls = metrics.pop(f + ".self_s"), metrics.pop(f + ".calls")
            print(f"{f:<28}{self_s['value']:>12.6f}{calls['value']:>15g}")
        for f in report["absent"]:
            print(f"{f:<28}{'absent (no such function)':>27}")
    for key, metric in metrics.items():
        print(f"{key:<28}{metric['value']:.6g} {metric['unit']}")
    extra = dict(report["extra"])
    op_tail = extra.pop("op_tail_s")
    if op_tail is None:
        print(f"op_tail_s: omitted, {report['jobs']} jobs is too few for p50 or above "
              f"with {TAIL_BEYOND} beyond")
    else:
        print(f"op_tail_s: {op_tail['value']:.6g} s (p{op_tail['percentile']:.1f} of {op_tail['jobs']} jobs)")
    for key, value in extra.items():
        unit = " dB" if key.endswith("_db") else ""
        print(f"{key}: {value:.6g}{unit}")
    print(f"error_rate: {report['failed']}/{report['attempted']} = "
          f"{report['failed'] / report['attempted']:.4g}  (correct outputs: {report['correct']})")
    for label, failure in report["failures"].items():
        print(f"  failed {label} x{failure['count']}: {failure['reason']}")
    print(f"report: {path.relative_to(ROOT)}")
    summary = {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40, help="summed job time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lepfuse" / "cli.py").is_file():
        _fail(f"no lepfuse sources under {SRC}; run from a lepfuse checkout")
    if args.workload == "all":
        # One process per run, so each worker has a small parent.
        for name in WORKLOADS:
            for trace in ("0", "1"):
                subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", trace], check=True)
        return 0
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    sys.path.insert(0, str(SRC))
    report = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report, save(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
