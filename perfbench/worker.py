"""Worker process: times ``lepfuse.cli.main`` jobs in a fresh interpreter.

Run by ``run.py``, one worker at a time.  The worker measures its own
set-up (spawn until ``import lepfuse.cli`` is done), then repeats the job
from the plan until the summed job time reaches the requested seconds.
It writes a digest of every output file and keeps one copy of each
distinct output for the parent to check, so the checks add nothing to the
worker's peak RSS.

In a traced run, odd-numbered jobs run with every traced function wrapped
at each name a caller looks it up by; even-numbered jobs run the plain
code, so the two sets give the tracing overhead and must produce the same
bytes.

Usage: worker.py SRC_DIR SPAWN_MONOTONIC [PLAN_JSON RESULT_JSON]
"""

# Only sys and time are imported up front: set-up is timed from spawn until
# ``import lepfuse.cli`` is done, so the worker's other imports come later.
import sys
import time


def _setup(src_dir: str, spawned: float) -> float:
    sys.path.insert(0, src_dir)
    import lepfuse.cli  # noqa: F401  (the import is what set-up times)

    setup_s = time.monotonic() - spawned
    if not lepfuse.cli.__file__.startswith(src_dir):
        raise SystemExit(f"imported lepfuse from {lepfuse.cli.__file__}, not from {src_dir}")
    return setup_s


class Tracer:
    """Records a span per call of each traced function.

    A span is (name, start, end, parent span index, job id, bytes), where
    bytes is the size of the file a sized function read or wrote (argument
    index given in ``sized``).  Spans stay in memory until the worker writes
    them out at the end.
    """

    def __init__(self, names, sized):
        self.sized = sized
        self.spans = []
        self.job = None
        self._stack = []
        self._installed = []
        self.targets, self.absent = self._resolve(names)

    @staticmethod
    def _resolve(names):
        import importlib

        targets, absent = {}, []
        for name in names:
            module_name, _, attr = name.rpartition(".")
            try:
                fn = getattr(importlib.import_module(f"lepfuse.{module_name}"), attr)
            except (ImportError, AttributeError):
                absent.append(name)
            else:
                targets[id(fn)] = (name, fn)
        return targets, absent

    def _wrap(self, name, fn):
        import os

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        path_arg = self.sized.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.job, None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                if path_arg is not None:
                    try:
                        spans[index][5] = os.path.getsize(args[path_arg])
                    except (OSError, IndexError):
                        pass

        return traced

    def install(self) -> None:
        """Replace every module-level reference to a traced function."""
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in self.targets.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "lepfuse" and not module_name.startswith("lepfuse."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and self.targets[id(value)][1] is value:
                    setattr(module, attr, wrappers[id(value)])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._installed:
            setattr(module, attr, value)
        self._installed.clear()


def _invoke(cli, argv):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc, error = cli.main(argv), None
    except Exception as exc:  # a crash is an outcome the parent must see
        rc, error = None, f"{type(exc).__name__}: {exc}"
    return {"rc": rc, "error": error, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _digest_outputs(invocations, keep_dir):
    import hashlib
    import shutil
    from pathlib import Path

    digests = []
    for inv in invocations:
        seen = {}
        for name in inv["outputs"]:
            path = Path(name)
            if not path.exists():
                seen[name] = None
                continue
            digest = hashlib.sha256(path.read_bytes()).hexdigest()[:20]
            kept = keep_dir / f"{digest}{path.suffix}"
            if not kept.exists():
                shutil.copyfile(path, kept)
            seen[name] = digest
        digests.append(seen)
    return digests


def run(plan: dict) -> dict:
    import gc
    import resource
    from pathlib import Path

    import lepfuse.cli

    rss_after_setup_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    invocations = plan["invocations"]
    keep_dir = Path(plan["keep_dir"])
    tracer = Tracer(plan["traced"], plan["sized"]) if plan["trace"] else None
    jobs, elapsed = [], 0.0
    while elapsed < plan["seconds"] or (tracer is not None and len(jobs) < 2):
        for inv in invocations:
            for name in inv["outputs"]:
                Path(name).unlink(missing_ok=True)
        gc.collect()
        traced = tracer is not None and len(jobs) % 2 == 1
        if traced:
            tracer.job = len(jobs)
            tracer.install()
        start = time.perf_counter()
        outcomes = [_invoke(lepfuse.cli, inv["argv"]) for inv in invocations]
        seconds = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        elapsed += seconds
        for outcome, digests in zip(outcomes, _digest_outputs(invocations, keep_dir)):
            outcome["outputs"] = digests
        jobs.append({"seconds": seconds, "traced": traced, "outcomes": outcomes})
    result = {"rss_after_setup_kb": rss_after_setup_kb, "jobs": jobs}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["absent"] = tracer.absent
    return result


def main(argv) -> int:
    src_dir, spawned = argv[0], float(argv[1])
    setup_s = _setup(src_dir, spawned)
    import json
    import os

    if len(argv) == 2:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    with open(argv[2]) as f:
        plan = json.load(f)
    os.chdir(plan["workdir"])
    result = run(plan)
    result["setup_s"] = setup_s
    with open(argv[3], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
