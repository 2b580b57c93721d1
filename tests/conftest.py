"""Shared fixtures."""

import signal
import tracemalloc
import weakref

import numpy as np
import pytest

import lepfuse.fusion


@pytest.fixture
def traced_peak(monkeypatch):
    """A function that runs ``run()`` and returns its peak memory in bytes
    beyond what was allocated before it: the highest sum, at any moment,
    of the bytes tracemalloc traces and of the shared planes that
    lepfuse.fusion has mapped and not yet freed, which tracemalloc does
    not see.  The traced peak is read and reset whenever a shared plane
    is mapped or freed, so each stretch between two such events adds the
    shared bytes live during it to the traced peak within it."""
    real = lepfuse.fusion._shared_planes
    state = {"live": 0, "peak": 0, "start": 0}

    def fold():
        if tracemalloc.is_tracing():
            top = tracemalloc.get_traced_memory()[1]
            state["peak"] = max(state["peak"], top - state["start"] + state["live"])
            tracemalloc.reset_peak()

    def freed(nbytes):
        fold()
        state["live"] -= nbytes

    finalizers = []

    def counted(count, shape):
        planes = real(count, shape)
        if not tracemalloc.is_tracing():
            return planes
        fold()
        for plane in planes:
            root = plane
            while isinstance(root, np.ndarray):
                root = root.base
            state["live"] += plane.nbytes
            finalizers.append(weakref.finalize(root.obj, freed, plane.nbytes))
        return planes

    monkeypatch.setattr(lepfuse.fusion, "_shared_planes", counted)

    def measure(run):
        state.update(live=0, peak=0)
        tracemalloc.start()
        try:
            state["start"] = tracemalloc.get_traced_memory()[0]
            run()
            fold()
        finally:
            tracemalloc.stop()
            for finalizer in finalizers:
                finalizer.detach()
            finalizers.clear()
        return state["peak"]

    return measure


@pytest.fixture(autouse=True)
def hang_guard():
    """Fails every test with TimeoutError once it has run 120 s, so that a
    forked stage whose pipes never deliver, in any test that fuses, fails
    instead of hanging the suite.  SIGALRM interrupts this process even while it waits in a
    pipe read or in waitpid."""
    def expire(signum, frame):
        raise TimeoutError("the test ran past 120 s; a forked stage may be waiting on a pipe")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
