"""Shared fixtures."""

import pytest

import lepfuse.fusion


@pytest.fixture
def shared_bytes(monkeypatch):
    """A list that receives the size in bytes of every shared plane that
    lepfuse.fusion allocates during the test.  tracemalloc does not see
    those planes, so a memory bound adds their sum to its traced peak."""
    real, sizes = lepfuse.fusion._shared_planes, []

    def counted(count, shape):
        planes = real(count, shape)
        sizes.extend(plane.nbytes for plane in planes)
        return planes

    monkeypatch.setattr(lepfuse.fusion, "_shared_planes", counted)
    return sizes
