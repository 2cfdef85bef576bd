import tracemalloc

import numpy as np
import pytest
import scipy.fft

from sqglab.fields import SpectralField
from sqglab.grid import Grid2D


@pytest.fixture(scope="session")
def grid64():
    return Grid2D(64)


@pytest.fixture(scope="session")
def grid128():
    return Grid2D(128)


@pytest.fixture(scope="session")
def grid256():
    return Grid2D(256)


def counting_planes(mp: pytest.MonkeyPatch) -> list:
    """Count scipy.fft 2-D transforms while ``mp`` is active; returns the list
    it appends to: one entry per call, the planes of a stacked input."""
    planes = []

    def counting(fn):
        def wrapped(x, *args, **kwargs):
            planes.append(x.size // (x.shape[-1] * x.shape[-2]))
            return fn(x, *args, **kwargs)
        return wrapped

    for name in ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn"):
        mp.setattr(scipy.fft, name, counting(getattr(scipy.fft, name)))
    return planes


@pytest.fixture
def count_planes(monkeypatch):
    """``count_planes()`` starts counting (see :func:`counting_planes`)."""
    return lambda: counting_planes(monkeypatch)


def traced(fn) -> tuple:
    """``fn()`` under tracemalloc: (its result, the peak bytes allocated
    during the call, the bytes still allocated after it), both above the
    level at its start.  The result is kept, so it counts as retained."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before, now - before


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` runs ``fn()`` under tracemalloc (see :func:`traced`)."""
    return traced


def random_real_field(grid, seed=0, components=1):
    rng = np.random.default_rng(seed)
    n = grid.n_side
    shape = (n, n) if components == 1 else (2, n, n)
    return SpectralField.from_values(grid, rng.standard_normal(shape))
