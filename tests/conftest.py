"""Shared fixtures: the three default chain models and desk-size grids, and
the even projection and single random profile the tests use."""

import numpy as np
import pytest

from chainwaves import ChainModel, GridFunction, PsiFamily, default_half_length, make_grid
from chainwaves.verify import random_band_limited_rows


def project_even(f: GridFunction) -> GridFunction:
    """Even part (f(x) + f(-x))/2; idempotent and l2-nonexpansive."""
    return GridFunction(f.grid, 0.5 * (f.values + np.roll(f.values[::-1], 1)))


def random_band_limited(grid, band, rng, parity="none", decay=0.0) -> GridFunction:
    """Unit-l2 random profile with spectral support in |k| <= band, the one row
    of ``random_band_limited_rows``: uniform coefficients sqrt(3) (2u - 1), as
    many as its parity keeps; ``rng`` has numpy's ``random(shape)``."""
    return GridFunction(grid, random_band_limited_rows(grid, band, rng, 1, parity, decay)[0])


@pytest.fixture(scope="session")
def model1():
    """Nearest-neighbor chain, unit coefficients."""
    return ChainModel((1.0,), (1.0,))


@pytest.fixture(scope="session")
def model2():
    """Two-neighbor chain, unit coefficients, quadratic forces only."""
    return ChainModel((1.0, 1.0), (1.0, 1.0))


@pytest.fixture(scope="session")
def model2_cubic():
    """Two-neighbor chain with a cubic higher-order force family."""
    return ChainModel((1.0, 1.0), (1.0, 1.0), PsiFamily.cubic((0.1, 0.1)))


@pytest.fixture(scope="session")
def model3_toda():
    """Three-neighbor chain with a Toda-remainder higher-order force family."""
    return ChainModel((1.0, 0.5, 1 / 3), (1.0, 0.5, 1 / 3), PsiFamily.toda_remainder((2.0, 1.0, 0.5)))


@pytest.fixture(scope="session")
def grid1(model1):
    return make_grid(default_half_length(model1), 1024)


@pytest.fixture(scope="session")
def grid1_fine(model1):
    return make_grid(default_half_length(model1), 2048)


@pytest.fixture(scope="session")
def grid2(model2):
    return make_grid(default_half_length(model2), 1024)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def transform_lengths(monkeypatch):
    """Call it to start recording the length of every real FFT (one entry
    per transformed row); it returns the list that fills up."""

    def start():
        lengths = []

        def counted(transform):
            def call(a, n=None, axis=-1):
                a = np.asarray(a)
                rows = a.size // a.shape[axis]
                lengths.extend([n or a.shape[axis]] * rows)
                return transform(a, n=n, axis=axis)

            return call

        monkeypatch.setattr(np.fft, "rfft", counted(np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counted(np.fft.irfft))
        return lengths

    return start
