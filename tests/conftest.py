import numpy as np
import pytest

from dwimoco.volume import BValueSeries, RoiMask, ScalarVolume


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def one_slice_case():
    """A textured 12x12x1 case, (series, roi), whose b=200 image is shifted
    by one voxel along x."""
    dims = (12, 12, 1)
    bvalues = (0.0, 200.0, 600.0)
    x, y, _z = np.indices(dims)
    s0 = 1.0 + 0.3 * np.sin(x / 2.0) * np.cos(y / 3.0)
    images = [s0 * np.exp(-2e-3 * b) for b in bvalues]
    images[1] = np.roll(images[1], 1, axis=0)
    mask = np.zeros(dims, dtype=bool)
    mask[4:8, 4:8, 0] = True
    return BValueSeries(bvalues, tuple(ScalarVolume(v) for v in images)), RoiMask(mask)
