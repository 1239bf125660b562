import numpy as np
import pytest

from dwimoco import io as dio
from dwimoco.volume import ScalarVolume


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_volume_rejects_non_finite_payload(tmp_path, bad):
    dio.write_volume(ScalarVolume(np.ones((3, 2, 2))), tmp_path / "vol")
    raw = tmp_path / "vol.raw"
    flat = np.frombuffer(raw.read_bytes(), dtype="<f4").copy()
    flat[4] = bad
    raw.write_bytes(flat.tobytes())
    with pytest.raises(dio.ContainerError, match="non-finite"):
        dio.read_volume(tmp_path / "vol")
