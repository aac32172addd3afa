import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread unless the caller chose otherwise, set before numpy
# loads: the timing-gated tests then do not depend on how busy the machine is
# (a multi-threaded BLAS on a loaded host can spin many times longer).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

sys.path.insert(0, str(Path(__file__).parent))

from helpers import BandPipeline, mixed_modulations  # noqa: E402

from blochpacket.presets import (  # noqa: E402
    identity_material,
    layered,
    layered_anisotropic,
    with_cos_modulation,
    with_ohmic_loss,
)

THETA_AXIS = np.array([0.3, 0.0, 0.0])
THETA_OFF = np.array([0.3, 0.2, 0.0])


def modulated_identity():
    """Identity base with one non-resonant traveling modulation, one resonant
    spatial modulation, and constant Ohmic loss."""
    spec = identity_material()
    spec = with_cos_modulation(spec, (0.7, -0.4, 0.0, 0.0), amplitude=0.15, target="eps1")
    spec = with_cos_modulation(spec, (0.0, 0.0, 0.25, 0.0), amplitude=0.1, target="eps1")
    spec = with_ohmic_loss(spec, 0.05)
    return spec


@pytest.fixture(scope="session")
def identity_pipe():
    return BandPipeline(identity_material(), 1, THETA_AXIS, band_index=1)


@pytest.fixture(scope="session")
def identity_pipe_minus():
    return BandPipeline(identity_material(), 1, THETA_AXIS, band_index=-1)


@pytest.fixture(scope="session")
def offaxis_layered_pipe():
    # theta off the layering symmetry axis makes the tracked band simple
    return BandPipeline(layered(amplitude=0.2), 2, THETA_OFF, band_index=1)


@pytest.fixture(scope="session")
def aniso_pipe():
    return BandPipeline(layered_anisotropic(), 2, THETA_AXIS, band_index=1)


@pytest.fixture(scope="session")
def modulated_pipe():
    return BandPipeline(modulated_identity(), 1, THETA_AXIS, band_index=1)


@pytest.fixture(scope="session")
def mixed_pipe():
    return BandPipeline(mixed_modulations(), 1, THETA_AXIS, band_index=1)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
