"""Group velocity, dispersion Hessian, scalarity certificates, and the
propagation speed limit, each checked against an independent route."""

import numpy as np
import pytest

from blochpacket import dispersion
from blochpacket.dispersion import (
    _symbol_tables,
    _tau_max,
    fd_group_velocity,
    fd_hessian,
    first_order_identity_residual,
    group_velocity,
    speed_limit_check,
)
from blochpacket.errors import SpeedLimitViolation
from blochpacket.presets import identity_material, scaled_identity
from helpers import BandPipeline, cosine_3d, speed_limit_reference

THETA = np.array([0.3, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Group velocity
# ---------------------------------------------------------------------------

def test_identity_group_velocity(identity_pipe):
    assert np.allclose(identity_pipe.dispersion.V, [-1.0, 0.0, 0.0], atol=1e-12)


def test_mirror_band_group_velocity(identity_pipe_minus):
    # omega = -|theta| branch: V = -grad(-|theta|) = +theta_hat
    assert np.allclose(identity_pipe_minus.dispersion.V, [1.0, 0.0, 0.0], atol=1e-12)


def test_group_velocity_vs_finite_differences(identity_pipe):
    pipe = identity_pipe
    fd = fd_group_velocity(pipe.op, pipe.band, step=1e-3)
    assert np.max(np.abs(fd - pipe.dispersion.V)) < 1e-6


def test_layered_group_velocity_vs_finite_differences(aniso_pipe):
    # the anisotropic layered band is well isolated, so the stencil stays
    # inside the band's analyticity ball
    pipe = aniso_pipe
    fd = fd_group_velocity(pipe.op, pipe.band, step=1e-3)
    assert np.max(np.abs(fd - pipe.dispersion.V)) < 1e-6


def test_offaxis_layered_group_velocity_vs_finite_differences(offaxis_layered_pipe):
    pipe = offaxis_layered_pipe
    fd = fd_group_velocity(pipe.op, pipe.band, step=1e-3)
    assert np.max(np.abs(fd - pipe.dispersion.V)) < 1e-6


# ---------------------------------------------------------------------------
# Hessian
# ---------------------------------------------------------------------------

def test_identity_hessian_closed_form(identity_pipe):
    # omega = |theta|: hessian = (I - unit outer unit)/|theta|
    h = identity_pipe.dispersion.hessian
    expect = np.diag([0.0, 1 / 0.3, 1 / 0.3])
    assert np.max(np.abs(h - expect)) < 1e-10
    assert np.max(np.abs(h - h.T)) < 1e-12


def test_identity_hessian_vs_finite_differences(identity_pipe):
    pipe = identity_pipe
    fd = fd_hessian(pipe.op, pipe.band, step=1e-2)
    assert np.max(np.abs(fd - pipe.dispersion.hessian)) < 1e-5


def test_layered_hessian_vs_finite_differences(aniso_pipe):
    pipe = aniso_pipe
    fd = fd_hessian(pipe.op, pipe.band, step=1e-2)
    assert np.max(np.abs(fd - pipe.dispersion.hessian)) < 1e-5


def test_offaxis_hessian_in_plane_vs_finite_differences(offaxis_layered_pipe):
    """The off-axis layered band has a symmetry-allowed crossing 1.8e-3 away,
    so only the in-plane stencils (which respect the protecting reflection)
    stay on the analytic branch; the theta_3 rows are checked on the isolated
    anisotropic band above."""
    pipe = offaxis_layered_pipe
    fd = fd_hessian(pipe.op, pipe.band, step=1e-2)
    sub = np.ix_([0, 1], [0, 1])
    assert np.max(np.abs(fd[sub] - pipe.dispersion.hessian[sub])) < 1e-5


def test_fd_hessian_error_falls_as_step_to_the_fourth(offaxis_layered_pipe):
    """The gap between the finite-difference and the perturbative Hessian is
    the stencil's truncation error: with one Richardson level it falls as
    step^4, so each halving divides it by at least 8."""
    pipe = offaxis_layered_pipe
    errs = [np.max(np.abs(fd_hessian(pipe.op, pipe.band, step=s) - pipe.dispersion.hessian))
            for s in (2e-2, 1e-2, 5e-3)]
    assert errs[0] > 8 * errs[1] > 64 * errs[2]


def test_first_order_projection_vanishes(identity_pipe, offaxis_layered_pipe, rng):
    for pipe in (identity_pipe, offaxis_layered_pipe):
        for _ in range(5):
            xi = rng.standard_normal(3)
            res = first_order_identity_residual(pipe.band, pipe.op, xi, pipe.dispersion.V)
            assert res < 1e-10 * (1 + np.linalg.norm(xi))


def test_scalarity_certificate(identity_pipe):
    assert identity_pipe.dispersion.scalar_residual <= 1e-8


# ---------------------------------------------------------------------------
# Speed limit
# ---------------------------------------------------------------------------

def test_tau_max_identity(rng):
    spec = identity_material()
    for _ in range(5):
        xi = rng.standard_normal(3)
        assert abs(_tau_max(xi[None], _symbol_tables(spec))[0] - np.linalg.norm(xi)) < 1e-12


def test_tau_max_scaled():
    spec = scaled_identity(eps=4.0)
    xi = np.array([1.0, 0.0, 0.0])
    assert abs(_tau_max(xi[None], _symbol_tables(spec))[0] - 0.5) < 1e-12


def test_speed_limit_identity(identity_pipe):
    rep = speed_limit_check(identity_pipe.spec, identity_pipe.dispersion.V,
                            num_samples=200, seed=1)
    assert rep["worst_margin"] >= -1e-9
    # equality along xi = V/|V|: |V| = tau_max = 1 for the vacuum band
    v = identity_pipe.dispersion.V
    xi = v / np.linalg.norm(v)
    tau = _tau_max(-xi[None], _symbol_tables(identity_pipe.spec))[0]
    assert abs(float(np.dot(xi, v)) - tau) < 1e-12


def test_speed_limit_scaled_medium():
    pipe_spec = scaled_identity(eps=4.0)
    pipe = BandPipeline(pipe_spec, 1, THETA, band_index=1)
    assert np.linalg.norm(pipe.dispersion.V) <= 0.5 + 1e-12
    rep = speed_limit_check(pipe_spec, pipe.dispersion.V, num_samples=200, seed=2)
    assert rep["worst_margin"] >= -1e-9


def test_speed_limit_layered(offaxis_layered_pipe):
    rep = speed_limit_check(offaxis_layered_pipe.spec, offaxis_layered_pipe.dispersion.V,
                            num_samples=200, seed=3)
    assert rep["worst_margin"] >= -1e-9


def test_speed_limit_violation_detected():
    with pytest.raises(SpeedLimitViolation):
        speed_limit_check(identity_material(), [2.0, 0.0, 0.0], num_samples=50, seed=4)


@pytest.mark.parametrize("case, num_samples", [
    # 17 grid points: 240 directions per chunk, so 1000 ends on a partial chunk
    ("layered", 1000), ("layered_anisotropic", 1000),
    # exactly two chunks
    ("layered", 480),
    # one direction's 17^3 grid exceeds the chunk budget
    ("cosine_3d", 20),
])
def test_speed_limit_matches_direction_loop(case, num_samples, offaxis_layered_pipe, aniso_pipe):
    if case == "cosine_3d":
        pipe = BandPipeline(cosine_3d(), 1, [0.3, 0.2, 0.0])
        assert 17 ** 3 > dispersion.TAU_CHUNK
    else:
        pipe = offaxis_layered_pipe if case == "layered" else aniso_pipe
        assert dispersion.TAU_CHUNK // 17 == 240
    rep = speed_limit_check(pipe.spec, pipe.dispersion.V, num_samples=num_samples, seed=7)
    worst, worst_xi = speed_limit_reference(pipe.spec, pipe.dispersion.V, num_samples, seed=7)
    assert np.array_equal(rep["worst_xi"], worst_xi)
    assert abs(rep["worst_margin"] - worst) <= 1e-14
