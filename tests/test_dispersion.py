"""Group velocity, dispersion Hessian, scalarity certificates, and the
propagation speed limit, each checked against an independent route."""

import numpy as np
import pytest

from blochpacket import dispersion
from blochpacket.bands import BlochOperator, build_projectors, solve_bands
from blochpacket.dispersion import (
    _refined_margins,
    _symbol_tables,
    _tau_max,
    fd_group_velocity,
    fd_hessian,
    first_order_identity_residual,
    group_velocity,
    hessian,
    speed_limit_check,
)
from blochpacket.errors import SpeedLimitViolation
from blochpacket.fourier import LatticeCutoff, MaterialSpec
from blochpacket.presets import identity_material, layered, layered_anisotropic, scaled_identity
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


def _directions(num_samples, seed):
    """speed_limit_check's unit directions for (num_samples, seed)."""
    xis = np.random.default_rng(seed).standard_normal((num_samples, 3))
    return xis / np.sqrt(xis[:, None, :] @ xis[:, :, None])[:, 0]


def _full_pass(spec, V, num_samples, seed):
    """The worst (margin, xi) of one _tau_max pass over the whole y-grid."""
    xis = _directions(num_samples, seed)
    margins = _tau_max(-xis, _symbol_tables(spec)) - xis @ np.asarray(V, dtype=float)
    return float(margins.min()), xis[np.argmin(margins)]


def _random_hermitian_poly(rng, axes):
    """A random Hermitian trigonometric polynomial of 3x3 matrices with
    harmonics up to 2 along each of axes, positive definite: its mean is at
    least the identity, and its harmonics' norms sum to at most 0.8."""
    x = 0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    coefs = {(0, 0, 0): np.eye(3) + x @ x.conj().T}
    modes = []
    for a in axes:
        n = [0, 0, 0]
        n[a] = int(rng.integers(1, 3))
        modes.append(tuple(n))
    mixed = [0, 0, 0]
    for a in axes:
        mixed[a] = int(rng.choice([-2, -1, 1, 2]))
    modes.append(tuple(mixed))
    for n in dict.fromkeys(modes):
        c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c *= 0.4 / len(modes) / np.linalg.norm(c, 2)
        coefs[n] = c
        coefs[tuple(-v for v in n)] = c.conj().T
    return coefs


@pytest.mark.parametrize("axes, y_samples, num_samples", [
    ((1,), 17, 1000), ((0, 2), 17, 300),
    # a 9^3 grid keeps the full pass cheap; its sub-grid is y-indices 0 and 8
    ((0, 1, 2), 9, 150),
])
@pytest.mark.parametrize("refine_chunk", [16, 1])
def test_refined_check_matches_full_pass(axes, y_samples, num_samples, refine_chunk,
                                         monkeypatch):
    """On random Hermitian media structured along 1, 2 and 3 axes the
    bound-then-refine check returns the full pass's worst margin bit for bit
    and its direction, refining only part of the directions."""
    monkeypatch.setattr(dispersion, "Y_SAMPLES", y_samples)
    monkeypatch.setattr(dispersion, "REFINE_CHUNK", refine_chunk)
    rng = np.random.default_rng(len(axes))
    spec = MaterialSpec(eps0=_random_hermitian_poly(rng, axes),
                        mu0=_random_hermitian_poly(rng, axes)).validate()
    V = 0.3 * rng.standard_normal(3)
    refined = []
    tau_max = dispersion._tau_max
    monkeypatch.setattr(dispersion, "_tau_max",
                        lambda xis, tables: refined.append(tables.size) or tau_max(xis, tables))
    rep = speed_limit_check(spec, V, num_samples=num_samples, seed=5)
    full_size = _symbol_tables(spec).size
    assert refined[0] < full_size and refined.count(full_size) < num_samples
    worst, worst_xi = _full_pass(spec, V, num_samples, seed=5)
    assert rep["worst_margin"] == worst
    assert np.array_equal(rep["worst_xi"], worst_xi)


@pytest.mark.parametrize("refine_chunk", [16, 1])
def test_refined_margins_break_ties_on_lowest_index(refine_chunk, monkeypatch):
    """The worst direction repeated first and last: the refined margins hold
    it at index 0, as np.argmin over a full pass does."""
    monkeypatch.setattr(dispersion, "REFINE_CHUNK", refine_chunk)
    spec, V = layered(), np.array([0.4, 0.1, 0.0])
    tables = _symbol_tables(spec)
    xis = _directions(200, seed=3)
    full = _tau_max(-xis, tables) - xis @ V
    i = np.argmin(full)
    xis = np.concatenate([xis[i:i + 1], xis, xis[i:i + 1]])
    margins = _refined_margins(xis, xis @ V, tables, tables[:, ::8, ::8, ::8])
    assert np.argmin(margins) == 0
    assert margins[0] == margins[-1] == full[i]


def test_speed_limit_violation_detected_on_layered_grid():
    """A V outside the cone of a layered medium (17 grid points, so the check
    bounds on the sub-grid and refines) is refused with the full pass's
    margin."""
    spec, V = layered(), [2.0, 0.0, 0.0]
    worst, _xi = _full_pass(spec, V, 50, seed=4)
    assert worst < -dispersion.SPEED_TOL
    with pytest.raises(SpeedLimitViolation, match=f"margin {worst:.3e}"):
        speed_limit_check(spec, V, num_samples=50, seed=4)


@pytest.mark.parametrize("spec, theta", [(layered(), [0.3, 0.2, 0.0]),
                                         (layered_anisotropic(), [0.3, 0.0, 0.0])],
                         ids=["layered", "layered_anisotropic"])
def test_cutoff_convergence(spec, theta):
    """Band 1's omega, V and H from cutoff 1 to 6: the change from N-1 to N
    falls by at least a factor 100 per step until it reaches round-off, and N=2
    agrees with N=6 within the acceptance tolerances (frequencies and V to
    1e-10, the Hessian to 1e-5)."""
    decay, roundoff = 100.0, 1e-12
    results = {}
    for n in range(1, 7):
        op = BlochOperator.build(spec, LatticeCutoff(n), np.asarray(theta))
        band = next(b for b in solve_bands(op, 8) if b.band_index == 1)
        d = hessian(band, build_projectors(band, op), op)
        results[n] = (np.array([d.omega]), d.V, d.hessian)
    changes = np.array([[np.max(np.abs(a - b)) for a, b in zip(results[n], results[n - 1])]
                        for n in range(2, 7)])  # (N = 2..6, (omega, V, H))
    assert np.all(changes[1:] <= np.maximum(changes[:-1] / decay, roundoff))
    gap = [np.max(np.abs(a - b)) for a, b in zip(results[2], results[6])]
    assert gap[0] <= 1e-10 and gap[1] <= 1e-10 and gap[2] <= 1e-5
