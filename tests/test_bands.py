"""Bloch eigensolver: closed-form cross-checks, projector identities, cutoff
refinement, and band tracking."""

import numpy as np
import pytest

from blochpacket.bands import (
    BlochOperator,
    build_projectors,
    solve_bands,
    track_band,
)
from blochpacket.errors import CutoffMismatch, GapViolation, MaterialError, MultiplicityInconsistent
from blochpacket.fourier import LatticeCutoff, MaterialSpec, base_material_matrix, curl_matrix
from blochpacket.oracles import constant_spectrum
from blochpacket.presets import identity_material, layered, scaled_identity

THETA = np.array([0.3, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Constant-coefficient cross-checks
# ---------------------------------------------------------------------------

def test_identity_lowest_clusters():
    bands = solve_bands(BlochOperator.build(identity_material(), LatticeCutoff(1), THETA), 8)
    lows = sorted((b.omega, b.kappa) for b in bands)
    assert lows == [(-0.7, 2), (-0.3, 2), (0.3, 2), (0.7, 2)]
    for b in bands:
        assert b.residual < 1e-12


def test_identity_full_spectrum_matches_closed_form():
    cut = LatticeCutoff(1)
    spec = identity_material()
    bands = solve_bands(BlochOperator.build(spec, cut, THETA), 4 * cut.num_modes)
    computed = np.sort(np.concatenate([[b.omega] * b.kappa for b in bands]))
    exact = np.sort(constant_spectrum(cut, THETA))
    assert np.allclose(computed, exact, atol=1e-10)


def test_scaled_identity_halves_frequencies():
    cut = LatticeCutoff(1)
    ref = solve_bands(BlochOperator.build(identity_material(), cut, THETA), 8)
    scaled = solve_bands(BlochOperator.build(scaled_identity(eps=4.0), cut, THETA), 8)
    for a, b in zip(ref, scaled):
        assert abs(b.omega - a.omega / 2) < 1e-12
        assert a.kappa == b.kappa


def test_plus_minus_pairing():
    bands = solve_bands(BlochOperator.build(layered(0.2), LatticeCutoff(1),
                                            np.array([0.3, 0.2, 0.0])), 12)
    omegas = sorted(b.omega for b in bands for _ in range(b.kappa))
    for w in omegas:
        assert any(abs(w + v) < 1e-11 for v in omegas)


def test_layered_cutoff_refinement():
    """Layered medium: the operator block-diagonalizes over transverse mode
    indices, so the axis-refined cutoffs solve exact sub-blocks; bands at
    (4,0,0) must match (8,0,0) to 1e-8 relative."""
    spec = layered(amplitude=0.2)
    theta = np.array([0.3, 0.2, 0.0])
    coarse = solve_bands(BlochOperator.build(spec, LatticeCutoff((4, 0, 0)), theta), 12)
    fine = solve_bands(BlochOperator.build(spec, LatticeCutoff((8, 0, 0)), theta), 24)
    fine_omegas = np.array([b.omega for b in fine])
    for b in coarse[:8]:
        nearest = fine_omegas[np.argmin(np.abs(fine_omegas - b.omega))]
        assert abs(b.omega - nearest) < 1e-8 * abs(b.omega)


def test_divergence_constraints(offaxis_layered_pipe):
    """Eigenvectors satisfy div(eps0 E) = div(mu0 B) = 0 discretely: they are
    A0-orthogonal to the curl kernel."""
    pipe = offaxis_layered_pipe
    from blochpacket.fourier import longitudinal_field_basis

    a0 = base_material_matrix(pipe.spec, pipe.cutoff)
    ell = longitudinal_field_basis(pipe.cutoff, pipe.theta)
    for b in pipe.bands:
        coupling = ell.conj().T @ (a0 @ b.eigvecs)
        assert np.linalg.norm(coupling) < 1e-9 * np.linalg.norm(b.eigvecs)


def test_orthonormality(offaxis_layered_pipe):
    for b in offaxis_layered_pipe.bands:
        gram = b.eigvecs.conj().T @ b.eigvecs
        assert np.allclose(gram, np.eye(b.kappa), atol=1e-10)
        assert b.residual < 1e-9


def test_indefinite_material_rejected():
    bad = MaterialSpec(eps0={(0, 0, 0): -np.eye(3)}, mu0={(0, 0, 0): np.eye(3)})
    with pytest.raises(MaterialError):
        solve_bands(BlochOperator.build(bad, LatticeCutoff(1), THETA), 4)


def test_num_bands_exceeding_dynamic_dimension():
    with pytest.raises(ValueError):
        solve_bands(BlochOperator.build(identity_material(), LatticeCutoff(0), THETA), 5)


# ---------------------------------------------------------------------------
# Projector pair
# ---------------------------------------------------------------------------

def test_projector_rank_and_structure(identity_pipe):
    pipe = identity_pipe
    proj = pipe.projectors
    assert np.linalg.matrix_rank(proj.Pi, tol=1e-10) == 2
    assert np.allclose(proj.Pi @ proj.Pi, proj.Pi, atol=1e-12)
    assert np.allclose(proj.Pi, proj.Pi.conj().T, atol=1e-12)
    # supported on the n = 0 transverse modes with b = -(theta ^ e)/omega
    cut = pipe.cutoff
    i0 = cut.index_of((0, 0, 0))
    e = np.array([0.0, 1.0, 0.5])  # any vector orthogonal to theta = (0.3,0,0)
    b = -np.cross(THETA, e) / pipe.band.omega
    vec = np.zeros(6 * cut.num_modes, dtype=complex)
    vec[6 * i0 : 6 * i0 + 3] = e
    vec[6 * i0 + 3 : 6 * i0 + 6] = b
    assert np.linalg.norm(proj.Pi @ vec - vec) < 1e-10 * np.linalg.norm(vec)
    # and annihilates the longitudinal direction
    kvec = np.zeros_like(vec)
    kvec[6 * i0 : 6 * i0 + 3] = THETA / np.linalg.norm(THETA)
    assert np.linalg.norm(proj.Pi @ kvec) < 1e-10


def test_projector_identities_random_probes(identity_pipe, rng):
    pipe = identity_pipe
    proj = pipe.projectors
    a0, g = base_material_matrix(pipe.spec, pipe.cutoff), curl_matrix(pipe.cutoff, pipe.theta)
    pencil = 1j * pipe.band.omega * a0 - g
    eye = np.eye(pencil.shape[0])
    for _ in range(20):
        v = rng.standard_normal(pencil.shape[0]) + 1j * rng.standard_normal(pencil.shape[0])
        assert np.linalg.norm(proj.Pi @ (proj.Q @ v)) < 1e-10 * np.linalg.norm(v)
        assert np.linalg.norm(proj.Q @ (proj.Pi @ v)) < 1e-10 * np.linalg.norm(v)
        lhs = pencil @ (proj.Q @ v)
        rhs = (eye - proj.Pi) @ v
        assert np.linalg.norm(lhs - rhs) < 1e-10 * np.linalg.norm(v)


def test_partial_inverse_matches_dense_pinv(identity_pipe):
    pipe = identity_pipe
    a0, g = base_material_matrix(pipe.spec, pipe.cutoff), curl_matrix(pipe.cutoff, pipe.theta)
    pencil = 1j * pipe.band.omega * a0 - g
    dense = np.linalg.pinv(pencil, rcond=1e-10)
    assert np.linalg.norm(pipe.projectors.Q - dense) < 1e-9 * np.linalg.norm(dense)


def test_projector_multiplicity_diagnostic(identity_pipe):
    import dataclasses

    band = dataclasses.replace(identity_pipe.band, kappa=3)
    with pytest.raises(MultiplicityInconsistent):
        build_projectors(band, identity_pipe.op)


def test_projectors_reject_operator_at_other_theta(identity_pipe):
    with pytest.raises(CutoffMismatch):
        build_projectors(identity_pipe.band, identity_pipe.op.at(THETA + [0.01, 0.0, 0.0]))


def test_projector_not_weighted_orthogonal(offaxis_layered_pipe):
    """With nonconstant eps0 the eigenprojector is plain-orthogonal but not
    orthogonal for the material-weighted product."""
    pipe = offaxis_layered_pipe
    a0 = base_material_matrix(pipe.spec, pipe.cutoff)
    pi = pipe.projectors.Pi
    comm = pi @ a0 - a0 @ pi
    assert np.linalg.norm(comm) > 1e-3


# ---------------------------------------------------------------------------
# Band tracking
# ---------------------------------------------------------------------------

def test_track_identity_linear_omega(identity_pipe):
    pipe = identity_pipe
    path = [THETA + np.array([0.1 * s, 0.0, 0.0]) for s in np.linspace(0, 1, 6)]
    tracked = track_band(pipe.op, pipe.band, path)
    for tb, th in zip(tracked, path):
        assert abs(tb.omega - th[0]) < 1e-12
        assert tb.kappa == 2


def test_track_single_point_returns_input(identity_pipe):
    pipe = identity_pipe
    out = track_band(pipe.op, pipe.band, [pipe.band.theta])
    assert out[0] is pipe.band


def test_track_layered_matches_per_point_resolve(offaxis_layered_pipe):
    pipe = offaxis_layered_pipe
    path = [pipe.theta + np.array([0.0, 0.02 * s, 0.0]) for s in range(4)]
    tracked = track_band(pipe.op, pipe.band, path)
    for tb, th in zip(tracked, path):
        fresh = solve_bands(pipe.op.at(th), 8)
        nearest = min(fresh, key=lambda b: abs(b.omega - tb.omega))
        assert abs(nearest.omega - tb.omega) < 1e-11
        overlap = np.linalg.svd(tb.eigvecs.conj().T @ nearest.eigvecs,
                                compute_uv=False)
        assert overlap.min() > 1 - 1e-9


def test_track_gauge_continuity(identity_pipe):
    pipe = identity_pipe
    path = [THETA + np.array([0.03 * s, 0.012 * s, 0.0]) for s in range(5)]
    tracked = track_band(pipe.op, pipe.band, path)
    for a, b in zip(tracked[:-1], tracked[1:]):
        overlap = a.eigvecs.conj().T @ b.eigvecs
        # aligned bases stay close to the identity, not just the same span
        assert np.linalg.norm(overlap - np.eye(a.kappa)) < 0.2


def test_track_gap_violation():
    """Isotropic layered medium: the two lowest bands collide as theta returns
    to the symmetry axis; tracking one of them must fail loudly."""
    spec = layered(amplitude=0.2)
    cut = LatticeCutoff(2)
    start = np.array([0.3, 0.2, 0.0])
    op = BlochOperator.build(spec, cut, start)
    pipe_bands = solve_bands(op, 4)
    band = next(b for b in pipe_bands if b.band_index == 1)
    path = [start + np.array([0.0, -0.05 * s, 0.0]) for s in range(5)]
    with pytest.raises((GapViolation, MultiplicityInconsistent)):
        track_band(op, band, path, gap_tol=1e-6)


def test_track_step_bound(identity_pipe):
    pipe = identity_pipe
    with pytest.raises(ValueError):
        track_band(pipe.op, pipe.band,
                   [THETA, THETA + np.array([0.5, 0.0, 0.0])])
