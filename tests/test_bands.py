"""Bloch eigensolver: closed-form cross-checks, projector identities, cutoff
refinement, and band tracking."""

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from helpers import (
    apply_a0_reference,
    block_diagonal,
    class_blocks,
    continue_band_reference,
    cosine_3d,
    dense_operator,
    longitudinal_field_blocks,
    parity_layered,
    solve_bands_reference,
)

from blochpacket import bands
from blochpacket.bands import (
    BlochOperator,
    _fix_gauge,
    build_projectors,
    continue_bands,
    mode_classes,
    solve_bands,
    track_band,
)
from blochpacket.cli import select_band
from blochpacket.config import load_config
from blochpacket.dispersion import _hessian_shifts
from blochpacket.errors import CutoffMismatch, GapViolation, MaterialError, MultiplicityInconsistent
from blochpacket.fourier import (
    LatticeCutoff,
    MaterialSpec,
    base_material_matrix,
    transverse_field_blocks,
    transverse_pair,
)
from blochpacket.oracles import constant_spectrum
from blochpacket.presets import identity_material, layered, layered_anisotropic, scaled_identity

THETA = np.array([0.3, 0.0, 0.0])
THETA_OFF = np.array([0.3, 0.2, 0.0])


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
    a0, _g = dense_operator(pipe.spec, pipe.cutoff, pipe.theta)
    ell = block_diagonal(longitudinal_field_blocks(pipe.cutoff, pipe.theta))
    for b in pipe.bands:
        coupling = ell.conj().T @ (a0 @ b.eigvecs)
        assert np.linalg.norm(coupling) < 1e-9 * np.linalg.norm(b.eigvecs)


def test_orthonormality(offaxis_layered_pipe):
    for b in offaxis_layered_pipe.bands:
        gram = b.eigvecs.conj().T @ b.eigvecs
        assert np.allclose(gram, np.eye(b.kappa), atol=1e-10)
        assert b.residual < 1e-9


def test_indefinite_material_rejected():
    """The A0 factor is computed when the operator is built, so building the
    operator alone rejects an indefinite material."""
    bad = MaterialSpec(eps0={(0, 0, 0): -np.eye(3)}, mu0={(0, 0, 0): np.eye(3)})
    with pytest.raises(MaterialError):
        BlochOperator.build(bad, LatticeCutoff(1), THETA)


def test_num_bands_exceeding_dynamic_dimension(monkeypatch):
    """The dimension in the refusal is the sum of 4m over the class members,
    counted without solving any."""
    pencils = _pencils(monkeypatch)
    with pytest.raises(ValueError):
        solve_bands(BlochOperator.build(identity_material(), LatticeCutoff(0), THETA), 5)
    op = BlochOperator.build(layered(0.2), LatticeCutoff(2), THETA_OFF)
    with pytest.raises(ValueError, match=r"^num_bands=501 exceeds the dynamic subspace "
                                         r"dimension 500$"):
        solve_bands(op, 501)
    assert not pencils


# ---------------------------------------------------------------------------
# Mode classes and the block-by-block solve
# ---------------------------------------------------------------------------

def test_mode_class_counts():
    cut = LatticeCutoff(2)
    parity = parity_layered()
    cases = [
        (layered(0.2), [5] * 25),
        (identity_material(), [1] * cut.num_modes),
        (parity, [3] * 25 + [2] * 25),
        (cosine_3d(), [cut.num_modes]),
    ]
    for spec, sizes in cases:
        classes = mode_classes(spec, cut)
        assert [len(c) for c in classes] == sizes
        assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(cut.num_modes))
    # the parity split: even and odd n1 on each transverse line
    for c in mode_classes(parity, cut):
        n1 = cut.modes[c][:, 0]
        assert len(set(n1 % 2)) == 1 and len(set(map(tuple, cut.modes[c][:, 1:]))) == 1


def test_single_class_yields_the_stored_block(monkeypatch):
    """A medium with one class solves on its stored A0 block: the one group
    holds the array base_material_matrix filled, not a copy."""
    filled = []

    def keep(*args):
        filled.extend(base_material_matrix(*args))
        return filled

    monkeypatch.setattr(bands, "base_material_matrix", keep)
    op = BlochOperator.build(cosine_3d(), LatticeCutoff(1), THETA_OFF)
    (_modes, rows, a0, _li), = op.groups
    assert a0 is filled[0]
    assert a0.shape == (1, 6 * op.cutoff.num_modes, 6 * op.cutoff.num_modes)
    assert np.array_equal(rows[0], np.arange(6 * op.cutoff.num_modes))


@pytest.mark.parametrize("spec", [cosine_3d(), parity_layered()], ids=["cosine_3d", "parity"])
def test_at_shares_the_a0_factor(spec):
    """Each group's li is the inverse of the Cholesky factor of its A0
    blocks, computed once by build."""
    op = BlochOperator.build(spec, LatticeCutoff(2), THETA_OFF)
    for _m, _r, a0, li in op.groups:
        eye = np.eye(a0.shape[-1])
        assert np.max(np.abs(li @ a0 @ li.conj().swapaxes(-1, -2) - eye)) < 1e-12
        assert not np.any(np.triu(li, 1))


@pytest.mark.parametrize("cutoff", [1, 2])
@pytest.mark.parametrize("spec",
                         [layered(0.2), identity_material(), cosine_3d(), parity_layered()],
                         ids=["layered", "identity", "cosine_3d", "parity"])
def test_operator_blocks_match_dense_reference(spec, cutoff):
    """The per-class A0 blocks and per-mode G blocks are the dense operator's
    diagonal blocks, and the dense operator has nothing outside them; the
    batched apply_a0 equals the class-by-class product to 1e-15."""
    op = BlochOperator.build(spec, LatticeCutoff(cutoff), THETA_OFF)
    a0, g = dense_operator(spec, op.cutoff, op.theta)
    covered = np.zeros(a0.shape, dtype=bool)
    for modes, rows, a0_block in class_blocks(op):
        ix = np.ix_(rows, rows)
        assert np.array_equal(a0_block, a0[ix])
        assert np.array_equal(block_diagonal(op.g_blocks[modes]), g[ix])
        covered[ix] = True
    assert not np.any(a0[~covered]) and not np.any(g[~covered])
    v = np.random.default_rng(5).standard_normal((len(a0), 3)) * (1 + 1j)
    for probe in (v, v[:, 0]):
        ref = apply_a0_reference(op, probe)
        assert np.linalg.norm(op.apply_a0(probe) - ref) <= 1e-15 * np.linalg.norm(ref)


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def test_no_dense_operator_arrays_held(offaxis_layered_pipe):
    """A layered medium (25 classes at cutoff 2): neither the operator nor the
    projector pair holds an array of 6K rows and 6K columns."""
    pipe = offaxis_layered_pipe
    k6 = 6 * pipe.cutoff.num_modes
    for obj in (pipe.op, pipe.projectors):
        for f in dataclasses.fields(obj):
            for arr in _arrays(getattr(obj, f.name)):
                assert arr.shape[:2] != (k6, k6), f.name


def _dense_pencil(op):
    """Eigenvalues (sorted) and eigenvectors of the pencil solved as one
    dense generalized problem on the dynamic subspace: the 4K transverse
    fields A0-orthogonalized against the curl kernel, a route independent of
    the solver's reduction through inv(A0)."""
    a0, g = dense_operator(op.spec, op.cutoff, op.theta)
    t = block_diagonal(transverse_field_blocks(op.cutoff, op.theta))
    ell = block_diagonal(longitudinal_field_blocks(op.cutoff, op.theta))
    a0_ell = a0 @ ell
    dyn = t - ell @ np.linalg.solve(ell.conj().T @ a0_ell, a0_ell.conj().T @ t)
    herm = dyn.conj().T @ (-1j * g) @ dyn
    mass = dyn.conj().T @ a0 @ dyn
    vals, vecs = scipy.linalg.eigh(0.5 * (herm + herm.conj().T), 0.5 * (mass + mass.conj().T))
    return vals, dyn @ vecs


def _pencils(monkeypatch):
    """Every reduced pencil that the band solves build, one per theta, in
    call order."""
    built = []
    solve = bands._solve_pencils

    def record(*args, **kwargs):
        stack = solve(*args, **kwargs)
        built.extend(stack)
        return stack

    monkeypatch.setattr(bands, "_solve_pencils", record)
    return built


@pytest.mark.parametrize("spec, cutoff",
                         [(layered(0.2), 2), (cosine_3d(), 1), (parity_layered(), 2)],
                         ids=["layered", "cosine_3d", "parity"])
def test_block_solve_matches_dense_pencil(spec, cutoff, monkeypatch):
    """All bands of the dynamic subspace: every class member's eigenvectors
    get built, and every cluster's eigenspace is the dense pencil's."""
    pencils = _pencils(monkeypatch)
    op = BlochOperator.build(spec, LatticeCutoff(cutoff), THETA_OFF)
    vals, vecs = _dense_pencil(op)
    bands = solve_bands(op, len(vals))
    (p,) = pencils
    assert set(p.vecs) == set(map(tuple, p.owner[:2].T.tolist()))
    got = np.sort(np.concatenate([[b.omega] * b.kappa for b in bands]))
    assert np.max(np.abs(got - vals)) < 1e-12
    for b in bands:
        sel = np.abs(vals - b.omega) < 1e-8
        assert sel.sum() == b.kappa
        ref, _r = np.linalg.qr(vecs[:, sel])
        overlap = np.linalg.svd(b.eigvecs.conj().T @ ref, compute_uv=False)
        assert overlap.min() > 1 - 1e-10


@pytest.mark.parametrize("spec, cutoff", [(layered(0.2), 2), (cosine_3d(), 1)],
                         ids=["layered", "cosine_3d"])
def test_continuation_matches_dense_pencil(spec, cutoff):
    """continue_bands at a finite-difference stencil point: its eigenvalue is
    the dense pencil's to 1e-12, and its eigenspace the dense eigenspace
    (projectors within 1e-9)."""
    op = BlochOperator.build(spec, LatticeCutoff(cutoff), THETA_OFF)
    band = next(b for b in solve_bands(op, 8) if b.band_index == 1)
    theta = THETA_OFF + [5e-3, 2.5e-3, 0.0]
    cont, _gap, _overlap = next(continue_bands(op, [theta], band))
    vals, vecs = _dense_pencil(BlochOperator.build(op.spec, op.cutoff, theta))
    sel = np.abs(vals - cont.omega) < 1e-8
    assert sel.sum() == cont.kappa
    assert np.max(np.abs(vals[sel] - cont.omega)) < 1e-12
    ref, _r = np.linalg.qr(vecs[:, sel])
    dist = cont.eigvecs @ cont.eigvecs.conj().T - ref @ ref.conj().T
    assert np.linalg.norm(dist, 2) < 1e-9


def test_eigenvectors_built_only_for_clusters_read(monkeypatch):
    """Layered medium, 25 classes: solve_bands builds eigenvectors only for
    the members owning a returned cluster, continue_bands only for the
    members it solves, those that can reach the tracked omega's window."""
    pencils = _pencils(monkeypatch)
    op = BlochOperator.build(layered(0.2), LatticeCutoff(2), THETA_OFF)
    got = solve_bands(op, 4)
    next(continue_bands(op, [THETA_OFF + [0.005, 0.0, 0.0]], got[1]))
    solved, continued = pencils
    omegas = np.array([b.omega for b in got])
    near = np.abs(solved.vals[:, None] - omegas).min(axis=1) < 1e-8
    assert set(solved.vecs) == set(map(tuple, solved.owner[:2, near].T.tolist()))
    assert len(solved.vecs) < 25 and 0 < len(continued.vecs) < 25


def test_continuation_across_symmetry_allowed_crossing():
    """theta2 = 0.45 -> 0.55 crosses theta2 = 1/2, where the band of the
    transverse mode n2 = 0 meets, by the mirror symmetry of the layers, that
    of n2 = -1.  The nearest omega after the step is the other branch (in
    another class, so with no overlap); the continuation must stay on its
    own."""
    start = np.array([0.3, 0.45, 0.0])
    op = BlochOperator.build(layered(0.2), LatticeCutoff(2), start)
    band = next(b for b in solve_bands(op, 4) if b.band_index == 1)
    end = start + [0.0, 0.1, 0.0]
    cont, gap, _overlap = next(continue_bands(op, [end], band))
    nearest = min(solve_bands(BlochOperator.build(op.spec, op.cutoff, end), 8), key=lambda b: abs(b.omega - band.omega))
    assert abs(nearest.omega - band.omega) < 1e-12 < abs(cont.omega - band.omega)
    assert np.linalg.norm(nearest.eigvecs.conj().T @ cont.eigvecs) == 0.0
    assert abs(cont.eigvecs.conj().T @ band.eigvecs).item() > 0.9
    assert cont.kappa == 1 and cont.residual < bands.RESIDUAL_TOL and gap > bands.DEFAULT_GAP_TOL


PRESETS = [(layered(0.2), 2), (layered_anisotropic(), 2), (parity_layered(), 2),
           (cosine_3d(), 1), (identity_material(), 2)]
PRESET_IDS = ["layered", "layered_anisotropic", "parity", "cosine_3d", "identity"]


@pytest.mark.parametrize("theta", [THETA_OFF, [0.45, 0.1, 0.7], [-0.2, 1.05, 0.3]],
                         ids=["offaxis", "oblique", "unwrapped"])
@pytest.mark.parametrize("spec, cutoff", PRESETS, ids=PRESET_IDS)
def test_class_floor_bounds_its_spectrum(spec, cutoff, theta):
    """Each class member's smallest |eigenvalue| from a full solve is at
    least its floor (up to round-off); on the identity, one mode per class,
    the floor is attained."""
    op = BlochOperator.build(spec, LatticeCutoff(cutoff), theta)
    p = bands._solve_pencil(op, op.theta)
    floors = bands._floors(op)
    lowest = {}
    for v, (g, c, _k) in zip(np.abs(p.vals), p.owner.T.tolist()):
        lowest.setdefault((g, c), v)
    assert len(lowest) == sum(len(f) for f in floors)
    slack = np.array([lowest[g, c] - floors[g][c] for g, c in lowest])
    assert slack.min() >= -1e-14
    if len(op.groups[0][0][0]) == 1:
        assert np.abs(slack).max() < 1e-14


def _assert_same_continuation(op, theta, prev):
    """continue_bands at one theta against the all-classes reference: omega,
    band index and gap agree exactly, the eigenvectors to 1e-14."""
    got, gap, _overlap = next(continue_bands(op, [theta], prev))
    ref, ref_gap = continue_band_reference(op, theta, prev)
    assert (got.omega, got.band_index, got.kappa, gap) == (ref.omega, ref.band_index,
                                                           ref.kappa, ref_gap)
    assert np.max(np.abs(got.eigvecs - ref.eigvecs)) <= 1e-14
    assert got.residual == ref.residual
    return got, gap


@pytest.mark.parametrize("spec, cutoff, theta",
                         [(spec, cutoff, THETA if name == "layered_anisotropic" else THETA_OFF)
                          for (spec, cutoff), name in zip(PRESETS, PRESET_IDS)], ids=PRESET_IDS)
def test_windowed_continuation_matches_all_classes_at_stencil_points(spec, cutoff, theta):
    """Off axis, except for the anisotropic layers, which alone split the
    polarizations on axis: elsewhere a kappa = 2 cluster there splits at
    the stencil points."""
    op = BlochOperator.build(spec, LatticeCutoff(cutoff), theta)
    for band in solve_bands(op, 8)[:4]:
        for shift in (5e-3 * np.eye(3)[0], -1e-2 * np.eye(3)[1], [5e-3, -5e-3, 5e-3]):
            _assert_same_continuation(op, op.theta + shift, band)


def test_windowed_continuation_matches_all_classes_along_a_path():
    """The bands_layered theta path: each step continues the previous one."""
    op = BlochOperator.build(layered(0.2), LatticeCutoff(2), THETA_OFF)
    band = next(b for b in solve_bands(op, 8) if b.band_index == 1)
    for s in range(1, 5):
        band, _gap = _assert_same_continuation(op, THETA_OFF + [0.0, 0.02 * s, 0.0], band)


def test_windowed_continuation_matches_all_classes_across_crossing():
    start = np.array([0.3, 0.45, 0.0])
    op = BlochOperator.build(layered(0.2), LatticeCutoff(2), start)
    band = next(b for b in solve_bands(op, 4) if b.band_index == 1)
    _assert_same_continuation(op, start + [0.0, 0.1, 0.0], band)


def test_windowed_continuation_falls_back_to_every_class(monkeypatch):
    """No cluster lies within 0.2 * 10 of omega = 10 (the spectrum at cutoff 2
    stays below 4), so every class member is solved and the match is by
    overlap alone."""
    pencils = _pencils(monkeypatch)
    op = BlochOperator.build(layered(0.2), LatticeCutoff(2), THETA_OFF)
    band = next(b for b in solve_bands(op, 8) if b.band_index == 1)
    far = dataclasses.replace(band, omega=10.0)
    pencils.clear()
    got, _gap = _assert_same_continuation(op, THETA_OFF + [5e-3, 0.0, 0.0], far)
    assert got.band_index == 1
    assert len(pencils[1].vals) == 4 * op.cutoff.num_modes


def test_windowed_continuation_gap_pass(monkeypatch):
    """Identity at cutoff 1, omega = 0.3: the window reaches 0.5, so the first
    pass solves the mode n = 0 alone (+-0.3, gap 0.6).  The mode (-1, 0, 0)
    (|omega| 0.7, floor 0.7 < 0.3 + 0.6) is solved by the gap pass, and the
    gap shrinks to the full spectrum's 0.4."""
    pencils = _pencils(monkeypatch)
    op = BlochOperator.build(identity_material(), LatticeCutoff(1), THETA)
    band = next(b for b in solve_bands(op, 8) if b.band_index == 1)
    pencils.clear()
    got, gap = _assert_same_continuation(op, THETA + [1e-3, 0.0, 0.0], band)
    first, second = pencils[:2]
    assert sorted(np.abs(first.vals)) == pytest.approx([0.301] * 4, abs=1e-12)
    assert sorted(np.abs(second.vals)) == pytest.approx([0.699] * 4, abs=1e-12)
    assert gap == pytest.approx(0.398, abs=1e-12) and got.kappa == 2


def test_continuation_solves_one_of_25_classes(monkeypatch):
    """Layered at cutoff 2 (25 classes of 5 modes): a stencil continuation of
    band 1 solves the one class that can reach its window."""
    pencils = _pencils(monkeypatch)
    op = BlochOperator.build(layered(0.2), LatticeCutoff(2), THETA_OFF)
    band = next(b for b in solve_bands(op, 8) if b.band_index == 1)
    pencils.clear()
    next(continue_bands(op, [THETA_OFF + [5e-3, 0.0, 0.0]], band))
    (p,) = pencils
    assert sum(len(f) for f in bands._floors(op)) == 25
    assert len(set(map(tuple, p.owner[:2].T.tolist()))) == 1 and len(p.vals) == 20


# ---------------------------------------------------------------------------
# The full band solve on the members the floors admit
# ---------------------------------------------------------------------------

def _members(pencils):
    """(group, member) of every class member solved by any of the pencils."""
    return {(g, p.blocks[g][0][c]) for p in pencils for g, c in p.owner[:2].T.tolist()}


def _random_multiclass(seed):
    """Random Hermitian eps0 and mu0 with harmonics (1, 0, 0) and (0, 2, 0):
    at cutoff 2 the modes split by n3 and the parity of n2 into 10 classes,
    of 15 and 10 modes.  The mean is at least the identity and the harmonics'
    norms sum to 0.8, so both are positive definite."""
    rng = np.random.default_rng(seed)

    def coefs():
        x = 0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        out = {(0, 0, 0): np.eye(3) + x @ x.conj().T}
        for n in [(1, 0, 0), (0, 2, 0)]:
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            out[n] = 0.2 * c / np.linalg.norm(c, 2)
            out[tuple(-v for v in n)] = out[n].conj().T
        return out

    return MaterialSpec(eps0=coefs(), mu0=coefs()).validate()


@pytest.mark.parametrize("spec, cutoff, theta", [
    (layered(0.2), 2, THETA_OFF), (layered(0.2), 2, THETA), (parity_layered(), 2, THETA),
    (cosine_3d(), 1, THETA), (identity_material(), 1, THETA),
    (_random_multiclass(0), 2, [0.31, 0.17, 0.05]), (_random_multiclass(1), 2, [0.2, 0.4, 0.1]),
], ids=["layered", "layered_axis", "parity", "cosine_3d", "identity", "random0", "random1"])
def test_pruned_solve_matches_every_member(spec, cutoff, theta, monkeypatch):
    """solve_bands against the solve of every member, for 1, 2 and 8 bands,
    cuts inside the first multiple cluster and inside the first cluster
    spread over several classes (on axis the polarizations, and the classes
    related by the symmetries of the layers, are degenerate; the cluster is
    returned whole with a warning), and every band (one pass over every
    member): omega, band index, kappa and residual are bitwise equal, the
    eigenvectors equal up to the gauge."""
    op = BlochOperator.build(spec, LatticeCutoff(cutoff), theta)
    dim = 4 * op.cutoff.num_modes
    full = solve_bands_reference(op, dim)
    starts = np.cumsum([0] + [b.kappa for b in full])
    member = np.empty(len(full[0].eigvecs), dtype=int)
    for i, rows in enumerate(r for _m, group_rows, _a0, _li in op.groups for r in group_rows):
        member[rows] = i
    spread = [len(set(member[np.flatnonzero(np.abs(b.eigvecs).sum(axis=1))])) for b in full]
    straddle = sorted({next((s + 1 for s, b in zip(starts, full) if b.kappa > 1), dim),
                       next((s + 1 for s, k in zip(starts, spread) if k > 1), dim)} - {dim})
    # on axis the spectrum has multiple clusters to cut into
    assert straddle or theta[1] != 0.0
    pencils = _pencils(monkeypatch)
    classes = sum(len(m) for m, *_rest in op.groups)
    for num_bands in [1, 2, 8, *straddle, dim]:
        pencils.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = solve_bands(op, num_bands)
        assert [w.category for w in caught] == [bands.ClusterStraddle] * (num_bands not in starts)
        ref = full[:len(got)]
        assert sum(b.kappa for b in got) >= num_bands > sum(b.kappa for b in got[:-1])
        for b, r in zip(got, ref, strict=True):
            assert (b.omega, b.band_index, b.kappa, b.residual) == (
                r.omega, r.band_index, r.kappa, r.residual)
            aligned, _s = bands.procrustes_align(b.eigvecs, r.eigvecs)
            assert np.max(np.abs(aligned - r.eigvecs)) <= 1e-12
        if num_bands == dim or classes == 1:
            (p,) = pencils
            assert len(p.vals) == dim
        elif num_bands <= 2:
            assert len(_members(pencils)) < classes


def _shifted_pencils(monkeypatch):
    """The number of class members of every shifted pencil built (the
    kernel count's and apply_q's solves), in call order."""
    built = []
    shifted = bands._shifted_pencil

    def record(op, g, sel, omega):
        built.append(int(sel.sum()))
        return shifted(op, g, sel, omega)

    monkeypatch.setattr(bands, "_shifted_pencil", record)
    return built


def test_band_stages_on_bands_layered_touch_few_classes(monkeypatch):
    """configs/bands_layered.json (layered, cutoff 2, 25 classes, 8 bands):
    select_band solves at most 2 members, and build_projectors counts the
    kernel on the one class that holds the band."""
    cfg = load_config(Path(__file__).parents[1] / "configs" / "bands_layered.json")
    op = BlochOperator.build(cfg.material, cfg.cutoff, cfg.theta)
    assert sum(len(f) for f in bands._floors(op)) == 25
    pencils = _pencils(monkeypatch)
    band, _all = select_band(cfg, op)
    assert len(_members(pencils)) <= 2
    shifted = _shifted_pencils(monkeypatch)
    build_projectors(band, op)
    assert shifted == [1]


def test_gauge_frame_built_only_for_a_multiple_cluster(monkeypatch):
    """The transverse frame is read by kappa > 1 clusters alone: bands_layered's
    eight bands (all kappa = 1) never build it, the vacuum's build it once."""
    built = []

    def frame(*args):
        built.append(args)
        return transverse_field_blocks(*args)

    monkeypatch.setattr(bands, "transverse_field_blocks", frame)
    got = solve_bands(BlochOperator.build(layered(0.2), LatticeCutoff(2), THETA_OFF), 8)
    assert {b.kappa for b in got} == {1} and not built
    got = solve_bands(BlochOperator.build(identity_material(), LatticeCutoff(1), THETA), 8)
    assert {b.kappa for b in got} == {2} and len(built) == 1


# ---------------------------------------------------------------------------
# Stacked continuation against the per-point walk
# ---------------------------------------------------------------------------

def _stack_sizes(monkeypatch):
    """The number of thetas of every stacked pencil solve, in call order."""
    sizes = []
    solve = bands._solve_pencils

    def record(op, thetas, *args, **kwargs):
        sizes.append(len(thetas))
        return solve(op, thetas, *args, **kwargs)

    monkeypatch.setattr(bands, "_solve_pencils", record)
    return sizes


def _assert_same_walk(conts, refs, prevs):
    """continue_bands against continue_band_reference, theta by theta: omega
    to 1e-13, the same band index, the gap to round-off, the bases equal up
    to round-off, and the overlap with the band continued that of the bases."""
    for cont, (ref, ref_gap), prev in zip(conts, refs, prevs, strict=True):
        got = cont.band
        assert abs(got.omega - ref.omega) <= 1e-13
        assert (got.band_index, got.kappa) == (ref.band_index, ref.kappa)
        assert abs(cont.gap - ref_gap) <= 1e-13
        assert np.linalg.norm(got.eigvecs.conj().T @ ref.eigvecs - np.eye(got.kappa)) <= 1e-10
        overlap = np.linalg.svd(got.eigvecs.conj().T @ prev.eigvecs, compute_uv=False)
        assert abs(cont.overlap - overlap.min()) <= 1e-13


def test_stacked_continuation_matches_per_point_at_fd_stencil(monkeypatch):
    """The 36 fd_hessian stencil points of the bands_layered band are one
    stacked solve, and each point is the per-point continuation of the
    band."""
    op = BlochOperator.build(layered(0.2), LatticeCutoff(2), THETA_OFF)
    band = next(b for b in solve_bands(op, 8) if b.band_index == 1)
    thetas = band.theta + _hessian_shifts(5e-3).reshape(-1, 3)
    refs = [continue_band_reference(op, theta, band) for theta in thetas]
    sizes = _stack_sizes(monkeypatch)
    conts = list(continue_bands(op, thetas, band))
    assert sizes == [36]
    _assert_same_walk(conts, refs, [band] * 36)


def test_stacked_path_matches_per_point_walk_across_crossing():
    """A path through the symmetry-allowed crossing at theta2 = 1/2, each
    point continuing the previous one."""
    start = np.array([0.3, 0.45, 0.0])
    op = BlochOperator.build(layered(0.2), LatticeCutoff(2), start)
    band = next(b for b in solve_bands(op, 4) if b.band_index == 1)
    path = [start + [0.0, 0.035 * s, 0.0] for s in range(1, 5)]
    refs, prevs = [], [band]
    for theta in path:
        refs.append(continue_band_reference(op, theta, prevs[-1]))
        prevs.append(refs[-1][0])
    conts = list(continue_bands(op, path, band, parents=range(-1, len(path) - 1)))
    assert path[0][1] < 0.5 < path[1][1]
    _assert_same_walk(conts, refs, prevs[:-1])


def test_stacked_continuation_one_class_takes_one_theta_per_chunk(monkeypatch):
    """cosine_3d at cutoff 1 is one class of 27 modes: one reduced matrix
    (108^2 entries) fills most of a chunk, so every theta is solved alone."""
    op = BlochOperator.build(cosine_3d(), LatticeCutoff(1), THETA_OFF)
    band = next(b for b in solve_bands(op, 8) if b.band_index == 1)
    thetas = band.theta + _hessian_shifts(5e-3)[0, :4]
    refs = [continue_band_reference(op, theta, band) for theta in thetas]
    sizes = _stack_sizes(monkeypatch)
    conts = list(continue_bands(op, thetas, band))
    assert len(op.groups) == 1 and sizes == [1] * 4
    _assert_same_walk(conts, refs, [band] * 4)


def test_track_band_raises_where_the_per_point_walk_does():
    """Toward the layering axis the gap of band 1 closes (test_track_gap_
    violation).  With gap_tol between the gaps at the second and third
    points, the per-point walk stops at the third; track_band raises
    GapViolation there too, before matching the later points, where the two
    bands meet."""
    op = BlochOperator.build(layered(0.2), LatticeCutoff(2), THETA_OFF)
    band = next(b for b in solve_bands(op, 4) if b.band_index == 1)
    path = [THETA_OFF + [0.0, -0.05 * s, 0.0] for s in range(5)]
    gaps, prev = [], band
    for theta in path[1:3]:
        prev, gap = continue_band_reference(op, theta, prev)
        gaps.append(gap)
    assert gaps[0] > gaps[1]
    gap_tol = np.sqrt(gaps[0] * gaps[1])
    with pytest.raises(GapViolation) as exc:
        track_band(op, band, path, gap_tol=gap_tol)
    assert exc.value.theta == tuple(path[2]) and exc.value.gap == pytest.approx(gaps[1], abs=1e-13)


def _dense_pi_q(proj):
    """The projector and the partial inverse as dense matrices: basis basis^H,
    and apply_q on the unit columns."""
    pi = proj.basis @ proj.basis.conj().T
    return pi, proj.apply_q(np.eye(len(pi), dtype=complex))


def test_partial_inverse_vanishes_between_classes(offaxis_layered_pipe):
    pipe = offaxis_layered_pipe
    owner = np.empty(6 * pipe.cutoff.num_modes, dtype=int)
    for c, modes in enumerate(mode_classes(pipe.spec, pipe.cutoff)):
        owner[(6 * modes[:, None] + np.arange(6)).ravel()] = c
    _pi, q = _dense_pi_q(pipe.projectors)
    assert not np.any(q[owner[:, None] != owner[None, :]])
    a0, g = dense_operator(pipe.spec, pipe.cutoff, pipe.theta)
    pencil = 1j * pipe.band.omega * a0 - g
    dense = np.linalg.pinv(pencil, rcond=1e-10)
    assert np.linalg.norm(q - dense) < 1e-9 * np.linalg.norm(dense)


@pytest.mark.parametrize("spec, cutoff, theta",
                         [(identity_material(), 1, THETA), (layered(0.2), 2, THETA_OFF)],
                         ids=["identity", "layered"])
def test_plus_minus_pairs_list_negative_first(spec, cutoff, theta):
    bands = solve_bands(BlochOperator.build(spec, LatticeCutoff(cutoff), theta), 60)
    pairs = 0
    for i, b in enumerate(bands):
        if b.omega > 0:
            partners = [j for j, c in enumerate(bands)
                        if abs(c.omega + b.omega) < 1e-8 * max(1.0, b.omega)]
            if partners:
                pairs += 1
                assert partners == [i - 1]
    assert pairs >= 5


def test_cluster_gauge_depends_on_span_only(rng):
    op = BlochOperator.build(identity_material(), LatticeCutoff(1), THETA)
    frame = transverse_field_blocks(op.cutoff, op.theta)
    bands = [b for b in solve_bands(op, 24) if b.kappa > 1]
    assert {b.kappa for b in bands} == {2, 8}
    for b in bands:
        z = rng.standard_normal((b.kappa, b.kappa)) + 1j * rng.standard_normal((b.kappa, b.kappa))
        w, _r = np.linalg.qr(z)
        assert np.max(np.abs(_fix_gauge(b.eigvecs @ w, frame) - b.eigvecs)) < 1e-12
    # the vacuum kappa = 2 band is u1- and u2-polarized
    band = next(b for b in bands if b.band_index == 1)
    i0 = op.cutoff.index_of((0, 0, 0))
    e = band.eigvecs[6 * i0 : 6 * i0 + 3]
    for col, u in zip(e.T, transverse_pair(THETA)):
        assert np.linalg.norm(col - (u @ col) * u) < 1e-12
        assert abs((u @ col) - 1 / np.sqrt(2)) < 1e-12


# ---------------------------------------------------------------------------
# Projector pair
# ---------------------------------------------------------------------------

def test_projector_rank_and_structure(identity_pipe):
    pipe = identity_pipe
    pi, _q = _dense_pi_q(pipe.projectors)
    assert np.linalg.matrix_rank(pi, tol=1e-10) == 2
    assert np.allclose(pi @ pi, pi, atol=1e-12)
    assert np.allclose(pi, pi.conj().T, atol=1e-12)
    # supported on the n = 0 transverse modes with b = -(theta ^ e)/omega
    cut = pipe.cutoff
    i0 = cut.index_of((0, 0, 0))
    e = np.array([0.0, 1.0, 0.5])  # any vector orthogonal to theta = (0.3,0,0)
    b = -np.cross(THETA, e) / pipe.band.omega
    vec = np.zeros(6 * cut.num_modes, dtype=complex)
    vec[6 * i0 : 6 * i0 + 3] = e
    vec[6 * i0 + 3 : 6 * i0 + 6] = b
    assert np.linalg.norm(pi @ vec - vec) < 1e-10 * np.linalg.norm(vec)
    # and annihilates the longitudinal direction
    kvec = np.zeros_like(vec)
    kvec[6 * i0 : 6 * i0 + 3] = THETA / np.linalg.norm(THETA)
    assert np.linalg.norm(pi @ kvec) < 1e-10


def test_projector_identities_random_probes(identity_pipe, rng):
    pipe = identity_pipe
    pi, q = _dense_pi_q(pipe.projectors)
    a0, g = dense_operator(pipe.spec, pipe.cutoff, pipe.theta)
    pencil = 1j * pipe.band.omega * a0 - g
    eye = np.eye(pencil.shape[0])
    for _ in range(20):
        v = rng.standard_normal(pencil.shape[0]) + 1j * rng.standard_normal(pencil.shape[0])
        assert np.linalg.norm(pi @ (q @ v)) < 1e-10 * np.linalg.norm(v)
        assert np.linalg.norm(q @ (pi @ v)) < 1e-10 * np.linalg.norm(v)
        lhs = pencil @ (q @ v)
        rhs = (eye - pi) @ v
        assert np.linalg.norm(lhs - rhs) < 1e-10 * np.linalg.norm(v)


def _two_class_cluster():
    """The vacuum at cutoff 1, theta = (0.5, 0.1, 0): modes (0, 0, 0) and
    (-1, 0, 0) have |theta + n| equal, so band 1 is a kappa = 4 cluster
    spread over two of the 27 one-mode classes."""
    op = BlochOperator.build(identity_material(), LatticeCutoff(1), [0.5, 0.1, 0.0])
    band = next(b for b in solve_bands(op, 8) if b.band_index == 1)
    assert band.kappa == 4
    return op, band


def test_partial_inverse_matches_dense_pinv(identity_pipe):
    """apply_q is the dense pseudo-inverse, and L Q = I - Pi and
    Pi Q = Q Pi = 0 hold to round-off: on the vacuum; on parity_layered,
    whose classes come in two sizes; on cosine_3d at cutoff 1, one class;
    and on a cluster spread over two classes."""
    parity = BlochOperator.build(parity_layered(), LatticeCutoff(2), THETA_OFF)
    assert len(parity.groups) == 2
    cosine = BlochOperator.build(cosine_3d(), LatticeCutoff(1), THETA_OFF)
    assert len(cosine.groups[0][0]) == 1
    cases = [(identity_pipe.op, identity_pipe.band), _two_class_cluster()]
    cases += [(op, next(b for b in solve_bands(op, 4) if b.band_index == 1))
              for op in (parity, cosine)]
    for op, band in cases:
        a0, g = dense_operator(op.spec, op.cutoff, op.theta)
        pencil = 1j * band.omega * a0 - g
        dense = np.linalg.pinv(pencil, rcond=1e-10)
        pi, q = _dense_pi_q(build_projectors(band, op))
        scale = np.linalg.norm(q)
        assert np.linalg.norm(q - dense) < 1e-9 * np.linalg.norm(dense)
        assert np.linalg.norm(pencil @ q - (np.eye(len(pi)) - pi)) < 1e-13 * np.linalg.norm(pencil) * scale
        assert np.linalg.norm(pi @ q) < 1e-14 * scale and np.linalg.norm(q @ pi) < 1e-14 * scale


def test_partial_inverse_solves_the_live_classes(offaxis_layered_pipe, rng, monkeypatch):
    """bands_layered's band lies in one of its 25 classes.  apply_q solves
    exactly the classes where the vector has entries (one batched solve
    over them), the band's own class included when live, and matches the
    dense pseudo-inverse to 1e-9 relative; it stays zero on every class
    where the vector vanishes."""
    pipe = offaxis_layered_pipe
    proj = pipe.projectors
    classes = mode_classes(pipe.spec, pipe.cutoff)
    owner = np.empty(6 * pipe.cutoff.num_modes, dtype=int)
    for c, modes in enumerate(classes):
        owner[(6 * modes[:, None] + np.arange(6)).ravel()] = c
    band_class = owner[np.flatnonzero(pipe.band.eigvecs[:, 0])[0]]
    a0, g = dense_operator(pipe.spec, pipe.cutoff, pipe.theta)
    dense = np.linalg.pinv(1j * pipe.band.omega * a0 - g, rcond=1e-10)
    solved = _shifted_pencils(monkeypatch)
    others = [c for c in range(len(classes)) if c != band_class]
    for support, cols in [(rng.choice(others, 3, replace=False), (2,)),
                          ([band_class, others[7]], ())]:
        solved.clear()
        live = np.isin(owner, support)
        v = (rng.standard_normal((len(owner),) + cols)
             + 1j * rng.standard_normal((len(owner),) + cols)) * live.reshape((-1,) + (1,) * len(cols))
        got = proj.apply_q(v)
        ref = dense @ v
        assert np.linalg.norm(got - ref) < 1e-9 * np.linalg.norm(ref)
        assert not np.any(got[~live])
        assert solved == [len(support)]


def test_partial_inverse_runs_no_eigendecomposition(offaxis_layered_pipe, monkeypatch):
    """build_projectors certifies the kernel by eigenvalues alone and apply_q
    solves: neither reaches np.linalg.eigh, on 25 classes or on a cluster
    spread over two."""
    cases = [(offaxis_layered_pipe.op, offaxis_layered_pipe.band), _two_class_cluster()]

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for op, band in cases:
        proj = build_projectors(band, op)
        assert proj.apply_q(np.ones((len(band.eigvecs), 2), dtype=complex)).any()


def test_projector_multiplicity_diagnostic(identity_pipe):
    band = dataclasses.replace(identity_pipe.band, kappa=3)
    with pytest.raises(MultiplicityInconsistent):
        build_projectors(band, identity_pipe.op)


def test_projector_multiplicity_diagnostic_on_many_classes(offaxis_layered_pipe):
    """25 classes, one decomposed: a forced kappa = 2 for a simple band is
    refused as on the vacuum."""
    band = dataclasses.replace(offaxis_layered_pipe.band, kappa=2)
    with pytest.raises(MultiplicityInconsistent, match="kernel dimension 1 != kappa 2"):
        build_projectors(band, offaxis_layered_pipe.op)


def test_projectors_reject_operator_at_other_theta(identity_pipe):
    with pytest.raises(CutoffMismatch):
        op = identity_pipe.op
        build_projectors(identity_pipe.band,
                         BlochOperator.build(op.spec, op.cutoff, THETA + [0.01, 0.0, 0.0]))


def test_projector_not_weighted_orthogonal(offaxis_layered_pipe):
    """With nonconstant eps0 the eigenprojector is plain-orthogonal but not
    orthogonal for the material-weighted product."""
    pipe = offaxis_layered_pipe
    a0, _g = dense_operator(pipe.spec, pipe.cutoff, pipe.theta)
    pi, _q = _dense_pi_q(pipe.projectors)
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
        fresh = solve_bands(BlochOperator.build(pipe.op.spec, pipe.op.cutoff, th), 8)
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
