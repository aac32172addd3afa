"""Plane-wave core: curl block, material convolution, transverse splitting,
Parseval, and the pointwise coercivity inequality."""

import numpy as np
import pytest
from helpers import (apply_curl_block, apply_material, block_diagonal, dense_modulation,
                     dense_operator, grid_values, longitudinal_unit, mixed_modulations,
                     random_coeffs)

from blochpacket import fourier
from blochpacket.errors import GammaPointError, MaterialError
from blochpacket.fourier import (
    LatticeCutoff,
    MaterialSpec,
    cell_points,
    modulation_apply,
    transverse_field_blocks,
    trig_sum,
    wavevectors,
)
from blochpacket.presets import identity_material, layered, layered_anisotropic

THETA = np.array([0.3, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Lattice bookkeeping
# ---------------------------------------------------------------------------

def test_cutoff_enumeration_roundtrip():
    cut = LatticeCutoff(2)
    assert cut.num_modes == 125
    for i, n in enumerate(cut.modes):
        assert cut.index_of(n) == i
    with pytest.raises(KeyError):
        cut.index_of((3, 0, 0))
    # built once and shared, so no caller may write to it
    assert cut.modes is cut.modes
    with pytest.raises(ValueError):
        cut.modes[0, 0] = 5


def test_cutoff_anisotropic():
    cut = LatticeCutoff((4, 0, 0))
    assert cut.num_modes == 9
    assert cut.shape == (9, 1, 1)


# ---------------------------------------------------------------------------
# Curl block
# ---------------------------------------------------------------------------

def test_curl_single_mode():
    cut = LatticeCutoff(1)
    f = np.zeros((cut.num_modes, 6), dtype=complex)
    i0 = cut.index_of((0, 0, 0))
    f[i0, 3:] = [0.0, 1.0, 0.0]  # B = e2
    out = apply_curl_block(cut, THETA, f)
    # E-output = i (0.3,0,0) ^ e2 = 0.3i e3, B-output = 0
    expect_e = np.array([0.0, 0.0, 0.3j])
    assert np.allclose(out[i0, :3], expect_e, atol=1e-15)
    assert np.allclose(out[:, 3:], 0.0, atol=1e-15)
    others = np.delete(out, i0, axis=0)
    assert np.allclose(others, 0.0)


def test_curl_kernel_is_longitudinal_span(rng):
    cut = LatticeCutoff(1)
    vhat = longitudinal_unit(cut, THETA)
    coeffs = np.zeros((cut.num_modes, 6), dtype=complex)
    ce = rng.standard_normal(cut.num_modes) + 1j * rng.standard_normal(cut.num_modes)
    cb = rng.standard_normal(cut.num_modes) + 1j * rng.standard_normal(cut.num_modes)
    coeffs[:, :3] = ce[:, None] * vhat
    coeffs[:, 3:] = cb[:, None] * vhat
    assert np.linalg.norm(apply_curl_block(cut, THETA, coeffs)) < 1e-14 * np.linalg.norm(coeffs)


def test_curl_kernel_dimension():
    # kernel dim = 2 per mode, doubled over E/B -> 2*K
    cut = LatticeCutoff(1)
    _a0, mat = dense_operator(identity_material(), cut, THETA)
    rank = np.linalg.matrix_rank(mat, tol=1e-10)
    assert mat.shape[0] - rank == 2 * cut.num_modes


def test_curl_antihermitian(rng):
    cut = LatticeCutoff(1)
    for _ in range(10):
        f = random_coeffs(cut, rng)
        g = random_coeffs(cut, rng)
        lhs = np.vdot(g, apply_curl_block(cut, THETA, f))
        rhs = -np.vdot(apply_curl_block(cut, THETA, g), f)
        assert abs(lhs - rhs) < 1e-12 * max(np.linalg.norm(f) * np.linalg.norm(g), 1.0)


# ---------------------------------------------------------------------------
# Material multiplication
# ---------------------------------------------------------------------------

def test_material_identity(rng):
    spec = identity_material()
    cut = LatticeCutoff(1)
    f = random_coeffs(cut, rng)
    assert np.allclose(apply_material(spec, cut, f), f)


def test_material_two_coefficient_convolution(rng):
    c = 0.6
    half = (c / 2) * np.eye(3, dtype=complex)
    spec = MaterialSpec(
        eps0={(0, 0, 0): np.eye(3), (1, 0, 0): half, (-1, 0, 0): half},
        mu0={(0, 0, 0): np.eye(3)},
    )
    cut = LatticeCutoff(2)
    f = random_coeffs(cut, rng)
    out = apply_material(spec, cut, f)
    for i, m in enumerate(cut.modes):
        expect = f[i, :3].copy()
        for shift in ((1, 0, 0), (-1, 0, 0)):
            src = tuple(m - np.array(shift))
            if cut.contains(src):
                expect += (c / 2) * f[cut.index_of(src), :3]
        assert np.allclose(out[i, :3], expect, atol=1e-14)
    assert np.allclose(out[:, 3:], f[:, 3:])  # mu0 = 1


def test_material_selfadjoint(rng):
    # random Hermitian-pair coefficients
    cut = LatticeCutoff(1)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    eps0 = {(0, 0, 0): 3.0 * np.eye(3), (1, 1, 0): m, (-1, -1, 0): m.conj().T}
    spec = MaterialSpec(eps0=eps0, mu0={(0, 0, 0): 2.0 * np.eye(3)})
    for _ in range(5):
        f = random_coeffs(cut, rng)
        g = random_coeffs(cut, rng)
        lhs = np.vdot(g, apply_material(spec, cut, f))
        rhs = np.vdot(apply_material(spec, cut, g), f)
        assert abs(lhs - rhs) < 1e-12 * np.linalg.norm(f) * np.linalg.norm(g)


def test_material_positive_on_probes(rng):
    spec = layered(amplitude=0.2)
    cut = LatticeCutoff(1)
    for _ in range(10):
        f = random_coeffs(cut, rng)
        val = np.vdot(f, apply_material(spec, cut, f)).real
        assert val > 0.5 * np.linalg.norm(f) ** 2  # >= (1 - 0.2) lower bound with margin


def test_material_validation_rejects_broken_pairs():
    bad = MaterialSpec(
        eps0={(0, 0, 0): np.eye(3), (1, 0, 0): 0.1 * np.eye(3)},
        mu0={(0, 0, 0): np.eye(3)},
    )
    with pytest.raises(MaterialError):
        bad.validate()


def test_material_validation_rejects_indefinite():
    bad = MaterialSpec(eps0={(0, 0, 0): -np.eye(3)}, mu0={(0, 0, 0): np.eye(3)})
    with pytest.raises(MaterialError):
        bad.validate()


@pytest.mark.parametrize("empty", ["eps0", "mu0"])
def test_material_validation_rejects_empty_base_map(empty, monkeypatch):
    """A base coefficient map with no entry is refused, naming it, before
    anything is sampled."""
    spec = MaterialSpec(**{"eps0": {(0, 0, 0): np.eye(3)}, "mu0": {(0, 0, 0): np.eye(3)},
                           empty: {}})
    monkeypatch.setattr(fourier, "trig_sum", None)
    with pytest.raises(MaterialError, match=f"^{empty} has no coefficients"):
        spec.validate()


def test_positivity_grid_collapses_to_the_varying_axis():
    """eps0 = 0.5 + 0.6 cos y2 is indefinite only through its harmonic along
    axis 1: the check samples 9 points along that axis and 1 along the others,
    still refuses it, and names that grid."""
    bad = MaterialSpec(eps0={(0, 0, 0): 0.5 * np.eye(3), (0, 1, 0): 0.3 * np.eye(3),
                             (0, -1, 0): 0.3 * np.eye(3)},
                       mu0={(0, 0, 0): np.eye(3)})
    assert cell_points(bad.eps0, 9).shape == (1, 9, 1, 3)
    with pytest.raises(MaterialError, match=r"eps0 .* on a 1x9x1 cell grid"):
        bad.validate()


def test_cell_points_take_every_value_of_the_full_grid():
    """A trigonometric sum on the collapsed grid takes exactly the values it
    takes on the full 9^3 grid."""
    coefs = layered_anisotropic().eps0
    y = np.linspace(0.0, 2 * np.pi, 9, endpoint=False)
    full = trig_sum(coefs, np.stack(np.meshgrid(y, y, y, indexing="ij"), axis=-1))
    collapsed = trig_sum(coefs, cell_points(coefs, 9))
    assert collapsed.shape[:3] == (9, 1, 1)
    assert np.array_equal(full, np.broadcast_to(collapsed, full.shape))


@pytest.mark.parametrize("key", [((0.5, 0.0, 0.0, 0.0), (0.5, 0, 0)),
                                 ((0.5, 0.0, 0.0), (0, 0, 0)),
                                 ((0.5, np.nan, 0.0, 0.0), (0, 0, 0)),
                                 (("a", 0.0, 0.0, 0.0), (0, 0, 0))],
                         ids=["fractional_mode", "three_entry_eta", "nan_eta", "text_eta"])
def test_material_refuses_malformed_modulation_key(key):
    """A modulation key is (eta, n) with eta 4 finite numbers and n 3
    integers; anything else is refused when the spec is built, not truncated."""
    with pytest.raises(MaterialError):
        MaterialSpec(eps0={(0, 0, 0): np.eye(3)}, mu0={(0, 0, 0): np.eye(3)},
                     eps1={key: 0.1 * np.eye(3)})


def test_modulation_apply_matches_dense_columns(rng):
    """modulation_apply on a (6K, m) stack equals, column by column, the dense
    A0^1(eta) and M(eta) built from the coefficients, at every modulation
    frequency of a medium with eps1, mu1 on a nonzero cell harmonic and a
    lower-order term; a (6K,) vector gives its one column."""
    spec = mixed_modulations()
    cut = LatticeCutoff(1)
    shape = (6 * cut.num_modes, 4)
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tol = 1e-14 * np.abs(v).max()
    nonzero = set()
    for eta in spec.modulation_frequencies():
        got = modulation_apply(spec, eta, cut, v)
        single = modulation_apply(spec, eta, cut, v[:, 0])
        for name, part, one, dense in zip(("A0^1", "M"), got, single,
                                          dense_modulation(spec, cut, eta)):
            if np.any(dense):
                nonzero.add(name)
            for col in range(v.shape[1]):
                assert np.abs(part[:, col] - dense @ v[:, col]).max() <= tol
            assert one.shape == (shape[0],) and np.abs(one - part[:, 0]).max() <= tol
    assert nonzero == {"A0^1", "M"}


# ---------------------------------------------------------------------------
# Parseval
# ---------------------------------------------------------------------------

def test_parseval_grid_vs_coefficients(rng):
    cut = LatticeCutoff(1)
    f = random_coeffs(cut, rng)
    grid_vals = grid_values(cut, THETA, f, 16)
    qnorm = np.sqrt(np.vdot(grid_vals, grid_vals).real / 16**3)
    assert abs(qnorm - np.linalg.norm(f)) < 1e-10 * np.linalg.norm(f)


def test_parseval_inner_product(rng):
    cut = LatticeCutoff(1)
    f = random_coeffs(cut, rng)
    g = random_coeffs(cut, rng)
    gf = grid_values(cut, THETA, f, 16)
    gg = grid_values(cut, THETA, g, 16)
    defect = np.vdot(gg, gf) / 16**3 - np.vdot(g, f)
    assert abs(defect) < 1e-10 * np.linalg.norm(f) * np.linalg.norm(g)


# ---------------------------------------------------------------------------
# Transverse / longitudinal splitting
# ---------------------------------------------------------------------------

def transverse_pairs(cutoff, theta):
    """(K, 2, 3): per mode the pair u1, u2 that transverse_field_blocks puts
    in its E columns."""
    return np.swapaxes(transverse_field_blocks(cutoff, theta)[:, :3, :2].real, 1, 2)


def test_transverse_pair_example():
    # single mode with theta + n = (0, 0, 1) has pair {e1, e2}
    cut = LatticeCutoff(0)
    theta = np.array([0.0, 0.0, 1.0 - 1e-12])
    u = transverse_pairs(cut, theta)
    assert np.allclose(u[0, 0], [1, 0, 0], atol=1e-6)
    assert np.allclose(u[0, 1], [0, 1, 0], atol=1e-6)


def test_transverse_pair_orthonormal(rng):
    cut = LatticeCutoff(2)
    theta = np.array([0.3, 0.7, 0.1])
    u = transverse_pairs(cut, theta)
    v = wavevectors(cut, theta)
    for i in range(cut.num_modes):
        gram = u[i] @ u[i].T
        assert np.allclose(gram, np.eye(2), atol=1e-12)
        assert abs(u[i, 0] @ v[i]) < 1e-12 * np.linalg.norm(v[i])
        assert abs(u[i, 1] @ v[i]) < 1e-12 * np.linalg.norm(v[i])


def test_transverse_span_meets_kernel_only_at_zero(rng):
    cut = LatticeCutoff(1)
    t = block_diagonal(transverse_field_blocks(cut, THETA))
    _a0, mat = dense_operator(identity_material(), cut, THETA)
    # the curl matrix restricted to the transverse span is injective
    sub = mat @ t
    s = np.linalg.svd(sub, compute_uv=False)
    assert s.min() > 1e-8


def test_transverse_rejects_gamma_point():
    with pytest.raises(GammaPointError):
        transverse_field_blocks(LatticeCutoff(1), np.zeros(3))


# ---------------------------------------------------------------------------
# Pointwise coercivity inequality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec_factory", [layered, layered_anisotropic])
def test_coercivity_inequality(spec_factory, rng):
    """|<xi, eps(x) e>|^2 + |xi ^ e|^2 >= c |xi|^2 |e|^2 / 2 with c the smallest
    eigenvalue of eps over a sample grid, capped at 1."""
    spec = spec_factory()
    y = np.linspace(0.0, 2.0 * np.pi, 9, endpoint=False)
    eps_grid = trig_sum(spec.eps0, np.stack(np.meshgrid(y, y, y, indexing="ij"), axis=-1))
    eps_grid = 0.5 * (eps_grid + np.conj(np.swapaxes(eps_grid, -1, -2)))
    c = min(1.0, float(np.linalg.eigvalsh(eps_grid).min()))
    eps_flat = eps_grid.reshape(-1, 3, 3)
    n = 10_000
    idx = rng.integers(0, len(eps_flat), size=n)
    xi = rng.standard_normal((n, 3))
    e = rng.standard_normal((n, 3))
    eps_e = np.einsum("nij,nj->ni", eps_flat[idx].real, e)
    lhs = np.einsum("ni,ni->n", xi, eps_e) ** 2 + np.sum(np.cross(xi, e) ** 2, axis=1)
    rhs = 0.5 * c * np.sum(xi**2, axis=1) * np.sum(e**2, axis=1)
    assert np.all(lhs >= rhs - 1e-12 * np.maximum(rhs, 1.0))
