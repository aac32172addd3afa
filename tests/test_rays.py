"""Coupling field, ray averages, fluctuation integral, and the growth
exponent."""

import numpy as np
import pytest
from helpers import (empirical_beta_reference, fluctuation_values, partition_is_exact,
                     transport_defect)

from blochpacket.bands import BlochOperator
from blochpacket.errors import SmallDivisorWarning
from blochpacket.fourier import trig_sum
from blochpacket.rays import (
    CouplingField,
    build_gamma,
    empirical_beta,
    ray_average,
)
from blochpacket.presets import identity_material, with_ohmic_loss


# ---------------------------------------------------------------------------
# Coupling assembly
# ---------------------------------------------------------------------------

def test_gamma_vanishes_without_modulation(identity_pipe):
    assert identity_pipe.gamma.modes == {}


def test_gamma_ohmic_closed_form(identity_pipe):
    """Constant conductivity sigma on the E block: on the vacuum band the
    eigenvectors split half their weight into E, so gamma = sigma/2 * I."""
    sigma = 0.08
    spec = with_ohmic_loss(identity_material(), sigma)
    gamma = build_gamma(identity_pipe.band,
                        BlochOperator.build(spec, identity_pipe.cutoff, identity_pipe.theta))
    assert list(gamma.modes) == [(0.0, 0.0, 0.0, 0.0)]
    assert np.allclose(gamma.modes[(0.0, 0.0, 0.0, 0.0)],
                       (sigma / 2) * np.eye(2), atol=1e-12)


def test_gamma_antihermitian_for_symmetric_modulation(modulated_pipe):
    """With a real symmetric permittivity modulation and no zero-order term,
    (Pi A0 Pi) gamma(t,x) is i times a Hermitian matrix at every real (t,x),
    which is what conserves the weighted envelope norm."""
    from blochpacket.dispersion import projected_mass
    from blochpacket.presets import identity_material, with_cos_modulation

    spec = with_cos_modulation(identity_material(), (0.7, -0.4, 0.0, 0.0),
                               amplitude=0.15, target="eps1")
    pipe = modulated_pipe
    op = BlochOperator.build(spec, pipe.cutoff, pipe.theta)
    gamma = build_gamma(pipe.band, op)
    n = projected_mass(pipe.band, op)
    m = n @ trig_sum(gamma.modes, [[0.0, 0.0, 0.0, 0.0], [0.7, 1.0, -2.0, 0.5]]) / 1j
    assert np.allclose(m, np.conj(np.swapaxes(m, -1, -2)), atol=1e-12)


# ---------------------------------------------------------------------------
# Ray averaging closed forms
# ---------------------------------------------------------------------------

def _single_mode(eta, mat):
    return CouplingField(modes={tuple(float(v) for v in eta): np.asarray(mat, dtype=complex)},
                         kappa=np.asarray(mat).shape[0])


def test_constant_coupling_is_its_own_average():
    g0 = np.array([[0.3 + 0.1j]])
    gamma = _single_mode((0, 0, 0, 0), g0)
    data = ray_average(gamma, [1.0, 0.0, 0.0])
    assert np.allclose(trig_sum(data.mean_modes, np.zeros(3)), g0)
    assert data.fluctuation_modes == {}
    assert data.fluctuation_terms() == []
    assert data.beta == 0.0


def test_cos_t_coupling_integrates_to_sin_t(rng):
    """gamma = cos(t) Gamma: not resonant with any ray, average 0, and the
    fluctuation integral is sin(t) Gamma."""
    g0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    gamma = CouplingField(
        modes={(1.0, 0.0, 0.0, 0.0): 0.5 * g0, (-1.0, 0.0, 0.0, 0.0): 0.5 * g0},
        kappa=2,
    )
    v = rng.standard_normal(3)
    data = ray_average(gamma, v)
    assert data.mean_modes == {}
    ts = np.array([0.0, 0.9, 4.2])
    pts = np.column_stack([ts, rng.standard_normal((3, 3))])
    assert np.allclose(fluctuation_values(data, pts), np.sin(ts)[:, None, None] * g0,
                       atol=1e-12)


def test_comoving_coupling_is_all_average():
    """gamma = f(l(t,x)) with l(1, V) = 0: every mode is resonant, the average
    reproduces gamma as a function of x - V t, the fluctuation vanishes."""
    v = np.array([-1.0, 0.0, 0.0])
    ell = np.array([0.5, 0.5, 0.25, 0.0])  # ell . (1, V) = 0.5 - 0.5 = 0
    g0 = np.array([[1.0, 0.2], [0.2, -0.5]]) + 0j
    gamma = CouplingField(
        modes={tuple(ell): 0.5 * g0, tuple(-ell): 0.5 * g0}, kappa=2
    )
    data = ray_average(gamma, v)
    assert data.fluctuation_modes == {}
    ts = np.array([0.0, 2.0])
    x = np.array([0.3, -0.7, 2.0])
    expect = trig_sum(gamma.modes, np.column_stack([ts, np.tile(x, (2, 1))]))
    got = trig_sum(data.mean_modes, x - v * ts[:, None])
    assert np.allclose(got, expect, atol=1e-12)


def test_partition_reconstructs_exactly(modulated_pipe):
    pipe = modulated_pipe
    assert pipe.ray.mean_modes and pipe.ray.fluctuation_modes
    assert partition_is_exact(pipe.gamma, pipe.ray)


def test_small_divisor_is_hard_error():
    gamma = _single_mode((1.0, 1.0 + 1e-12, 0.0, 0.0), np.eye(1))
    with pytest.raises(SmallDivisorWarning):
        ray_average(gamma, [-1.0, 0.0, 0.0], divisor_tol=1e-9)


# ---------------------------------------------------------------------------
# Transport identity and averaging rate
# ---------------------------------------------------------------------------

def test_transport_identity_pointwise(modulated_pipe):
    """(d_t + V.d_x) g = gamma - mean(x - V t) to 1e-9."""
    assert transport_defect(modulated_pipe, np.random.default_rng(7), 6) < 1e-9


def test_time_average_converges_at_rate(modulated_pipe):
    """(1/T) int_0^T gamma(t, x + V t) dt -> mean(x) with O(1/T) error."""
    pipe = modulated_pipe
    data = pipe.ray
    x0 = np.array([0.4, -1.1, 0.2])
    mean = trig_sum(data.mean_modes, x0)
    errs = {}
    for T in (100.0, 1000.0):
        n = int(64 * T)
        ts = np.linspace(0.0, T, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w *= (T / n) / 3.0
        vals = trig_sum(pipe.gamma.modes, np.column_stack([ts, x0 + data.V * ts[:, None]]))
        acc = np.tensordot(w, vals, axes=1)
        errs[T] = np.max(np.abs(acc / T - mean))
    assert errs[1000.0] < 2e-3
    # O(1/T) up to the oscillatory prefactor of the boundary term
    assert errs[1000.0] < 0.25 * errs[100.0]


# ---------------------------------------------------------------------------
# Growth exponent
# ---------------------------------------------------------------------------

def test_beta_bounded_oscillation(rng):
    g0 = np.eye(2) + 0j
    gamma = CouplingField(
        modes={(1.0, 0.0, 0.0, 0.0): 0.5 * g0, (-1.0, 0.0, 0.0, 0.0): 0.5 * g0},
        kappa=2,
    )
    beta = empirical_beta(gamma, ray_average(gamma, [-1.0, 0.0, 0.0]), [10.0, 100.0, 1000.0])
    assert beta <= 0.05


def test_beta_constant_coupling_degenerate():
    gamma = _single_mode((0.0, 0.0, 0.0, 0.0), np.array([[2.0]]))
    beta = empirical_beta(gamma, ray_average(gamma, [1.0, 0.0, 0.0]), [10.0, 100.0])
    assert beta == 0.0


def test_beta_two_mode(rng):
    """One resonant + one non-resonant mode: bounded fluctuation, beta ~ 0."""
    v = [-1.0, 0.0, 0.0]
    gamma = CouplingField(
        modes={
            (0.5, 0.5, 0.0, 0.0): np.array([[0.4]]),    # divisor 0
            (1.0, 0.0, 0.0, 0.0): np.array([[0.7]]),    # divisor 1
        },
        kappa=1,
    )
    beta = empirical_beta(gamma, ray_average(gamma, v), [10.0, 100.0, 1000.0])
    assert beta <= 0.05


@pytest.mark.parametrize("which", ["modulated", "two_mode_eta_x"])
def test_empirical_beta_matches_point_loop(which, modulated_pipe):
    """The ray sums in one trig_sum per ray origin give the exponent of the
    loop that sums the coupling at one ray point at a time, bit for bit.  The
    short first horizon keeps the fitted slope off its clip at zero."""
    gamma, v = modulated_pipe.gamma, modulated_pipe.dispersion.V
    if which == "two_mode_eta_x":  # one resonant mode, one not, both with eta_x != 0
        v = np.array([-0.8, 0.3, 0.0])
        gamma = CouplingField(modes={(0.4, 0.5, 0.0, 0.0): np.array([[0.3, 0.1j], [0.2, -0.4]]),
                                     (1.1, 0.0, -0.6, 0.0): np.array([[0.7, 0.0], [0.05j, 0.2]])},
                              kappa=2)
    beta = empirical_beta(gamma, ray_average(gamma, v), [2.0, 10.0, 20.0])
    assert beta > 0.0 and beta == empirical_beta_reference(gamma, v, [2.0, 10.0, 20.0])
