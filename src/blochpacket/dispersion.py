"""Group velocity and dispersion Hessian from eigenvalue perturbation theory,
with independent finite-difference oracles and the propagation speed-limit
certificate.

The finite-difference oracles differentiate the eigenvalue of the band's
continuation at shifted theta, so each stencil point follows the same branch
as the perturbative route.  All the points of a stencil are one stacked
continuation (bands.continue_bands).

For a multiplicity-kappa cluster the first- and second-order kappa x kappa
forms must be scalar multiples of the projected mass matrix Pi A0 Pi; the
deviation from scalarity is computed and shipped as a runtime certificate
(scalar_check) rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bands import BlochBand, BlochOperator, ProjectorPair, continue_bands
from .errors import MultiplicityInconsistent, SpeedLimitViolation
from .fourier import (MaterialSpec, adjoint, apply_mode_blocks, cell_points, cross_matrix,
                      hermitian_part, symbol_matrix, trig_sum)

SCALAR_TOL = 1e-8
# samples per structured axis of the y-grid that _tau_max maximizes over
Y_SAMPLES = 17
# margin below zero that speed_limit_check still accepts as round-off
SPEED_TOL = 1e-9
TAU_CHUNK = 4096  # 3x3 symbol matrices per batched eigvalsh
# y-index stride of the sub-grid whose margins bound the full-grid margins
# from below: y-indices 0, 8 and 16 of the Y_SAMPLES per structured axis
BOUND_STRIDE = 8
# directions refined per pass, fewer when one chunk holds fewer
REFINE_CHUNK = 16
# how far a bound may exceed the worst margin and still be refined
BOUND_SLACK = 1e-12


@dataclass
class DispersionData:
    theta: np.ndarray
    omega: float
    V: np.ndarray                # group velocity, -grad_theta omega
    hessian: np.ndarray          # 3x3 real symmetric, d^2 omega / d theta^2
    scalar_check: np.ndarray     # worst kappa x kappa deviation matrix
    scalar_residual: float       # max relative deviation from scalarity


# ---------------------------------------------------------------------------
# kappa x kappa building blocks
# ---------------------------------------------------------------------------

def projected_mass(band: BlochBand, op: BlochOperator) -> np.ndarray:
    """kappa x kappa matrix of Pi A0 Pi in the band's eigenbasis.  Positive
    definite (the projected material is an isomorphism of the eigenspace)."""
    psi = band.eigvecs
    return hermitian_part(adjoint(psi) @ op.apply_a0(psi))


def _scalar_part(f: np.ndarray, n: np.ndarray):
    """Decompose f ~ s*n: returns (s, deviation matrix).  Callers normalize the
    deviation by the scale of the whole family of forms, so that identically
    vanishing entries (zero Hessian directions) do not read as non-scalar."""
    kappa = f.shape[0]
    s = np.trace(np.linalg.solve(n, f)) / kappa
    return s, f - s * n


def _pencil_derivative_apply(xi, domega_xi: float, op: BlochOperator,
                             block: np.ndarray) -> np.ndarray:
    """theta-derivative of the Bloch pencil in direction xi applied to a block:
    i * [ (xi.grad omega) A0 + [[0,-xi^],[xi^,0]] ]."""
    return 1j * (domega_xi * op.apply_a0(block) + apply_mode_blocks(symbol_matrix(xi), block))


# ---------------------------------------------------------------------------
# Group velocity (first-order perturbation)
# ---------------------------------------------------------------------------

def group_velocity(band: BlochBand, op: BlochOperator,
                   scalar_tol: float = SCALAR_TOL) -> np.ndarray:
    """V = -grad_theta omega from first-order perturbation theory.

    Per direction e_j the kappa x kappa form Psi^H [[0,-e_j^],[e_j^,0]] Psi
    equals -(d_j omega) * Pi A0 Pi; the scalar multiple is extracted and the
    deviation from scalarity must stay below scalar_tol.
    """
    n = projected_mass(band, op)
    psi = band.eigvecs
    v = np.zeros(3)
    forms = []
    for j, symbol in enumerate(symbol_matrix(np.eye(3))):
        f = adjoint(psi) @ apply_mode_blocks(symbol, psi)
        s, dev = _scalar_part(f, n)
        forms.append((j, f, s, dev))
        # f ~ -(d_j omega) N, so d_j omega = -s and V_j = -d_j omega = s
        v[j] = np.real(s)
    scale = max(max(np.linalg.norm(f) for _j, f, _s, _d in forms), np.linalg.norm(n))
    for j, _f, _s, dev in forms:
        rel = np.linalg.norm(dev) / scale
        if rel > scalar_tol:
            raise MultiplicityInconsistent(
                f"first-order form along axis {j} is not scalar on the cluster "
                f"(relative deviation {rel:.3e})"
            )
    return v


def first_order_identity_residual(band: BlochBand, op: BlochOperator, xi, V) -> float:
    """Norm of the projected pencil derivative Pi L'(xi) Pi given a group
    velocity V (from either the perturbation or the finite-difference route).
    Vanishes under constant multiplicity."""
    psi = band.eigvecs
    xi = np.asarray(xi, dtype=float)
    domega = -float(np.dot(xi, V))
    lp = _pencil_derivative_apply(xi, domega, op, psi)
    return float(np.linalg.norm(adjoint(psi) @ lp))


# ---------------------------------------------------------------------------
# Hessian (second-order perturbation)
# ---------------------------------------------------------------------------

def hessian(band: BlochBand, projectors: ProjectorPair, op: BlochOperator,
            scalar_tol: float = SCALAR_TOL) -> DispersionData:
    """Dispersion Hessian d^2 omega/d theta^2 via second-order perturbation:
    the symmetrized form Psi^H L'(e_i) Q L'(e_j) Psi equals (i/2) H_ij Pi A0 Pi,
    so H_ij = -2i * scalar part."""
    n = projected_mass(band, op)
    v = group_velocity(band, op, scalar_tol)
    psi = band.eigvecs

    axes = np.eye(3)
    lp_psi = np.hstack([_pencil_derivative_apply(axes[j], -v[j], op, psi) for j in range(3)])
    q_lp_psi = np.split(projectors.apply_q(lp_psi), 3, axis=1)

    h = np.zeros((3, 3))
    devs = []
    for i in range(3):
        for j in range(i, 3):
            m_ij = adjoint(psi) @ _pencil_derivative_apply(axes[i], -v[i], op, q_lp_psi[j])
            m_ji = adjoint(psi) @ _pencil_derivative_apply(axes[j], -v[j], op, q_lp_psi[i])
            sym = 0.5 * (m_ij + m_ji)
            s, dev = _scalar_part(sym, n)
            devs.append((np.linalg.norm(sym), dev))
            h[i, j] = h[j, i] = np.real(-2j * s)
    scale = max(max(ns for ns, _d in devs), np.linalg.norm(n))
    worst_rel, worst_dev = 0.0, np.zeros_like(n)
    for ns, dev in devs:
        rel = float(np.linalg.norm(dev) / scale)
        if rel > worst_rel:
            worst_rel, worst_dev = rel, dev
    if worst_rel > scalar_tol:
        raise MultiplicityInconsistent(
            f"second-order form is not scalar on the cluster (relative deviation {worst_rel:.3e})"
        )
    return DispersionData(
        theta=band.theta,
        omega=band.omega,
        V=v,
        hessian=0.5 * (h + h.T),
        scalar_check=worst_dev,
        scalar_residual=worst_rel,
    )


# ---------------------------------------------------------------------------
# Finite-difference oracles
# ---------------------------------------------------------------------------

def _continued_omegas(op: BlochOperator, band: BlochBand, shifts) -> np.ndarray:
    """The eigenvalue of the band continued to theta + each shift, shifts of
    shape (..., 3): one stacked continuation over all of them."""
    shifts = np.asarray(shifts, dtype=float)
    walk = continue_bands(op, band.theta + shifts.reshape(-1, 3), band)
    return np.array([cont.band.omega for cont in walk]).reshape(shifts.shape[:-1])


def _richardson(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """One Richardson level over a second-order stencil at step and step / 2."""
    return (4 * fine - coarse) / 3


# the off-diagonal entries of the Hessian stencil and the signs of the four
# shifts +-e_i +-e_j each one reads
OFF_DIAGONAL = ((0, 1), (0, 2), (1, 2))
CORNERS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _hessian_shifts(step: float) -> np.ndarray:
    """The (2, 18, 3) theta shifts fd_hessian reads at step and step / 2:
    +e_i, then -e_i, then the four corners of each off-diagonal entry."""
    return np.array([[s * e[i] for s in (1, -1) for i in range(3)]
                     + [a * e[i] + b * e[j] for i, j in OFF_DIAGONAL for a, b in CORNERS]
                     for e in np.array([step, step / 2])[:, None, None] * np.eye(3)])


class FiniteDifferences(NamedTuple):
    """fd_hessian's group velocity V = -grad omega and Hessian."""

    V: np.ndarray
    hessian: np.ndarray


def fd_hessian(op: BlochOperator, band: BlochBand, step: float = 5e-3) -> FiniteDifferences:
    """Second-order central differences of the continued eigenvalue
    omega(theta), and central first differences from the same +-e_i values,
    each with one Richardson level.  Their truncation errors fall as step^4
    (about 7e-9 for the Hessian and 1.4e-9 for V at the default step on the
    shipped layered band).  The 36 stencil points are one stacked
    continuation."""
    omega = _continued_omegas(op, band, _hessian_shifts(step))  # (2, 18)

    def stencil(h, w):
        hess = np.zeros((3, 3))
        for i in range(3):
            hess[i, i] = (w[i] - 2 * band.omega + w[3 + i]) / h**2
        for n, (i, j) in enumerate(OFF_DIAGONAL):
            pp, pm, mp, mm = w[6 + 4 * n:10 + 4 * n]
            hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4 * h**2)
        # V = -grad omega, from the -e_i and +e_i values
        return (w[3:6] - w[:3]) / (2 * h), hess

    (v0, h0), (v1, h1) = stencil(step, omega[0]), stencil(step / 2, omega[1])
    return FiniteDifferences(_richardson(v0, v1), _richardson(h0, h1))


# ---------------------------------------------------------------------------
# Speed limit
# ---------------------------------------------------------------------------

def _symbol_tables(spec: MaterialSpec) -> np.ndarray:
    """Rows T_ab = eps^{-1/2} cx(e_a)^H mu^{-1} cx(e_b) eps^{-1/2}, shape
    (9, n1, n2, n3, 9), over the cell_points grid of Y_SAMPLES points per
    structured axis: the symbol matrices at xi are sum xi_a xi_b T_ab."""
    pts = cell_points(list(spec.eps0) + list(spec.mu0), Y_SAMPLES)
    eps, mu = (hermitian_part(trig_sum(c, pts).reshape(-1, 3, 3)) for c in (spec.eps0, spec.mu0))
    w, u = np.linalg.eigh(eps)
    eps_inv_sqrt = np.einsum("nij,nj,nkj->nik", u, 1.0 / np.sqrt(w), u.conj())
    cx = cross_matrix(np.eye(3))[:, None]  # (3, 1, 3, 3)
    left = eps_inv_sqrt @ adjoint(cx) @ np.linalg.inv(mu)
    right = cx @ eps_inv_sqrt
    return (left[:, None] @ right[None, :]).reshape(9, *pts.shape[:-1], 9)


def _tau_max(xis: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Largest root of the constant-coefficient symbol pencil for each row of
    xis (S, 3), maximized over the grid points of tables (_symbol_tables of
    the medium, or a sub-grid of its points).

    Per point the nonzero roots satisfy tau^2 eps e = cross(xi)^T mu^{-1}
    cross(xi) e, a 3x3 Hermitian-definite problem.  The grid maximum is a
    lower bound of the true sup, exact up to grid resolution for smooth specs,
    and a maximum over fewer of the grid's points is a lower bound of it.  One
    product and one eigvalsh per chunk of at most TAU_CHUNK symbol matrices
    (or of one direction); a direction's result does not depend on its chunk."""
    tables = tables.reshape(9, -1)
    grid = tables.shape[1] // 9
    step = max(1, TAU_CHUNK // grid)
    tau2 = np.empty(len(xis))
    for s in range(0, len(xis), step):
        xi = xis[s:s + step]
        w = (xi[:, :, None] * xi[:, None, :]).reshape(-1, 9)
        # a lone row would take numpy's matrix-vector route, which rounds
        # differently from a matrix product: where a chunk holds several
        # directions, a last chunk of one goes through a matrix product too
        m = (np.concatenate([w, w]) @ tables)[:1] if len(w) == 1 < step else w @ tables
        m = m.reshape(-1, 3, 3)
        tau2[s:s + step] = np.linalg.eigvalsh(m)[:, -1].reshape(len(xi), grid).max(axis=1)
    return np.sqrt(np.maximum(tau2, 0.0))


def _refined_margins(xis: np.ndarray, along_v: np.ndarray, tables: np.ndarray,
                     coarse: np.ndarray) -> np.ndarray:
    """Full-grid margins tau_max(-xi) - xi.V of every direction that can hold
    the smallest one, +inf for the others.

    The margin on the coarse sub-grid bounds each full-grid margin from below.
    Directions are refined in order of that bound (stably) until the next
    bound exceeds the worst full-grid margin found, so every direction
    skipped has a margin above the worst, and the lowest index among equal
    worst margins has been refined.  The slack covers a rounding difference
    between the two grids' products."""
    bound = _tau_max(-xis, coarse) - along_v
    order = np.argsort(bound, kind="stable")
    margins = np.full(len(xis), np.inf)
    step = min(REFINE_CHUNK, max(1, TAU_CHUNK // int(np.prod(tables.shape[1:-1]))))
    worst = np.inf
    for s in range(0, len(xis), step):
        if bound[order[s]] > worst + BOUND_SLACK:
            break
        idx = order[s:s + step]
        margins[idx] = _tau_max(-xis[idx], tables) - along_v[idx]
        worst = min(worst, margins[idx].min())
    return margins


def speed_limit_check(spec: MaterialSpec, V, num_samples: int = 1000,
                      seed: int = 0) -> dict:
    """Verify xi.V <= tau_max(-xi) + SPEED_TOL over random unit directions,
    tau_max over the Y_SAMPLES grid.

    Returns {'worst_margin', 'worst_xi', 'num_samples'}: the smallest
    full-grid margin and its direction (lowest index on ties).  Every margin
    is first bounded on the sub-grid of every BOUND_STRIDE-th sample (the
    grid itself for a medium that varies along no axis), and only the
    directions whose bound does not clear the worst margin are refined
    (_refined_margins); the result is the one a full pass over every
    direction gives.  Raises SpeedLimitViolation if the worst
    margin drops below -SPEED_TOL (a solver bug: the packet cannot outrun the
    medium).
    """
    xis = np.random.default_rng(seed).standard_normal((num_samples, 3))
    # row norms by the same dot product as np.linalg.norm of one row
    xis /= np.sqrt(xis[:, None, :] @ xis[:, :, None])[:, 0]
    along_v = xis @ np.asarray(V, dtype=float)
    tables = _symbol_tables(spec)
    margins = _refined_margins(xis, along_v, tables,
                               tables[:, ::BOUND_STRIDE, ::BOUND_STRIDE, ::BOUND_STRIDE])
    worst, worst_xi = float(margins.min()), xis[np.argmin(margins)]
    if worst < -SPEED_TOL:
        raise SpeedLimitViolation(
            f"group velocity violates the propagation bound: margin {worst:.3e} "
            f"along xi={tuple(np.round(worst_xi, 6))}"
        )
    return {"worst_margin": worst, "worst_xi": worst_xi, "num_samples": num_samples}
