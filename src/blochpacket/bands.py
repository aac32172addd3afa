"""Bloch eigenproblem for the periodic Maxwell operator at fixed theta.

The spectral problem  i*omega*A0*psi = G*psi  (A0 the block material, G the
curl block at theta) is solved on the dynamic subspace, i.e. on fields whose
E and B parts satisfy the discrete divergence constraints div(eps0 E) =
div(mu0 B) = 0.  That subspace is the A0-orthogonal complement of the curl
kernel; restricted there the problem is Hermitian definite and has no zero
eigenvalues.

Eigenvalues are returned grouped into multiplicity clusters.  Band numbering
counts nonzero eigenvalues outward from zero: positive frequencies ascending
get indices +1, +2, ..., negative frequencies by increasing distance from
zero get -1, -2, ... (each index counts multiplicity; a cluster carries the
index of its first member).

Everything downstream is built from one BlochOperator: the medium, the
cutoff, theta, and the dense A0 and G assembled once.  Two entry points solve
its reduced pencil: `solve_bands` returns the lowest bands, and
`continue_band` follows one band to a nearby theta (path tracking,
finite-difference stencils, synthesis quadrature nodes) through `op.at`,
which reuses A0.  Both build a band only for the clusters they inspect.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import (
    CutoffMismatch,
    GapViolation,
    MaterialError,
    MultiplicityInconsistent,
)
from .fourier import (
    LatticeCutoff,
    MaterialSpec,
    base_material_matrix,
    curl_matrix,
    longitudinal_field_basis,
    transverse_field_basis,
    _check_theta,
)

DEFAULT_GAP_TOL = 1e-6
RESIDUAL_TOL = 1e-9
# kernel of the pencil: eigenvalues of -iL below this fraction of the largest
KERNEL_TOL = 1e-8


class ClusterStraddle(UserWarning):
    """num_bands landed inside a multiplicity cluster; the cluster was kept whole."""


def default_cluster_tol(omega: float) -> float:
    return 1e-8 * max(1.0, abs(omega))


@dataclass
class BlochBand:
    """One eigenfrequency cluster: omega, multiplicity kappa, and a
    plain-orthonormal eigenvector block of shape (6K, kappa)."""

    theta: np.ndarray
    omega: float
    kappa: int
    eigvecs: np.ndarray
    band_index: int
    residual: float = 0.0


@dataclass
class ProjectorPair:
    """Plain-orthogonal projector onto the eigenspace and the partial inverse
    of the Bloch pencil i*omega*A0 - G.

    Pi and Q satisfy Pi^2 = Pi = Pi^H, Q Pi = Pi Q = 0 and
    (i*omega*A0 - G) Q = I - Pi.
    """

    Pi: np.ndarray
    Q: np.ndarray
    basis: np.ndarray  # (6K, kappa), the gauge actually used downstream
    omega: float
    theta: np.ndarray


# ---------------------------------------------------------------------------
# Operator assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlochOperator:
    """The Bloch pencil i*omega*A0 - G(theta) of one medium at one cutoff and
    theta, with A0 and G assembled densely once.  A0 does not depend on
    theta, so operators at nearby theta (`at`) share it."""

    spec: MaterialSpec
    cutoff: LatticeCutoff
    theta: np.ndarray
    a0: np.ndarray
    g: np.ndarray

    @classmethod
    def build(cls, spec: MaterialSpec, cutoff: LatticeCutoff, theta) -> "BlochOperator":
        theta = _check_theta(theta)
        return cls(spec, cutoff, theta, base_material_matrix(spec, cutoff),
                   curl_matrix(cutoff, theta))

    def at(self, theta) -> "BlochOperator":
        """The same medium and cutoff at another theta (A0 shared, G rebuilt)."""
        theta = _check_theta(theta)
        return BlochOperator(self.spec, self.cutoff, theta, self.a0,
                             curl_matrix(self.cutoff, theta))

    def pencil(self, omega: float, v: np.ndarray) -> np.ndarray:
        """(i*omega*A0 - G) v."""
        return 1j * omega * (self.a0 @ v) - self.g @ v

    def check_band(self, band: BlochBand) -> None:
        if not np.array_equal(band.theta, self.theta):
            raise CutoffMismatch("band and operator are at different theta")


def dynamic_subspace_basis(op: BlochOperator) -> np.ndarray:
    """Columns spanning {v : div(eps0 E)=div(mu0 B)=0}, built by
    A0-orthogonalizing the transverse fields against the curl kernel."""
    t = transverse_field_basis(op.cutoff, op.theta)
    ell = longitudinal_field_basis(op.cutoff, op.theta)
    a0_ell = op.a0 @ ell
    gram = ell.conj().T @ a0_ell
    coup = a0_ell.conj().T @ t
    return t - ell @ np.linalg.solve(gram, coup)


# ---------------------------------------------------------------------------
# Eigen solve
# ---------------------------------------------------------------------------

class _Pencil(NamedTuple):
    """Eigenpairs of the pencil reduced to the dynamic subspace at one theta,
    sorted by |omega| (negative first on ties)."""

    op: BlochOperator
    dyn: np.ndarray
    vals: np.ndarray
    vecs: np.ndarray


def _solve_pencil(op: BlochOperator) -> _Pencil:
    dyn = dynamic_subspace_basis(op)
    herm = dyn.conj().T @ (-1j * op.g) @ dyn
    herm = 0.5 * (herm + herm.conj().T)
    mass = dyn.conj().T @ op.a0 @ dyn
    mass = 0.5 * (mass + mass.conj().T)
    try:
        scipy.linalg.cholesky(mass)
    except scipy.linalg.LinAlgError as exc:
        raise MaterialError("material mass matrix is not positive definite") from exc

    vals, vecs = scipy.linalg.eigh(herm, mass)
    order = np.lexsort((np.sign(vals), np.abs(vals)))
    return _Pencil(op, dyn, vals[order], vecs[:, order])


def _cluster_band(p: _Pencil, sel: List[int], band_index: int) -> BlochBand:
    """The cluster's eigenvectors lifted to the full space, plain-orthonormal
    and gauge-fixed, with their residual in the unreduced pencil."""
    omega = float(np.mean(p.vals[sel]))
    psi = _fix_gauge(_orthonormalize(p.dyn @ p.vecs[:, sel]))
    return BlochBand(
        theta=p.op.theta,
        omega=omega,
        kappa=len(sel),
        eigvecs=psi,
        band_index=band_index,
        residual=_residual(p.op, psi, omega),
    )


def solve_bands(op: BlochOperator, num_bands: int,
                cluster_tol: Optional[float] = None) -> List[BlochBand]:
    """Bands sorted by |omega| (negative first on ties), clustered by
    multiplicity.  num_bands counts eigenvalues including multiplicity; a
    cluster straddling the cut is kept whole (with a warning)."""
    p = _solve_pencil(op)
    if num_bands > len(p.vals):
        raise ValueError(
            f"num_bands={num_bands} exceeds the dynamic subspace dimension {len(p.vals)}"
        )

    bands: List[BlochBand] = []
    count = 0
    indices = _band_indices(p.vals)
    for sel in _cluster(p.vals, cluster_tol):
        if count >= num_bands:
            break
        if count + len(sel) > num_bands:
            warnings.warn(
                f"band cut {num_bands} falls inside a multiplicity-{len(sel)} "
                "cluster; returning the whole cluster",
                ClusterStraddle,
            )
        count += len(sel)
        bands.append(_cluster_band(p, sel, indices[sel[0]]))
    return bands


def continue_band(op: BlochOperator, theta, prev: BlochBand,
                  cluster_tol: Optional[float] = None) -> Tuple[BlochBand, float]:
    """The continuation of `prev` at a nearby theta, and its gap to the rest
    of the spectrum.

    The continuation is matched by eigenvector overlap, not eigenvalue
    proximity: layered media have symmetry-allowed exact crossings where the
    nearest eigenvalue hops branches.  Candidates are the clusters with
    |omega - prev.omega| < 0.2 * max(1, |prev.omega|), or all clusters if
    none is that close.  theta is used unwrapped, so the coefficient
    representation stays aligned with prev's across the cell boundary.  The
    returned eigenbasis is rotated by the unitary maximizing its overlap with
    prev's (subspace Procrustes).  Raises MultiplicityInconsistent if the
    matched cluster's multiplicity differs from prev's.
    """
    p = _solve_pencil(op.at(theta))
    clusters = _cluster(p.vals, cluster_tol)
    omegas = np.array([np.mean(p.vals[sel]) for sel in clusters])
    near = np.abs(omegas - prev.omega) < 0.2 * max(1.0, abs(prev.omega))
    window = np.flatnonzero(near) if near.any() else range(len(clusters))
    indices = _band_indices(p.vals)

    best, best_c, best_overlap = None, -1, -1.0
    for c in window:
        cand = _cluster_band(p, clusters[c], indices[clusters[c][0]])
        s = np.linalg.svd(cand.eigvecs.conj().T @ prev.eigvecs, compute_uv=False)
        overlap = s.min() if len(s) >= prev.kappa else 0.0
        if overlap > best_overlap:
            best, best_c, best_overlap = cand, c, overlap
    if best.kappa != prev.kappa:
        raise MultiplicityInconsistent(
            f"tracked cluster multiplicity changed from {prev.kappa} to {best.kappa} "
            f"at theta={tuple(p.op.theta)}"
        )
    others = np.delete(omegas, best_c)
    gap = float(np.min(np.abs(others - best.omega))) if len(others) else np.inf
    best.eigvecs = procrustes_align(best.eigvecs, prev.eigvecs)
    return best, gap


def procrustes_align(basis: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """basis rotated by the unitary maximizing its overlap with ref."""
    u, _s, vh = np.linalg.svd(basis.conj().T @ ref)
    return basis @ (u @ vh)


def _cluster(vals: np.ndarray, cluster_tol: Optional[float]) -> List[List[int]]:
    """Group indices of sorted-by-|omega| eigenvalues into clusters of equal
    omega.  The branches are tracked separately so that +-pairs interleaved
    by rounding still cluster correctly; branches never merge."""
    clusters: List[List[int]] = []
    open_cluster = {1: None, -1: None}
    for i in range(len(vals)):
        sgn = 1 if vals[i] >= 0 else -1
        cur = open_cluster[sgn]
        if cur is not None:
            ref = vals[cur[0]]
            tol = cluster_tol if cluster_tol is not None else default_cluster_tol(ref)
            if abs(vals[i] - ref) < tol:
                cur.append(i)
                continue
        cur = [i]
        clusters.append(cur)
        open_cluster[sgn] = cur
    clusters.sort(key=lambda sel: (abs(vals[sel[0]]), np.sign(vals[sel[0]])))
    return clusters


def _band_indices(vals: np.ndarray) -> np.ndarray:
    """Signed band index per eigenvalue in the |omega|-sorted array."""
    idx = np.empty(len(vals), dtype=int)
    pos = neg = 0
    for i, v in enumerate(vals):
        if v >= 0:
            pos += 1
            idx[i] = pos
        else:
            neg += 1
            idx[i] = -neg
    return idx


def _orthonormalize(psi: np.ndarray) -> np.ndarray:
    # thin SVD keeps the span, returns plain-orthonormal columns
    u, _s, vh = np.linalg.svd(psi, full_matrices=False)
    return u @ vh


def _fix_gauge(psi: np.ndarray) -> np.ndarray:
    """For kappa = 1, rotate the phase so the largest-magnitude entry is real
    positive.  Multi-dimensional clusters keep the orthonormal basis as is."""
    if psi.shape[1] == 1:
        j = np.argmax(np.abs(psi[:, 0]))
        phase = psi[j, 0] / abs(psi[j, 0])
        psi = psi / phase
    return psi


def _residual(op: BlochOperator, psi, omega) -> float:
    r = op.pencil(omega, psi)
    return float(np.linalg.norm(r) / max(np.linalg.norm(psi), 1e-300))


# ---------------------------------------------------------------------------
# Projector and partial inverse
# ---------------------------------------------------------------------------

def build_projectors(band: BlochBand, op: BlochOperator) -> ProjectorPair:
    """Projector onto ker(i*omega*A0 - G) and the Moore-Penrose partial inverse.

    The pencil L = i*omega*A0 - G is anti-Hermitian, so -iL is Hermitian and
    a single eigendecomposition yields both the kernel projector and the
    pseudo-inverse with the exact defining identities.
    """
    if band.residual > RESIDUAL_TOL:
        raise ValueError(
            f"band residual {band.residual:.3e} exceeds {RESIDUAL_TOL:.0e}; refuse to build projectors"
        )
    op.check_band(band)
    herm = band.omega * op.a0 + 1j * op.g  # -i * (i omega A0 - G)
    herm = 0.5 * (herm + herm.conj().T)
    s, u = np.linalg.eigh(herm)
    null = np.abs(s) <= KERNEL_TOL * np.abs(s).max()
    if null.sum() != band.kappa:
        raise MultiplicityInconsistent(
            f"discrete kernel dimension {int(null.sum())} != kappa {band.kappa}; "
            "check the cluster tolerance"
        )
    psi = band.eigvecs
    pi = psi @ psi.conj().T
    nz = ~null
    q = (u[:, nz] * (1.0 / (1j * s[nz]))) @ u[:, nz].conj().T
    return ProjectorPair(Pi=pi, Q=q, basis=psi, omega=band.omega, theta=band.theta)


# ---------------------------------------------------------------------------
# Band tracking along a theta path
# ---------------------------------------------------------------------------

def track_band(op: BlochOperator, band: BlochBand, theta_path,
               gap_tol: float = DEFAULT_GAP_TOL, cluster_tol: Optional[float] = None,
               max_step: float = 0.1) -> List[BlochBand]:
    """Follow the multiplicity-kappa cluster along a theta path.

    Each point continues the previous one (continue_band), so successive
    eigenbases are aligned by the maximal-overlap unitary.  If the cluster's
    gap to the rest of the spectrum drops below gap_tol the
    constant-multiplicity assumption failed and GapViolation is raised with
    the offending theta.
    """
    path = [np.asarray(t, dtype=float).reshape(3) for t in theta_path]
    for a, b in zip(path[:-1], path[1:]):
        if np.linalg.norm(b - a) > max_step:
            raise ValueError("theta path step exceeds the tracking bound")

    tracked: List[BlochBand] = []
    prev = band
    for theta in path:
        if not tracked and np.allclose(theta, band.theta, rtol=0, atol=1e-15):
            tracked.append(band)
            prev = band
            continue
        cur, gap = continue_band(op, theta, prev, cluster_tol)
        if gap < gap_tol:
            raise GapViolation(theta, gap, gap_tol)
        tracked.append(cur)
        prev = cur
    return tracked
