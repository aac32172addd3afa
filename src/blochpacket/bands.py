"""Bloch eigenproblem for the periodic Maxwell operator at fixed theta.

The spectral problem  i*omega*A0*psi = G*psi  (A0 the block material, G the
curl block at theta) is solved on the transverse unknowns.  G vanishes on
the curl kernel (E and B along theta + n) and maps into its plain-orthogonal
complement, so with T the (K, 6, 4) frame of transverse unit fields
(fourier.transverse_field_blocks), -iG = T Gt T^H with Gt = T^H (-iG) T one
4x4 block per mode.  Since AB and BA share their nonzero eigenvalues, the
nonzero spectrum of -iG x = omega A0 x is that of Gt T^H inv(A0) T, hence of
the Hermitian L^H Gt L with L L^H = T^H inv(A0) T: 4K unknowns, no zero
eigenvalues.  An eigenvector y lifts to x = inv(A0) T inv(L)^H y, which
satisfies the discrete divergence constraints div(eps0 E) = div(mu0 B) = 0
by construction (A0 x lies in the span of T, which is plain-orthogonal to
the curl kernel).  inv(A0) enters as li^H li, li the inverse Cholesky
factor of each class block of A0: BlochOperator.build computes it once
(and raises MaterialError if A0 is not positive definite), and every theta
that continue_bands reaches from the operator shares it.

Eigenvalues are returned grouped into multiplicity clusters.  Band numbering
counts nonzero eigenvalues outward from zero: positive frequencies ascending
get indices +1, +2, ..., negative frequencies by increasing distance from
zero get -1, -2, ... (each index counts multiplicity; a cluster carries the
index of its first member).  Clusters are listed by |omega|; a +-pair whose
|omega| agree within the cluster tolerance lists the negative one first.

Everything downstream is built from one BlochOperator: the medium, the
cutoff, theta, A0 as blocks of the mode classes and G as one block per mode
(nothing 6K x 6K unless one class holds every mode).  A0 couples plane-wave
modes n, m only when n - m is in the Fourier support of eps0 or mu0, and G
and the transverse frame are diagonal over modes; so the
pencil splits into one block per class of modes connected by that support
(a layered medium at cutoff N has (2N+1)^2 classes, a medium structured
along all three axes has one).  The classes are held one way, stacked by
size: every stage (A0, the reduced pencil, the kernel count and the
partial inverse) makes one batched pass per class size.  Two entry
points solve the pencil.  `solve_bands` returns the lowest bands; it
solves only the classes whose spectral floor (_floors, below) can admit
them: those it takes in floor order until they hold the bands asked for,
then those whose floor lies below the last of those bands' |omega|
(bands_layered solves 2 of its 25 classes).  `continue_bands` follows one band
to a whole stack of nearby theta known up front (finite-difference
stencils, a tracked path, synthesis quadrature nodes), each point
continuing the band or an earlier point's continuation.  A0, its factor,
its norms and the class groups serve every theta.  A continuation solves
only the classes whose spectral floor (_floors: min |theta + n| over the
class's modes over the inf-norm of its A0 block) lies below its candidate
window, and reports the exact gap (a layered medium at cutoff 2 solves 1
of its 25 classes; a medium with one class always solves it).  Those
classes are solved for the whole stack at once (_solve_pencils: per class
size one batched pass over every (theta, class) pair, eigenvectors
included, in chunks of at most STACK_ENTRIES reduced-matrix entries); the
match then walks the points in order on those arrays.  It scores the candidate clusters on their orthonormal columns,
and only the matched one keeps its rotation onto the previous basis and
gets a residual.  Either way only the clusters a caller inspects are
lifted to full 6K vectors.  build_projectors certifies the kernel by
eigenvalues alone, counted on the classes whose floor admits the band's
|omega| (they alone can hold it); the partial inverse is then one deflated
linear solve on every class where a vector has entries (ProjectorPair).

The eigenbasis of a cluster is fixed by its span alone: kappa = 1 takes the
phase that makes its largest entry real positive, kappa > 1 the rotation onto
transverse unit fields of the fourier.transverse_pair frame (see _fix_gauge).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import (
    BandResidualError,
    CutoffMismatch,
    GapViolation,
    MaterialError,
    MultiplicityInconsistent,
)
from .fourier import (
    LatticeCutoff,
    MaterialSpec,
    adjoint,
    apply_mode_blocks,
    base_material_matrix,
    curl_matrix,
    hermitian_part,
    symbol_matrix,
    transverse_field_blocks,
    transverse_frame,
    _check_theta,
)

DEFAULT_GAP_TOL = 1e-6
RESIDUAL_TOL = 1e-9
# kernel of the pencil: eigenvalues of -iL below this fraction of the largest
KERNEL_TOL = 1e-8
# relative margin within which two frame overlaps count as tied in _fix_gauge
GAUGE_TIE_TOL = 1e-8
# largest theta step between successive points of a tracked path
MAX_TRACK_STEP = 0.1
# most reduced-matrix entries, (4m)^2 per (theta, class) pair, that one
# batched pass of continue_bands solves (a theta that alone needs more is a
# pass of its own)
STACK_ENTRIES = 16384


class ClusterStraddle(UserWarning):
    """num_bands landed inside a multiplicity cluster; the cluster was kept whole."""


def default_cluster_tol(omega):
    return 1e-8 * np.maximum(1.0, np.abs(omega))


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
    """Eigenspace basis and partial inverse Q of the Bloch pencil
    L = i*omega*A0 - G.  With Pi = basis basis^H, Q Pi = Pi Q = 0 and
    L Q = I - Pi.  -iL = H = omega A0 + iG is Hermitian with kernel
    span(basis), so H + Pi is invertible, commutes with Pi, and
    Q = -i H^+ = -i (I - Pi) (H + Pi)^-1 (I - Pi).  H and Pi are block
    diagonal over the mode classes (the kernel splits over them), so on
    member c the solve is with H + U_c U_c^H, U_c the rows of the basis
    there (zero on most members): apply_q makes one batched linear solve per
    class size over the members on which (I - Pi) v has a nonzero entry.
    Neither Pi nor Q is formed as a 6K x 6K matrix.
    """

    basis: np.ndarray  # (6K, kappa), the gauge actually used downstream
    omega: float
    theta: np.ndarray
    op: BlochOperator

    def apply_q(self, v: np.ndarray) -> np.ndarray:
        """Q v for v of shape (6K,) or (6K, m)."""
        v = self._deflate(v)
        out = np.zeros(v.shape, dtype=complex)
        # one flag per mode: does v have a nonzero entry on its 6 rows
        live = v.reshape(len(self.op.g_blocks), -1).any(axis=1)
        for g, (modes, rows, _a0, _li) in enumerate(self.op.groups):
            solve = live[modes].any(axis=1)
            if solve.any():
                x, u = v[rows[solve]], self.basis[rows[solve]]
                h = _shifted_pencil(self.op, g, solve, self.omega) + u @ adjoint(u)
                y = np.linalg.solve(h, x.reshape(x.shape[:2] + (-1,)))
                out[rows[solve]] = -1j * y.reshape(x.shape)
        return self._deflate(out)

    def _deflate(self, v: np.ndarray) -> np.ndarray:
        """(I - Pi) v; exact on the rows where the basis vanishes."""
        return v - self.basis @ (adjoint(self.basis) @ v)


# ---------------------------------------------------------------------------
# Operator assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlochOperator:
    """The Bloch pencil i*omega*A0 - G(theta) of one medium at one cutoff and
    theta.  A0 is block diagonal over the mode classes (mode_classes); the
    classes are held by size, one (modes (n, m), rows (n, 6m), A0 blocks
    (n, 6m, 6m), li) group per class size m, and G as (K, 6, 6) per-mode
    blocks; li is inv(C) for the Cholesky factor C C^H of each A0 block, so
    inv(A0) = li^H li.  build raises MaterialError when a block is not
    positive definite.  No array is 6K x 6K unless one class holds every
    mode.  a0_norms holds the inf-norm of each A0 block, which bounds its
    largest eigenvalue (see _floors).  A0, li, the groups and the norms do
    not depend on theta, so continue_bands reads them at every theta it
    solves."""

    spec: MaterialSpec
    cutoff: LatticeCutoff
    theta: np.ndarray
    groups: Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    g_blocks: np.ndarray
    a0_norms: Tuple[np.ndarray, ...]  # per group, the inf-norm of each A0 block

    @classmethod
    def build(cls, spec: MaterialSpec, cutoff: LatticeCutoff, theta) -> "BlochOperator":
        theta = _check_theta(theta)
        classes = mode_classes(spec, cutoff)
        modes = [np.stack([c for c in classes if len(c) == m])
                 for m in sorted({len(c) for c in classes})]
        rows = [(6 * mm[..., None] + np.arange(6)).reshape(len(mm), -1) for mm in modes]
        a0 = base_material_matrix(spec, cutoff, modes)
        return cls(spec, cutoff, theta, tuple(zip(modes, rows, a0, map(_inverse_factor, a0))),
                   curl_matrix(cutoff, theta),
                   tuple(np.abs(a).sum(axis=-1).max(axis=-1) for a in a0))

    def apply_a0(self, v: np.ndarray) -> np.ndarray:
        """A0 v for v of shape (6K,) or (6K, m): one batched product per
        class size."""
        out = np.zeros(v.shape, dtype=complex)
        for _modes, rows, a0, _li in self.groups:
            x = v[rows]
            out[rows] = (a0 @ x.reshape(x.shape[:2] + (-1,))).reshape(x.shape)
        return out

    def pencil(self, omega: float, v: np.ndarray) -> np.ndarray:
        """(i*omega*A0 - G) v for v of shape (6K,) or (6K, m)."""
        return 1j * omega * self.apply_a0(v) - apply_mode_blocks(self.g_blocks, v)

    def check_band(self, band: BlochBand) -> None:
        if not np.array_equal(band.theta, self.theta):
            raise CutoffMismatch("band and operator are at different theta")


def mode_classes(spec: MaterialSpec, cutoff: LatticeCutoff) -> Tuple[np.ndarray, ...]:
    """Connected components of the cutoff's mode lattice under shifts by the
    Fourier support of eps0 and mu0, as ascending mode-index arrays ordered
    by their first index."""
    label = np.arange(cutoff.num_modes)
    edges = [cutoff.shift_indices(k) for k in set(spec.eps0) | set(spec.mu0) if any(k)]
    changed = True
    while changed:
        before = label.copy()
        for src, dst in edges:
            np.minimum.at(label, dst, label[src])
            np.minimum.at(label, src, label[dst])
        changed = not np.array_equal(label, before)
    return tuple(np.flatnonzero(label == root) for root in np.unique(label))


def _inverse_factor(a0: np.ndarray) -> np.ndarray:
    """inv(C) for the Cholesky factor C C^H = a0 of each block of a stack."""
    try:
        return np.linalg.inv(np.linalg.cholesky(a0))
    except np.linalg.LinAlgError as exc:
        raise MaterialError("base material A0 is not positive definite") from exc


# ---------------------------------------------------------------------------
# Eigen solve
# ---------------------------------------------------------------------------

class _Pencil(NamedTuple):
    """The pencil on the transverse unknowns of one operator at one theta of
    a stack solved together (_solve_pencils), group by group (see the module
    docstring): W = li T, L L^H = W^H W and red = L^H Gt L per solved
    (theta, class member) pair.  vals holds every eigenvalue of the pairs at
    this theta sorted by |omega| (negative first on exact ties); with
    (g, c, k) = owner[:, i], eigenvalue i is column k of the c-th pair of
    group g.  blocks[g] holds, per pair of group g, its member (an index
    into the group), the symbols [[0,-k^],[k^,0]] at its wavevectors
    k = theta + n (m, 6, 6) and its W, L and red (None when the group has no
    pair).  vecs holds the eigenvectors y of red per pair (g, c) that has
    them; column k lifts to the eigenvector li^H W inv(L)^H y_k.  blocks and
    vecs are shared by the pencils of one stack."""

    op: BlochOperator
    theta: np.ndarray
    blocks: List[Optional[Tuple[np.ndarray, ...]]]
    vals: np.ndarray
    owner: np.ndarray  # (3, number of eigenvalues)
    vecs: Dict[Tuple[int, int], np.ndarray]


def _solve_pencils(op: BlochOperator, thetas, members: Optional[List[np.ndarray]] = None,
                   vectors: bool = False) -> List[_Pencil]:
    """The reduced pencil at each of the (S, 3) thetas, of every class
    member, or, given one (S, n) boolean mask per group, of the members it
    selects at each theta.  Each group makes one batched pass over all of
    its (theta, member) pairs: transverse frames, Gt, W, the Cholesky factor
    of W^H W, the reduced matrix and its eigenvalues, and with `vectors` its
    eigenvectors too.  Without, a pair's eigenvectors are computed when
    _cluster_span first reads it: a full solve reads few of its members, a
    continuation most of the few it solves.  One sort orders the
    eigenvalues of every theta."""
    thetas = np.array([_check_theta(t) for t in thetas]).reshape(-1, 3)
    blocks: List[Optional[Tuple[np.ndarray, ...]]] = []
    vals, owner, where = [np.zeros(0)], [np.zeros((3, 0), dtype=int)], [np.zeros(0, dtype=int)]
    vecs: Dict[Tuple[int, int], np.ndarray] = {}
    for g, (modes, _rows, _a0, li) in enumerate(op.groups):
        at, which = np.nonzero(np.ones((len(thetas), len(modes)), dtype=bool)
                               if members is None else members[g])
        if not len(at):
            blocks.append(None)
            continue
        n, m = len(at), modes.shape[1]
        k = thetas[at, None, :] + op.cutoff.modes[modes[which]]
        t = transverse_frame(k)
        sym = symbol_matrix(k)
        g_t = adjoint(t) @ (-sym) @ t
        # a lone pair takes its factor as a view
        li_p = li[which] if n > 1 else li[which[0]][None]
        # W = li T one mode column block at a time: T couples no two modes
        w = (li_p.reshape(n, 6 * m, m, 6).swapaxes(1, 2) @ t).swapaxes(1, 2)
        w = w.reshape(n, 6 * m, 4 * m)
        chol = np.linalg.cholesky(adjoint(w) @ w)
        # L^H Gt L with Gt L one mode row block at a time (no temporary is named,
        # so none outlives its use: a one-class member's blocks are large)
        red = adjoint(chol) @ (g_t @ chol.reshape(n, m, 4, 4 * m)).reshape(chol.shape)
        red = hermitian_part(red)
        vals_g, y = np.linalg.eigh(red) if vectors else (np.linalg.eigvalsh(red), None)
        blocks.append((which, sym, w, chol, red))
        vals.append(vals_g.ravel())
        owner.append(np.vstack([np.full(vals_g.size, g), np.indices(vals_g.shape).reshape(2, -1)]))
        where.append(np.repeat(at, 4 * m))
        if vectors:
            vecs.update(((g, c), y_c) for c, y_c in enumerate(y))
    vals, owner, where = np.concatenate(vals), np.hstack(owner), np.concatenate(where)
    # by theta, then by |omega|, negative first on exact ties (as _by_magnitude)
    order = np.lexsort((np.sign(vals), np.abs(vals), where))
    vals, owner = vals[order], owner[:, order]
    bounds = np.searchsorted(where[order], np.arange(len(thetas) + 1))
    return [_Pencil(op, theta, blocks, vals[lo:hi], owner[:, lo:hi], vecs)
            for theta, lo, hi in zip(thetas, bounds[:-1], bounds[1:])]


def _solve_pencil(op: BlochOperator, theta, members: Optional[List[np.ndarray]] = None,
                  vectors: bool = False) -> _Pencil:
    """_solve_pencils at one theta, members given as one boolean mask per
    group."""
    return _solve_pencils(op, [theta], None if members is None else [m[None] for m in members],
                          vectors)[0]


def _by_magnitude(vals: np.ndarray) -> np.ndarray:
    """The order of vals by |omega|, negative first on exact ties."""
    return np.lexsort((np.sign(vals), np.abs(vals)))


def _floors(op: BlochOperator, thetas=None) -> List[np.ndarray]:
    """Per group, a lower bound on |omega| over the eigenvalues of each class
    member's reduced pencil at op.theta, shape (n,), or at each of the (S, 3)
    thetas, shape (S, n): min over its modes of |theta + n|, divided by the
    inf-norm of its A0 block.  Every eigenvalue of L^H Gt L satisfies
    |omega| >= sigma_min(Gt) lambda_min(T^H inv(A0) T); the 4x4 block of Gt
    at mode n has singular values |theta + n|, and T has orthonormal columns,
    so lambda_min(T^H inv(A0) T) >= 1 / lambda_max(A0) >= 1 / ||A0||_inf
    (A0 is Hermitian)."""
    thetas = op.theta if thetas is None else np.asarray(thetas, dtype=float)
    k = np.linalg.norm(thetas[..., None, :] + op.cutoff.modes, axis=-1)
    return [k[..., modes].min(axis=-1) / norms
            for (modes, _rows, _a0, _li), norms in zip(op.groups, op.a0_norms)]


def _below(floors: List[np.ndarray], bound: float) -> List[np.ndarray]:
    """Per group, the members whose floor lies below bound widened by four
    cluster tolerances.  A cluster spans less than one tolerance and holds
    its mean, so every cluster with a member below bound is solved whole,
    and a cluster cut at the edge of the solved part lies within two
    tolerances of a cluster of the full spectrum (the gap pass needs that
    margin)."""
    bound = bound + 4 * default_cluster_tol(bound)
    return [f < bound for f in floors]


def _cluster_span(p: _Pencil, sel: List[int]) -> np.ndarray:
    """Plain-orthonormal columns spanning the eigenspace of the cluster sel
    (from _cluster), lifted to the full space."""
    psi = np.zeros((6 * p.op.cutoff.num_modes, len(sel)), dtype=complex)
    for j, i in enumerate(sel):
        g, c, k = p.owner[:, i].tolist()
        which, _sym, w, chol, red = p.blocks[g]
        _modes, rows, _a0, li = p.op.groups[g]
        if (g, c) not in p.vecs:
            p.vecs[g, c] = np.linalg.eigh(red[c])[1]
        v = scipy.linalg.lapack.ztrtrs(chol[c], p.vecs[g, c][:, k], lower=1, trans=2)[0]
        psi[rows[which[c]], j] = adjoint(li[which[c]]) @ (w[c] @ v)
    return _orthonormalize(psi)


def _band(p: _Pencil, sel: List[int], psi: np.ndarray, omega: float,
          band_index: int) -> BlochBand:
    """The band of the cluster sel with eigenbasis psi at omega, with its
    residual in the pencil."""
    return BlochBand(
        theta=p.theta,
        omega=float(omega),
        kappa=psi.shape[1],
        eigvecs=psi,
        band_index=band_index,
        residual=_residual(p, sel, psi, omega),
    )


def _residual(p: _Pencil, sel: List[int], psi: np.ndarray, omega: float) -> float:
    """||(i*omega*A0 - G) psi|| / ||psi|| at p's theta, for psi spanning the
    cluster sel, on the rows of the class members owning sel: psi vanishes
    on every other row, and neither A0 nor G couples two classes."""
    r = []
    for g, c in dict.fromkeys(map(tuple, p.owner[:2, sel].T.tolist())):
        which, sym, *_ = p.blocks[g]
        _modes, rows, a0, _li = p.op.groups[g]
        x = psi[rows[which[c]]]
        # G is -i times the symbol, mode by mode
        r.append(1j * omega * (a0[which[c]] @ x) - apply_mode_blocks(-1j * sym[c], x))
    return float(np.linalg.norm(np.concatenate(r)) / max(np.linalg.norm(psi), 1e-300))


def solve_bands(op: BlochOperator, num_bands: int) -> List[BlochBand]:
    """Bands sorted by |omega| (negative first when |omega| agree within the
    cluster tolerance), clustered by multiplicity.  num_bands counts
    eigenvalues including multiplicity; a cluster straddling the cut is kept
    whole (with a warning).

    Only the class members that can hold the first num_bands eigenvalues
    are solved.  A first pass takes members in floor order (_floors; stable)
    until they hold num_bands eigenvalues; their num_bands-th |omega| bounds
    that of the full spectrum, so every eigenvalue up to it lies in a member
    whose floor lies below it.  A second pass, made only when it adds a
    member, solves those (_below, whose margin keeps the cut cluster and its
    +- tie partners whole) with the first set.  The clusters, their means,
    band indices, eigenvectors and residuals up to the cut are those of the
    full spectrum.  A one-class medium, or a call for every band, is one
    pass over every member."""
    floors = _floors(op)
    sizes = np.concatenate([np.full(len(f), 4 * modes.shape[1])
                            for f, (modes, _rows, _a0, _li) in zip(floors, op.groups)])
    if num_bands > sizes.sum():
        raise ValueError(
            f"num_bands={num_bands} exceeds the dynamic subspace dimension {sizes.sum()}"
        )
    members = _lowest_members(floors, sizes, num_bands)
    p = _solve_pencil(op, op.theta, members)
    if members is not None:
        wider = [b | m for b, m in zip(_below(floors, abs(p.vals[num_bands - 1])), members)]
        if any((w & ~m).any() for w, m in zip(wider, members)):
            p = _solve_pencil(op, op.theta, wider)

    # the gauge frame is read by kappa > 1 clusters only
    frame = None
    bands: List[BlochBand] = []
    count = 0
    indices = _band_indices(p.vals)
    clusters, omegas = _cluster(p.vals)
    for sel, omega in zip(clusters, omegas):
        if count >= num_bands:
            break
        if count + len(sel) > num_bands:
            warnings.warn(
                f"band cut {num_bands} falls inside a multiplicity-{len(sel)} "
                "cluster; returning the whole cluster",
                ClusterStraddle,
            )
        count += len(sel)
        if len(sel) > 1 and frame is None:
            frame = transverse_field_blocks(op.cutoff, op.theta)
        psi = _fix_gauge(_cluster_span(p, sel), frame)
        bands.append(_band(p, sel, psi, omega, indices[sel[0]]))
    return bands


def _lowest_members(floors: List[np.ndarray], sizes: np.ndarray,
                    count: int) -> Optional[List[np.ndarray]]:
    """Per group, the mask of the members taken in floor order (stable, over
    the groups' members in turn) until they hold at least count eigenvalues,
    sizes[i] those of member i; None when that takes every member."""
    order = np.argsort(np.concatenate(floors), kind="stable")
    take = np.zeros(len(order), dtype=bool)
    take[order[:np.searchsorted(np.cumsum(sizes[order]), count) + 1]] = True
    if take.all():
        return None
    return np.split(take, np.cumsum([len(f) for f in floors])[:-1])


class Continuation(NamedTuple):
    """One point of continue_bands: the continued band, its gap to the rest
    of the spectrum, and the smallest singular value of the overlap
    band.eigvecs^H prev.eigvecs with the band it continues."""

    band: BlochBand
    gap: float
    overlap: float


def continue_bands(op: BlochOperator, thetas, prev: BlochBand,
                   parents: Optional[Sequence[int]] = None) -> Iterator[Continuation]:
    """The continuation of `prev` to each of the (S, 3) thetas, yielded in
    order.  With parents, point s continues the band of point parents[s]
    (an earlier point) instead, or prev where parents[s] is -1: a path
    walks with parents s - 1, a tree of quadrature nodes with their inward
    neighbors.

    The continuation is matched by eigenvector overlap, not eigenvalue
    proximity: layered media have symmetry-allowed exact crossings where the
    nearest eigenvalue hops branches.  Candidates are the clusters with
    |omega - prev.omega| < 0.2 * max(1, |prev.omega|), or all clusters if
    none is that close.  theta is used unwrapped, so the coefficient
    representation stays aligned with prev's across the cell boundary.  The
    returned eigenbasis is rotated by the unitary maximizing its overlap with
    prev's (subspace Procrustes).  Raises MultiplicityInconsistent if the
    matched cluster's multiplicity differs from prev's.

    Only the class members that can reach the candidates are solved: those
    whose floor (_floors) lies below |prev.omega| + 0.2 * max(1,
    |prev.omega|).  A member left out has no eigenvalue below that reach, so
    the candidates, the match, its eigenvectors and its band index are those
    of the full spectrum.  The gap is exact too: it is the distance from
    omega to the nearest other cluster of the full spectrum, because a
    second pass solves every member left out whose floor lies within the
    first pass's gap of |omega|.  When no cluster is near, every member is
    solved.

    The members that reach prev's own window are solved for every theta at
    once by _solve_pencils, in chunks of at most STACK_ENTRIES reduced-matrix
    entries (a theta that alone holds more is a chunk of its own).  The walk
    then runs point by point on those arrays; a point whose parent's window
    reaches a member the stack did not solve solves it there.
    """
    thetas = np.asarray(thetas, dtype=float).reshape(-1, 3)
    parents = [-1] * len(thetas) if parents is None else list(parents)
    floors = _floors(op, thetas)
    stacked = _below(floors, abs(prev.omega) + 0.2 * max(1.0, abs(prev.omega)))
    entries = sum(s.sum(axis=1) * (4 * modes.shape[1]) ** 2
                  for s, (modes, _rows, _a0, _li) in zip(stacked, op.groups))
    done: List[BlochBand] = []
    for lo, hi in _chunks(entries, STACK_ENTRIES):
        pencils = _solve_pencils(op, thetas[lo:hi], [s[lo:hi] for s in stacked], vectors=True)
        for s in range(lo, hi):
            parent = prev if parents[s] < 0 else done[parents[s]]
            cont = _continue(pencils[s - lo], [f[s] for f in floors], [x[s] for x in stacked],
                             parent)
            done.append(cont.band)
            yield cont
        # one chunk's arrays at a time: release these before the next is solved
        del pencils


def _chunks(entries: np.ndarray, cap: int) -> Iterator[Tuple[int, int]]:
    """Successive (lo, hi) runs of the points whose entries sum to at most
    cap, or of one point that alone exceeds it."""
    lo, total = 0, 0
    for s, e in enumerate(entries.tolist()):
        if s > lo and total + e > cap:
            yield lo, s
            lo, total = s, 0
        total += e
    if lo < len(entries):
        yield lo, len(entries)


def _continue(p: _Pencil, floors: List[np.ndarray], solved: List[np.ndarray],
              prev: BlochBand) -> Continuation:
    """One point of continue_bands: the continuation of prev at p's theta,
    given the members solved in p and every member's floor there."""
    half = 0.2 * max(1.0, abs(prev.omega))
    reach = _below(floors, abs(prev.omega) + half)
    if any((r & ~s).any() for r, s in zip(reach, solved)):
        solved = [r | s for r, s in zip(reach, solved)]
        p = _solve_pencil(p.op, p.theta, solved, vectors=True)
    clusters, omegas = _cluster(p.vals)
    window = np.flatnonzero(np.abs(omegas - prev.omega) < half)
    if not len(window):
        solved = [np.ones_like(s) for s in solved]
        p = _solve_pencil(p.op, p.theta, vectors=True)
        clusters, omegas = _cluster(p.vals)
        window = range(len(clusters))

    # the overlap depends on the span only, so candidates are scored on
    # their orthonormal columns; the winner's rotation fixes the gauge
    best, best_c, best_overlap = None, -1, -1.0
    for c in window:
        psi, s = procrustes_align(_cluster_span(p, clusters[c]), prev.eigvecs)
        overlap = s.min() if len(s) >= prev.kappa else 0.0
        if overlap > best_overlap:
            best, best_c, best_overlap = psi, c, overlap
    sel = clusters[best_c]
    if len(sel) != prev.kappa:
        raise MultiplicityInconsistent(
            f"tracked cluster multiplicity changed from {prev.kappa} to {len(sel)} "
            f"at theta={tuple(p.theta)}"
        )
    omega = omegas[best_c]
    gap = _gap(omegas, omega)
    more = [b & ~s for b, s in zip(_below(floors, abs(omega) + gap), solved)]
    if any(m.any() for m in more):
        vals = np.concatenate([p.vals, _solve_pencil(p.op, p.theta, more, vectors=True).vals])
        gap = _gap(_cluster(vals[_by_magnitude(vals)])[1], omega)
    band = _band(p, sel, best, omega, _band_indices(p.vals)[sel[0]])
    return Continuation(band, gap, float(best_overlap))


def _gap(omegas: np.ndarray, omega: float) -> float:
    """Distance from omega, one of the cluster means, to the nearest other
    (cluster means are distinct)."""
    others = omegas[omegas != omega]
    return float(np.min(np.abs(others - omega))) if len(others) else np.inf


def procrustes_align(basis: np.ndarray, ref: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """basis rotated by the unitary maximizing its overlap with ref, and the
    singular values of the overlap basis^H ref (those of the rotated basis's
    overlap too)."""
    u, s, vh = np.linalg.svd(adjoint(basis) @ ref, full_matrices=False)
    return basis @ (u @ vh), s


def _cluster(vals: np.ndarray) -> Tuple[List[List[int]], np.ndarray]:
    """Group indices of sorted-by-|omega| eigenvalues into clusters of equal
    omega, listed by |omega|, negative first among clusters whose |omega|
    agree within the tolerance, and the mean eigenvalue of each.  The
    branches are tracked separately so that +-pairs interleaved by rounding
    still cluster correctly; branches never merge."""
    w = vals.tolist()
    tol = default_cluster_tol(vals).tolist()
    clusters: List[List[int]] = []
    open_cluster = {True: None, False: None}
    for i, v in enumerate(w):
        cur = open_cluster[v >= 0]
        if cur is not None and abs(v - w[cur[0]]) < tol[cur[0]]:
            cur.append(i)
            continue
        cur = [i]
        clusters.append(cur)
        open_cluster[v >= 0] = cur
    # clusters are opened in the order of vals, so by the |omega| of their
    # first member; the |omega| of each cluster's tie group is that of the
    # first cluster of the group
    keys, head = [], None
    for sel in clusters:
        if head is None or abs(w[sel[0]]) - abs(w[head]) >= tol[head]:
            head = sel[0]
        keys.append((abs(w[head]), w[sel[0]] >= 0))
    clusters = [clusters[c] for c in sorted(range(len(clusters)), key=keys.__getitem__)]
    return clusters, np.array([sum(w[i] for i in sel) / len(sel) for sel in clusters])


def _band_indices(vals: np.ndarray) -> np.ndarray:
    """Signed band index per eigenvalue in the |omega|-sorted array."""
    pos = vals >= 0
    return np.where(pos, np.cumsum(pos), -np.cumsum(~pos))


def _orthonormalize(psi: np.ndarray) -> np.ndarray:
    if psi.shape[1] == 1:
        return psi / np.linalg.norm(psi)
    # thin SVD keeps the span, returns plain-orthonormal columns
    u, _s, vh = np.linalg.svd(psi, full_matrices=False)
    return u @ vh


def _fix_gauge(psi: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """A basis of span(psi) that depends on the span only.

    kappa = 1: the phase that makes the largest-magnitude entry real
    positive.  kappa > 1: the Procrustes rotation onto kappa transverse unit
    fields of the (K, 6, 4) frame (E or B along u1, u2 of
    fourier.transverse_pair at one mode).  They are picked by pivoted
    Gram-Schmidt on their overlaps with the span: largest remaining overlap
    first, lowest column on ties within GAUGE_TIE_TOL.  A vacuum kappa = 2
    band thus comes out u1- and u2-polarized.
    """
    kappa = psi.shape[1]
    if kappa == 1:
        j = np.argmax(np.abs(psi[:, 0]))
        return psi / (psi[j, 0] / abs(psi[j, 0]))
    overlap = np.einsum("kiq,kij->qkj", psi.reshape(-1, 6, kappa).conj(),
                        frame).reshape(kappa, -1)
    rest = overlap.copy()
    picks = []
    for _ in range(kappa):
        norms = np.linalg.norm(rest, axis=0)
        j = int(np.flatnonzero(norms >= (1.0 - GAUGE_TIE_TOL) * norms.max())[0])
        picks.append(j)
        q = rest[:, j] / norms[j]
        rest -= np.outer(q, q.conj() @ rest)
    u, _s, vh = np.linalg.svd(overlap[:, picks])
    return psi @ (u @ vh)


# ---------------------------------------------------------------------------
# Projector and partial inverse
# ---------------------------------------------------------------------------

def build_projectors(band: BlochBand, op: BlochOperator) -> ProjectorPair:
    """Projector onto ker(i*omega*A0 - G) and the Moore-Penrose partial inverse.

    The pencil L = i*omega*A0 - G is anti-Hermitian, so -iL is Hermitian.
    Its kernel lies in the class members whose floor (_floors) admits
    |omega|, those of _below(floors, |omega|): the pencil spectrum of any
    other member lies beyond |omega|.  The kernel dimension is counted from
    the eigenvalues of -iL on those members alone (one batched eigvalsh per
    class size) against kappa, below KERNEL_TOL times the largest
    |eigenvalue| over them; no eigenvector is computed.  That certifies
    span(band.eigvecs) as the whole kernel, which is what ProjectorPair's
    deflated solve needs.  Raises BandResidualError when the band's
    residual exceeds RESIDUAL_TOL.
    """
    if band.residual > RESIDUAL_TOL:
        raise BandResidualError(
            f"band residual {band.residual:.3e} exceeds {RESIDUAL_TOL:.0e}; refuse to build projectors"
        )
    op.check_band(band)
    spectra = [np.linalg.eigvalsh(_shifted_pencil(op, g, sel, band.omega))
               for g, sel in enumerate(_below(_floors(op), abs(band.omega))) if sel.any()]
    smax = max((np.abs(s).max() for s in spectra), default=0.0)
    null_dim = sum(int(np.sum(np.abs(s) <= KERNEL_TOL * smax)) for s in spectra)
    if null_dim != band.kappa:
        raise MultiplicityInconsistent(
            f"discrete kernel dimension {null_dim} != kappa {band.kappa}; "
            "check the cluster tolerance"
        )
    return ProjectorPair(basis=band.eigvecs, omega=band.omega, theta=band.theta, op=op)


def _shifted_pencil(op: BlochOperator, g: int, sel: np.ndarray, omega: float) -> np.ndarray:
    """-i * (i omega A0 - G) = omega A0 + iG on the members sel (a mask) of
    group g, one Hermitian block per member."""
    modes, _rows, a0, _li = op.groups[g]
    herm = omega * a0[sel]
    n, m = len(herm), modes.shape[1]
    i = np.arange(m)
    # the paired mode index moves to the front of the indexed view
    herm.reshape(n, m, 6, m, 6)[:, i, :, i, :] += 1j * op.g_blocks[modes[sel]].swapaxes(0, 1)
    return hermitian_part(herm)


# ---------------------------------------------------------------------------
# Band tracking along a theta path
# ---------------------------------------------------------------------------

def track_band(op: BlochOperator, band: BlochBand, theta_path,
               gap_tol: float = DEFAULT_GAP_TOL) -> List[BlochBand]:
    """Follow the multiplicity-kappa cluster along a theta path.

    The path is one continue_bands walk in which each point continues the
    previous one, so successive eigenbases are aligned by the maximal-overlap
    unitary.  If the cluster's gap to the rest of the spectrum drops below
    gap_tol the constant-multiplicity assumption failed and GapViolation is
    raised with the offending theta, before any later point is matched.
    """
    path = [np.asarray(t, dtype=float).reshape(3) for t in theta_path]
    for a, b in zip(path[:-1], path[1:]):
        if np.linalg.norm(b - a) > MAX_TRACK_STEP:
            raise ValueError("theta path step exceeds the tracking bound")

    tracked: List[BlochBand] = []
    if path and np.allclose(path[0], band.theta, rtol=0, atol=1e-15):
        tracked.append(band)
    rest = path[len(tracked):]
    for theta, (cur, gap, _overlap) in zip(rest, continue_bands(
            op, rest, band, parents=range(-1, len(rest) - 1))):
        if gap < gap_tol:
            raise GapViolation(theta, gap, gap_tol)
        tracked.append(cur)
    return tracked
