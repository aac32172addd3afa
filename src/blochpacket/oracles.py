"""Independent reference solutions: the exactly solvable constant-coefficient
medium, quadrature synthesis of exact wave packets from Bloch eigenpairs, and
two pseudo-spectral time-domain propagators.

These provide the second route of the dual-route checks in the package: the
eigensolver is checked against the constant-coefficient closed form and the
multi-scale assembly against synthesized exact packets.  The synthesis
returns the harmonics.HarmonicField that `seminorm` reads, with its
quadrature error per time.  One walk gives the band at every quadrature
node, of the main and the check rule together, as arrays in the nodes' row
order (_node_bands); the output times are then evaluated at once, each a row
block of one product over the nodes, so the field holds a leading time axis
(one time is a time axis of length 1).  The time-domain route is seeded
with the assembled field and reports its energy and divergence traces;
comparing its field with the assembly is not implemented yet.  It has two
propagators with one set-up, trace and growth guard (_Run).  A static
medium here is one fixed in time (MaterialSpec.fixed_in_time: no
modulation depends on t, every eta_0 = 0); the synthesis needs more, a
purely periodic medium (MaterialSpec.is_periodic: no modulation at all).

* chebyshev_solve, for a static medium without a lower-order term M: the
  flux is exp(tL) d0 with L skew-adjoint in the inv(A0)-weighted inner
  product, summed as a Chebyshev series in L to round-off (real
  coefficients, the powers of i carried by the recurrence), so it has no
  time-step error;
* time_domain_solve, RK4, for every medium: the only one for a medium with
  M (L is then not skew) or with a t-dependent modulation (no single L).

The `oracle` command takes the first where the medium allows it
(chebyshev_applies, which reads fixed_in_time and M) and the second
otherwise.  For the Chebyshev sum dt and cfl only set the trace times,
which are those of the RK4 schedule.  Without M the rows the curl never
writes keep their initial values, so when the divergences read only such
rows (a grid varying along one axis) they are computed once, from d0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .bands import BlochBand, BlochOperator, continue_bands
from .envelope import EnvelopeGrid, apply_grid_blocks
from .errors import ConfigError, GaugeError, StabilityAnomaly
from .fourier import (LatticeCutoff, MaterialSpec, adjoint, hermitian_part, transverse_pair,
                      trig_sum)
from .harmonics import HarmonicField, difference, seminorm

# smallest singular value of the overlap between adjacent nodes' eigenbases
OVERLAP_TOL = 0.99
# inward-neighbor search: at most this many node pairs' distances at once
NEIGHBOR_ENTRIES = 1 << 16
# time-domain trace: about this many rows, the first at t = 0
NUM_TRACE = 65
# admissible time-domain energy growth: exp(STABILITY_MARGIN * rate * t)
STABILITY_MARGIN = 10.0
# Chebyshev propagation: a trace row keeps its terms up to its last |c_k|
# above CHEB_TOL; the written rows of CHEB_BLOCK successive terms are added
# to CHEB_ROWS trace rows by one product (both small: the accumulator of all
# trace rows is the one large array of the sum)
CHEB_TOL = 1e-14
CHEB_BLOCK = 6
CHEB_ROWS = 4

# ---------------------------------------------------------------------------
# Constant-coefficient closed form
# ---------------------------------------------------------------------------

def exact_constant_solution(theta, k=(0, 0, 0), e_pol=None, sign: int = +1):
    """Closed-form eigenpair of the vacuum problem at wavevector k + theta.

    Frequencies are sign * |k + theta| with a two-dimensional eigenspace: the
    electric part runs over (k+theta)^perp and the magnetic part is
    -sign * unit(k+theta) ^ e.  Returns (omega, e, b) for a chosen
    polarization (default: first vector of the deterministic transverse
    pair), with (e, b) normalized so |e|^2 + |b|^2 = 1.  theta (and e_pol)
    may be (Q, 3) stacks; omega is then (Q,) and e, b are (Q, 3).
    """
    v = np.asarray(theta, dtype=float) + np.asarray(k, dtype=float)
    vn = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(vn == 0.0):
        raise ConfigError("k + theta = 0 has no nonzero eigenfrequency")
    vhat = v / vn
    if e_pol is None:
        e_pol = transverse_pair(v)[0]
    e = np.asarray(e_pol, dtype=complex)
    if np.any(np.abs(np.sum(vhat * e, axis=-1)) > 1e-12):
        raise ConfigError("polarization must be orthogonal to k + theta")
    e = e / np.linalg.norm(e, axis=-1, keepdims=True)
    b = -sign * np.cross(vhat, e)
    scale = 1.0 / np.sqrt(2.0)
    return sign * vn[..., 0], scale * e, scale * b


def constant_spectrum(cutoff: LatticeCutoff, theta) -> np.ndarray:
    """All exact vacuum eigenfrequencies (with multiplicity) on the cutoff set,
    sorted by |omega| then sign."""
    v = np.asarray(theta, dtype=float)[None, :] + cutoff.modes
    mags = np.linalg.norm(v, axis=1)
    vals = np.concatenate([mags, mags, -mags, -mags])
    order = np.lexsort((np.sign(vals), np.abs(vals)))
    return vals[order]


# ---------------------------------------------------------------------------
# Exact packet synthesis
# ---------------------------------------------------------------------------

@dataclass
class ExactPacketSpec:
    """Gaussian-spectrum wave packet on a tracked band.

    The target envelope is prod_a exp(-x_a^2 / (2 widths_a^2)) over the
    spectrum axes, carried by kappa-component weights; the spectrum is
    truncated at support_sigmas standard deviations (the tail must stay
    inside the band's validity ball).
    """

    theta_center: np.ndarray
    h: float
    widths: Tuple[float, float, float]
    weights: np.ndarray
    axes: Tuple[int, ...] = (0,)
    support_sigmas: float = 6.0
    nodes: int = 41
    nodes_check: int = 31

    def __post_init__(self):
        self.theta_center = np.asarray(self.theta_center, dtype=float).reshape(3)
        self.weights = np.asarray(self.weights, dtype=complex).reshape(-1)

    def spectrum_amplitude(self, zeta: np.ndarray) -> np.ndarray:
        """Scalar spectral density a(zeta) with int a(zeta) exp(i x.zeta) dzeta
        equal to the unit-peak Gaussian envelope."""
        amp = np.ones(zeta.shape[0])
        for a in self.axes:
            s = float(self.widths[a])
            amp = amp * (s / np.sqrt(2 * np.pi)) * np.exp(-0.5 * (s * zeta[:, a]) ** 2)
        return amp


@functools.cache
def _legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule of n nodes on [-1, 1], computed once per n and
    kept read-only."""
    rule = np.polynomial.legendre.leggauss(n)
    for arr in rule:
        arr.flags.writeable = False
    return rule


def _gl_nodes(packet: ExactPacketSpec, n: int):
    """Tensor Gauss-Legendre rule over the truncated spectrum support."""
    axis_nodes = []
    axis_wts = []
    for a in range(3):
        if a in packet.axes:
            r = packet.support_sigmas / float(packet.widths[a])
            x, w = _legendre(n)
            axis_nodes.append(r * x)
            axis_wts.append(r * w)
        else:
            axis_nodes.append(np.zeros(1))
            axis_wts.append(np.ones(1))
    grids = np.meshgrid(*axis_nodes, indexing="ij")
    wgrids = np.meshgrid(*axis_wts, indexing="ij")
    zeta = np.stack([g.ravel() for g in grids], axis=-1)
    wts = wgrids[0].ravel() * wgrids[1].ravel() * wgrids[2].ravel()
    return zeta, wts


def _node_bands(band: BlochBand, op: BlochOperator, h: float,
                zeta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The band at each of the (Q, 3) quadrature nodes zeta (at theta =
    band.theta + h zeta) with a continuous gauge: the frequencies (Q,) and
    eigenbases (Q, 6K, kappa), in zeta's row order.

    Nodes equal to 14 decimals are one node.  The center carries the band's
    own eigenbasis; the other nodes are visited outward (by max |zeta_a|,
    then |zeta|, then zeta), each continuing the band of its inward
    neighbor, the nearest node visited before it (_inward_neighbors).  The
    walk is one bands.continue_bands call over the whole set, each node with
    its inward neighbor as parent (so each basis is rotated onto its
    neighbor's by the maximal-overlap unitary).  The vacuum medium takes the
    closed form instead, as an independent route, evaluated and aligned for
    the whole node set at once (_vacuum_walk).  Either way the smallest
    singular value of each node's overlap with its neighbor must reach
    OVERLAP_TOL: GaugeError for the first node in walk order that does not.
    """
    uniq, row = np.unique(np.round(zeta, 14), axis=0, return_inverse=True)
    outer = np.flatnonzero(np.any(uniq, axis=1))
    outer = outer[np.lexsort((np.linalg.norm(uniq[outer], axis=1),
                              np.abs(uniq[outer]).max(axis=1)))]
    # the walk: the center, then the outer nodes; a node's parent is its
    # inward neighbor's place in it
    walked = np.concatenate([np.zeros((1, 3)), uniq[outer]])
    parents = _inward_neighbors(walked)
    place = np.zeros(len(uniq), dtype=int)
    place[outer] = np.arange(1, len(walked))
    thetas = band.theta + h * walked[1:]
    if _is_vacuum(op.spec):
        omegas, bases, overlaps = _vacuum_walk(band, op.cutoff, thetas, parents)
    else:
        omegas = np.empty(len(walked))
        bases = np.empty((len(walked),) + band.eigvecs.shape, dtype=complex)
        overlaps = np.ones(len(walked) - 1)
        omegas[0], bases[0] = band.omega, band.eigvecs
        for i, c in enumerate(continue_bands(op, thetas, band, parents - 1), start=1):
            omegas[i], bases[i], overlaps[i - 1] = c.band.omega, c.band.eigvecs, c.overlap
            if c.overlap < OVERLAP_TOL:
                break
    bad = np.flatnonzero(overlaps < OVERLAP_TOL)
    if len(bad):
        raise GaugeError(
            f"eigenbasis overlap {overlaps[bad[0]]:.4f} < {OVERLAP_TOL} between "
            f"adjacent quadrature nodes at zeta={tuple(walked[bad[0] + 1].tolist())}"
        )
    at = place[row.reshape(-1)]  # numpy 2.0.0 shapes the inverse (Q, 1)
    return omegas[at], bases[at]


def _inward_neighbors(walked: np.ndarray) -> np.ndarray:
    """For each node of the (N, 3) walk after the first, the row of the
    nearest node before it (the first one on ties), (N - 1,).  The distances
    are taken for row chunks of at most NEIGHBOR_ENTRIES entries, never for
    all pairs at once."""
    n = len(walked)
    parents = np.empty(n - 1, dtype=int)
    chunk = max(1, NEIGHBOR_ENTRIES // n)
    for i0 in range(1, n, chunk):
        i1 = min(n, i0 + chunk)
        # the distances as np.linalg.norm(z - visited, axis=1) sums them, so
        # that ties are the same
        dist = np.sqrt(sum((walked[i0:i1, a, None] - walked[None, :i1, a]) ** 2 for a in range(3)))
        dist[np.arange(i1)[None, :] >= np.arange(i0, i1)[:, None]] = np.inf
        parents[i0 - 1:i1 - 1] = np.argmin(dist, axis=1)
    return parents


def _vacuum_walk(band: BlochBand, cutoff: LatticeCutoff, thetas: np.ndarray, parents):
    """The frequencies and bases at the band's center (its own) and at the
    (N, 3) thetas (the closed form B_j, in mode n = 0 only, rotated onto its
    parent's basis), and the smallest singular value of each overlap (N,).
    procrustes_align(B, R U) is B polar(B^H R) U for a unitary U, so one
    batched SVD of the B_j^H B_parent(j) gives every overlap and rotation
    P_j; U_j = P_j U_parent(j) is composed by pointer doubling."""
    sign = 1 if band.omega > 0 else -1
    i = cutoff.index_of((0, 0, 0))
    blocks = np.empty((len(thetas) + 1, 6, 2), dtype=complex)  # the mode-0 rows of B_j
    blocks[0] = band.eigvecs[6 * i:6 * i + 6]
    omegas = np.empty(len(thetas) + 1)
    omegas[0] = band.omega
    for col, pol in enumerate(transverse_pair(thetas)):
        omegas[1:], blocks[1:, :3, col], blocks[1:, 3:, col] = exact_constant_solution(
            thetas, e_pol=pol, sign=sign)
    u, s, vh = np.linalg.svd(adjoint(blocks[1:]) @ blocks[parents])
    rot = np.concatenate([np.eye(2, dtype=complex)[None], u @ vh])
    up = np.concatenate([[0], parents])
    while np.any(up):
        rot, up = rot @ rot[up], up[up]
    bases = np.zeros((len(thetas) + 1, cutoff.num_modes, 6, 2), dtype=complex)
    bases[1:, i] = blocks[1:] @ rot[1:]
    bases = bases.reshape(len(thetas) + 1, -1, 2)
    bases[0] = band.eigvecs
    return omegas, bases, s.min(axis=1)


def _is_vacuum(spec: MaterialSpec) -> bool:
    if not spec.is_periodic():
        return False
    eye = np.eye(3)
    def _only_identity(coefs):
        for n, m in coefs.items():
            if any(v != 0 for v in n) or not np.allclose(m, eye, atol=0, rtol=0):
                return False
        return True
    return _only_identity(spec.eps0) and _only_identity(spec.mu0)


def synthesize_exact_packet(packet: ExactPacketSpec, band: BlochBand, op: BlochOperator,
                            times, grid: EnvelopeGrid,
                            estimate_error: bool = True) -> Tuple[HarmonicField, np.ndarray]:
    """Exact solution of the purely periodic problem as a Bloch-wave integral
    at the output times (J,) on `grid`, and its quadrature error per time.

    Tensor Gauss-Legendre quadrature over the packet spectrum; per node the
    eigenpair comes from the gauge-aligned band (_node_bands, closed form
    for vacuum).  The nodes do not depend on t: they are prepared once, and
    every time is then one row block of a single product over the nodes
    (_synthesize), so the field holds J times one time's harmonics
    {n: (J, 6, shape)}, with u(t, x) = sum_n exp(i (theta + n).x / h)
    D_n(t, x) (each D_n carries the nodes' own frequencies
    exp(i (x.zeta + omega t / h))).  With estimate_error the quadrature
    error (J,) is the L2 seminorm of the field minus that of the
    lower-order rule (nodes_check), over the field's; the check rule is
    built, and its nodes prepared in the same walk, only then.  Otherwise
    the error reads 0.
    """
    if not op.spec.is_periodic():
        raise ConfigError("exact synthesis requires a purely periodic medium")
    times = np.asarray(times, dtype=float)
    zeta, wts = _gl_nodes(packet, packet.nodes)
    check = _gl_nodes(packet, packet.nodes_check) if estimate_error else None
    omegas, bases = _node_bands(band, op, packet.h,
                                zeta if check is None else np.concatenate([zeta, check[0]]))
    q = len(zeta)
    field = _synthesize(packet, op.cutoff, omegas[:q], bases[:q], zeta, wts, times, grid)
    if check is None:
        return field, np.zeros(len(times))
    coarse = _synthesize(packet, op.cutoff, omegas[q:], bases[q:], *check, times, grid)
    l2 = ((0, 0, 0), (0, 0, 0))
    return field, seminorm(difference(field, coarse), [l2])[l2] / seminorm(field, [l2])[l2]


def _synthesize(packet, cutoff, omegas, bases, zeta, wts, times, grid) -> HarmonicField:
    """The quadrature sum over one node set, the (Q,) frequencies and
    (Q, 6K, kappa) bases at the (Q, 3) nodes zeta, at the times (J,) on
    `grid`.

    Only the node weights amp_q exp(i omega_q t_j / h), (J, Q), depend on t:
    the (6 |held|, Q) node vectors, weighted per time, are stacked into one
    (J 6 |held|, Q) matrix and multiplied once by the (Q, P) phases
    exp(i x.zeta_q) at the grid points, giving the harmonics.  Only the
    modes whose node-vector rows are not all zero (the band's mode class)
    enter: every other harmonic is zero."""
    amp = packet.spectrum_amplitude(zeta) * wts
    keep = np.flatnonzero(amp != 0.0)
    amp, zeta, omegas = amp[keep], zeta[keep], omegas[keep]
    vecs = (bases[keep] @ packet.weights).T.reshape(cutoff.num_modes, 6, len(zeta))
    held = np.flatnonzero(np.any(vecs, axis=(1, 2)))
    vecs = vecs[held].reshape(6 * len(held), len(zeta))
    xs = grid.points().reshape(-1, 3)
    phase = np.exp(1j * (zeta @ xs.T))                                      # (Q, P)
    node_wts = amp * np.exp(1j * times[:, None] * omegas / packet.h)        # (J, Q)
    per_mode = ((vecs[None] * node_wts[:, None]).reshape(-1, len(zeta)) @ phase
                ).reshape((len(times), len(held), 6) + grid.shape)
    return HarmonicField(packet.theta_center, packet.h, times, grid,
                         {tuple(n): per_mode[:, i] for i, n in enumerate(cutoff.modes[held])})


# ---------------------------------------------------------------------------
# Time-domain propagators (pseudo-spectral: RK4, and Chebyshev in time)
# ---------------------------------------------------------------------------

@dataclass
class TimeDomainResult:
    grid: EnvelopeGrid
    field: np.ndarray                 # (6, M1, M2, M3) at t_final
    trace: np.ndarray                 # rows (t, energy, div_eps_E, div_mu_B)
    dt: float


class _GridMaterial:
    """epsilon^h, mu^h, M^h evaluated on the spatial grid.

    A0 = diag(epsilon, mu) is held as its two 3x3 blocks, each an
    (M1, M2, M3, 3, 3) stack.  Its part that does not depend on t, a00 (the
    base periodic part sampled at y = x/h, and the eps1, mu1 modes with eta_0
    = 0), is sampled once; the other modes, `moving`, are re-evaluated per
    requested time (cheap: finitely many modes): none when the medium is
    fixed in time (MaterialSpec.fixed_in_time).
    """

    def __init__(self, spec: MaterialSpec, h: float, grid: EnvelopeGrid):
        self.spec = spec
        self.h = float(h)
        self.points = grid.points()
        fixed = [{k: m for k, m in c.items() if k[0][0] == 0.0} for c in (spec.eps1, spec.mu1)]
        self.moving = [{k: m for k, m in c.items() if k[0][0] != 0.0} for c in (spec.eps1, spec.mu1)]
        self.a00 = tuple(self._add(trig_sum(c, self.points / self.h), f, 0.0)
                         for c, f in zip((spec.eps0, spec.mu0), fixed))

    def _add(self, block: np.ndarray, coefs, t: float) -> np.ndarray:
        """block plus h^2 times the modulation modes `coefs` at time t."""
        return block + self.h**2 * trig_sum(self._waves(coefs, t), self.points) if coefs else block

    def _waves(self, coefs, t: float) -> dict:
        """The (eta, n) modes of a modulation at time t as wave vectors
        eta_x + n/h, each coefficient times exp(i eta_0 t)."""
        waves = {}
        for (eta, n), m in coefs.items():
            k = tuple(e + v / self.h for e, v in zip(eta[1:], n))
            waves[k] = waves.get(k, 0.0) + np.exp(1j * eta[0] * t) * m
        return waves

    def a0_at(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        """The (epsilon, mu) block stacks at time t."""
        return tuple(self._add(b, c, t) for b, c in zip(self.a00, self.moving))

    def m_at(self, t: float) -> Optional[np.ndarray]:
        if not self.spec.lower_order:
            return None
        return self.h * trig_sum(self._waves(self.spec.lower_order, t), self.points)


def _speed_bound(blocks, lower) -> float:
    """1 / sqrt(min eig epsilon * min eig mu) over the grid, from the
    Hermitian parts of the (epsilon, mu) block stacks, each smallest
    eigenvalue lowered by its entry of `lower`; a ConfigError when one is
    not positive."""
    eps_min, mu_min = (np.linalg.eigvalsh(hermitian_part(b)).min() - s
                       for b, s in zip(blocks, lower))
    if min(eps_min, mu_min) <= 0.0:
        raise ConfigError(f"A0 is not positive definite on the grid ({eps_min:.3e}, {mu_min:.3e})")
    return 1.0 / np.sqrt(eps_min * mu_min)


def _grid_major(blocks) -> np.ndarray:
    """The two (M1, M2, M3, 3, 3) block stacks as one (2, 3, 3, M1, M2, M3)
    array, the layout _apply_blocks and _rhs read."""
    return np.ascontiguousarray(np.moveaxis(np.stack(blocks), (-2, -1), (1, 2)))


def _apply_blocks(blocks, v: np.ndarray) -> np.ndarray:
    """diag(b_E, b_B) applied to a (6, M1, M2, M3) field, each block a
    (3, 3, M1, M2, M3) array."""
    return np.concatenate([apply_grid_blocks(b, w) for b, w in zip(blocks, (v[:3], v[3:]))])


class _CurlPlan(NamedTuple):
    """(curl B, -curl E) on one grid: the derivative along a varying axis d
    reads and writes only the components across d, so the pair reads the
    rows `read` of a (6, M1, M2, M3) field (E, B) and writes the rows `write`
    (4 of 6 each when one axis varies).  Written row i is, in Fourier space,
    the sum over t of coefs[t, i] (+-i k_d, or 0 where the row has fewer
    terms) times the transform of row srcs[t, i] of `read`, in the axis
    order."""

    grid: EnvelopeGrid
    read: List[int]
    write: List[int]
    coefs: np.ndarray  # (terms, len(write), M1, M2, M3)
    srcs: np.ndarray   # (terms, len(write))


def _curl_plan(grid: EnvelopeGrid) -> _CurlPlan:
    ks = grid.wavenumbers
    terms: Dict[int, List[Tuple[np.ndarray, int]]] = {}
    for d in grid.varying:
        # d/dx_d adds -d_d F_e2 to (curl F)_e1 and d_d F_e1 to (curl F)_e2
        e1, e2 = (d + 1) % 3, (d + 2) % 3
        ik = 1j * ks[d]
        for row, coef, src in ((e1, -ik, 3 + e2), (e2, ik, 3 + e1),
                               (3 + e1, ik, e2), (3 + e2, -ik, e1)):
            terms.setdefault(row, []).append((coef, src))
    read, write = sorted({src for row in terms.values() for _coef, src in row}), sorted(terms)
    depth = max(len(terms[row]) for row in write)
    coefs = np.zeros((depth, len(write)) + grid.shape, dtype=complex)
    srcs = np.zeros((depth, len(write)), dtype=int)
    for i, row in enumerate(write):
        for t, (coef, src) in enumerate(terms[row]):
            coefs[t, i], srcs[t, i] = coef, read.index(src)
    return _CurlPlan(grid, read, write, coefs, srcs)


def _curl_rows(plan: _CurlPlan, u_read: np.ndarray) -> np.ndarray:
    """The rows plan.write of (curl B, -curl E), from the rows plan.read of
    the grid field (E, B): one forward FFT, one gathered product per term
    depth and one inverse FFT of the grid."""
    hat = plan.grid.fft(u_read)
    out = hat[plan.srcs[0]]
    np.multiply(plan.coefs[0], out, out=out)
    for coefs, srcs in zip(plan.coefs[1:], plan.srcs[1:]):
        out += coefs * hat[srcs]
    return plan.grid.ifft(out)


def _spectral_div(field3: np.ndarray, grid: EnvelopeGrid) -> np.ndarray:
    """The divergence of a (3, M1, M2, M3) field on the grid, from the
    components along its varying axes."""
    axes = grid.varying
    terms = [grid.wavenumbers[a] * h for a, h in zip(axes, grid.fft(field3[list(axes)]))]
    return grid.ifft(1j * sum(terms[1:], terms[0]))


def _rhs(plan: _CurlPlan, d: np.ndarray, inv_rows, m: Optional[np.ndarray]) -> np.ndarray:
    """d/dt (eps E, mu B) = (curl B, -curl E) - M u with u = inv(A0) d, from
    rows of both _grid_major inverse blocks as one (2, r, 3, M1, M2, M3)
    stack: without M (None) the rows plan.read, returning the rows
    plan.write; with M, an (M1, M2, M3, 6, 6) stack, all six."""
    u = (inv_rows * d.reshape((2, 1, 3) + d.shape[1:])).sum(axis=2).reshape((-1,) + d.shape[1:])
    if m is None:
        return _curl_rows(plan, u)
    out = np.zeros_like(u)
    out[plan.write] = _curl_rows(plan, u[plan.read])
    return out - np.einsum("xyzab,bxyz->axyz", m, u)


class _Run:
    """What both time-domain propagators share: the grid and step checks, the
    initial flux, the trace schedule, the diagnostics and the growth guard.

    The grid must resolve the fast scale (>= 8 points per material period
    2*pi*h) and dt must keep the CFL bound cfl * dx / c (dt = None takes the
    bound).  t_final is cut into nsteps = ceil(t_final / dt) steps of
    dt = t_final / nsteps; the trace holds about NUM_TRACE rows at the step
    times s * dt, the first at t = 0 and the last at the final step.  a0 is
    the (epsilon, mu) block stacks at t = 0 and d0 the initial flux.
    """

    def __init__(self, spec: MaterialSpec, h: float, initial: np.ndarray,
                 grid: EnvelopeGrid, t_final: float, dt: Optional[float], cfl: float):
        self.mat = _GridMaterial(spec, h, grid)
        dxs = {a: grid.lengths[a] / grid.shape[a] for a in range(3) if grid.shape[a] > 1}
        for a, dx in dxs.items():
            if dx > 2.0 * np.pi * h / 8.0:
                raise ConfigError(
                    f"grid spacing {dx:.4f} along axis {a} does not resolve the "
                    f"fast scale (need <= {2*np.pi*h/8:.4f})"
                )
        # at any t the moving modes lower a00's eigenvalues by at most h^2 sum ||m||_2 (Weyl)
        lower = [h**2 * sum(np.linalg.norm(m, 2) for m in c.values()) for c in self.mat.moving]
        self.speed = _speed_bound(self.mat.a00, lower)
        dt_cfl = cfl * min(dxs.values()) / self.speed
        if dt is None:
            dt = dt_cfl
        elif dt > dt_cfl * (1 + 1e-12):
            raise ConfigError(f"dt={dt:.3e} violates the CFL bound {dt_cfl:.3e}")

        self.grid = grid
        u0 = np.asarray(initial, dtype=complex)
        if u0.shape != (6,) + grid.shape:
            raise ConfigError(f"initial field shape {u0.shape} != {(6,) + grid.shape}")
        self.plan = _curl_plan(grid)
        self.a0 = self.mat.a0_at(0.0)
        self.d0 = _apply_blocks(_grid_major(self.a0), u0)
        # without M the rows the curl does not write have no time derivative:
        # when the divergences read only such rows (the components along the
        # varying axes), they are d0's at every trace row
        self.stepped = list(range(6)) if spec.lower_order else self.plan.write
        div_rows = {a % 3 + 3 * f for f in (0, 1) for a in grid.varying}
        self.held_div = None if div_rows & set(self.stepped) else self._divergences(self.d0)

        self.nsteps = max(1, int(np.ceil(t_final / dt)))
        self.dt = t_final / self.nsteps
        every = max(1, self.nsteps // (NUM_TRACE - 1))
        self.trace_steps = [s for s in range(self.nsteps + 1)
                            if s % every == 0 or s == self.nsteps]
        self.growth = _growth_rate_bound(spec, h)
        self.trace: List[Tuple[float, float, float, float]] = []

    def _divergences(self, d: np.ndarray) -> Tuple[float, float]:
        """The L2 norms of div(eps E) and div(mu B) of the flux d."""
        scale = np.sqrt(self.grid.cell_volume)
        return tuple(float(np.linalg.norm(_spectral_div(f, self.grid)) * scale)
                     for f in (d[:3], d[3:]))

    def record(self, t: float, d: np.ndarray, inv_a0) -> None:
        """Append the row (t, energy, div_eps_E, div_mu_B) of the flux d, with
        inv(A0) as _grid_major blocks; StabilityAnomaly if the energy exceeds
        the first row's by more than the admissible growth."""
        dv = self.grid.cell_volume
        u = _apply_blocks(inv_a0, d)
        energy = float(np.real(np.sum(np.conj(u) * d)) * dv)
        div_e, div_b = self.held_div if self.held_div is not None else self._divergences(d)
        self.trace.append((t, energy, div_e, div_b))
        e0 = self.trace[0][1]
        bound = e0 * np.exp(STABILITY_MARGIN * max(self.growth, 1e-14) * t) + 1e-9 * e0
        if energy > max(bound, e0 * (1 + 1e-6)):
            raise StabilityAnomaly(
                f"energy {energy:.6e} at t={t:.3f} exceeds the growth bound "
                f"{bound:.6e} (rate {self.growth:.3e})"
            )

    def result(self, d: np.ndarray, inv_a0) -> TimeDomainResult:
        return TimeDomainResult(grid=self.grid, field=_apply_blocks(inv_a0, d),
                                trace=np.asarray(self.trace), dt=self.dt)


def _comps(comps) -> slice:
    """Components of E and B that a curl plan reads or writes (all three, or
    the two across one varying axis) as a slice."""
    return slice(comps[0], comps[-1] + 1, comps[1] - comps[0])


def _row_view(d: np.ndarray, comps) -> np.ndarray:
    """The rows (E_c, B_c), c in comps, of a (6, M1, M2, M3) flux as a
    (2, len(comps), M1, M2, M3) view, in the order _rhs returns them."""
    return d.reshape((2, 3) + d.shape[1:])[:, _comps(comps)]


def time_domain_solve(spec: MaterialSpec, h: float, initial: np.ndarray,
                      grid: EnvelopeGrid, t_final: float, dt: Optional[float] = None,
                      cfl: float = 0.5) -> TimeDomainResult:
    """Integrate the dynamic equations with pseudo-spectral derivatives and RK4.

    The stepped variable is the flux density (epsilon E, mu B); the grid and
    step checks, the trace and the growth guard are _Run's.  inv(A0) is held
    as its two 3x3 block stacks, inverted once for a static medium and once
    per distinct stage time otherwise: at the step's midpoint (shared by k2
    and k3) and at its end (shared by k4, the next step's k1 and the trace).
    The step is planned once from the grid (_CurlPlan): each stage applies
    only the inverse-block rows the curl reads, and transforms only the
    components its varying axes reach.  Without a lower-order term M the rows
    the curl does not write have zero RK4 increments, so they are held fixed
    and only the others step, in place through a view (_row_view); with M
    all six step.  If the energy exceeds the admissible growth bound a
    StabilityAnomaly is raised.
    """
    run = _Run(spec, h, initial, grid, t_final, dt, cfl)
    mat, plan, dt = run.mat, run.plan, run.dt
    fixed = spec.fixed_in_time()
    # the components of E and B a stage reads, and those of the flux it steps
    comps = [0, 1, 2] if spec.lower_order else [r for r in plan.read if r < 3]
    stepped = [r for r in run.stepped if r < 3]

    def material(t):
        """inv(A0) as _grid_major blocks, their rows `comps` for _rhs, and M, at t."""
        inv_a0 = _grid_major([np.linalg.inv(b) for b in mat.a0_at(t)])
        return inv_a0, inv_a0[:, _comps(comps)], mat.m_at(t)

    dvec = run.d0
    buf = dvec.copy()  # the stage flux: its held rows are dvec's, which never change
    rows, buf_rows = _row_view(dvec, stepped), _row_view(buf, stepped)

    def stage(c, k):
        np.add(rows, c * k.reshape(rows.shape), out=buf_rows)
        return buf

    now = material(0.0)
    traced = set(run.trace_steps)
    run.record(0.0, dvec, now[0])
    t = 0.0
    for step in range(1, run.nsteps + 1):
        # k2 and k3 share the midpoint; k4 shares the end with the trace and
        # the next step's k1
        mid, end = (now, now) if fixed else (material(t + dt / 2), material(step * dt))
        t = step * dt
        k1 = _rhs(plan, dvec, *now[1:])
        k2 = _rhs(plan, stage(dt / 2, k1), *mid[1:])
        k3 = _rhs(plan, stage(dt / 2, k2), *mid[1:])
        k4 = _rhs(plan, stage(dt, k3), *end[1:])
        rows += (dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)).reshape(rows.shape)
        now = end
        if step in traced:
            run.record(t, dvec, now[0])
    return run.result(dvec, now[0])


def chebyshev_applies(spec: MaterialSpec) -> bool:
    """True when the flux evolves by exp(tL) with one L that is skew-adjoint
    in the inv(A0)-weighted inner product: a static medium (fixed in time)
    without a lower-order term M."""
    return not spec.lower_order and spec.fixed_in_time()


def chebyshev_solve(spec: MaterialSpec, h: float, initial: np.ndarray,
                    grid: EnvelopeGrid, t_final: float, dt: Optional[float] = None,
                    cfl: float = 0.5) -> TimeDomainResult:
    """The flux exp(tL) d0 of a static medium without M, exact in time up to
    the series tolerance CHEB_TOL (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
    3967 (1984)); any other medium is refused (ConfigError).

    With rho = 1.01 c |k|max (c the wave speed bound of A0, |k|max the
    largest grid wavenumber) Y = L / (i rho) has its spectrum in [-1, 1], and
    exp(tL) d0 = sum_k c_k(rho t) T_k(Y) d0 with c_k(z) = (2 - delta_k0)
    i^k J_k(z) (Jacobi-Anger).  The factor i^k goes into the recurrence: S_k
    = i^k T_k(Y) d0 follows S_{k+1} = (2 / rho) L S_k + S_{k-1}, and exp(tL)
    d0 = sum_k (2 - delta_k0) J_k(rho t) S_k has real coefficients.  One
    recurrence serves every trace row; a row at time t stops at its own last
    coefficient above CHEB_TOL.  The grid and step checks, the trace rows at
    the step times s * dt and the growth guard are _Run's, as for
    time_domain_solve: dt and cfl set only the trace spacing here.  L writes
    only the rows plan.write, so the others stay d0 (their S_k is i^k T_k(0)
    times d0, applied by _held_row_operator); the written rows of CHEB_BLOCK
    successive terms are added to the trace rows that still need them,
    CHEB_ROWS rows per real product on the (re, im) pairs.
    """
    if not chebyshev_applies(spec):
        raise ConfigError("Chebyshev propagation needs a static medium (every eta_0 = 0) "
                          "without a lower-order term")
    run = _Run(spec, h, initial, grid, t_final, dt, cfl)
    inv_a0 = _grid_major([np.linalg.inv(b) for b in run.a0])
    rho = _chebyshev_radius(run)
    times = run.dt * np.array(run.trace_steps)
    coefs, counts = _chebyshev_coefficients(rho * times)

    d0 = run.d0
    comps = [r for r in run.plan.write if r < 3]
    l_of = _held_row_operator(run.plan, inv_a0, d0)
    size = _row_view(d0, comps).size

    # S_k (written rows) goes to slot k % CHEB_BLOCK, where the recurrence
    # also finds S_{k-1} and S_{k-2}; its coefficients c_k / i^k are real
    nterms = coefs.shape[1]
    real = (coefs * np.array([1, -1j, -1, 1j])[np.arange(nterms) % 4]).real
    block = np.empty((CHEB_BLOCK, size), dtype=complex)
    acc = np.zeros((len(times), size), dtype=complex)
    block_re, acc_re = block.view(float), acc.view(float)  # (re, im) pairs
    for k in range(nterms):
        sk = block[k % CHEB_BLOCK]
        if k == 0:
            sk[:] = _row_view(d0, comps).ravel()
        elif k == 1:
            np.multiply(l_of(0, block[0]), 1 / rho, out=sk)
        else:
            np.multiply(l_of(k - 1, block[(k - 1) % CHEB_BLOCK]), 2 / rho, out=sk)
            sk += block[(k - 2) % CHEB_BLOCK]
        if k % CHEB_BLOCK == CHEB_BLOCK - 1 or k == nterms - 1:
            k0 = k - k % CHEB_BLOCK
            # no row before `first` has a term left; the rows go in groups of
            # CHEB_ROWS, so that the product needs no array the size of acc
            first = int(np.argmax(counts > k0))
            for j in range(first, len(times), CHEB_ROWS):
                acc_re[j:j + CHEB_ROWS] += real[j:j + CHEB_ROWS, k0:k + 1] @ block_re[:k + 1 - k0]
    del block, block_re, sk  # before the trace's own temporaries

    d = d0.copy()
    d_rows = _row_view(d, comps)
    for t, row in zip(times, acc):
        d_rows[...] = row.reshape(d_rows.shape)
        run.record(float(t), d, inv_a0)
    return run.result(d, inv_a0)


def _held_row_operator(plan: _CurlPlan, inv_a0, d0: np.ndarray):
    """l_of(k, sk): the rows plan.write of L S_k, flat, from those of S_k =
    i^k T_k(Y) d0 (flat in _row_view's order).  The other rows are d0 for
    even k and 0 for odd, so their inv(A0) products are formed once; a term
    multiplies inv(A0) over the written columns only and sums the columns in
    _rhs's order, to the same bits."""
    comps = [r for r in plan.write if r < 3]
    held = [c for c in range(3) if c not in comps]
    inv_rows = inv_a0[:, _comps([r for r in plan.read if r < 3])]
    held_prod = inv_rows[:, :, held] * d0.reshape((2, 1, 3) + d0.shape[1:])[:, :, held]

    def l_of(k: int, sk: np.ndarray) -> np.ndarray:
        prods = np.empty(inv_rows.shape, dtype=complex)  # inv(A0)_rc d_c, (2, r, 3, M...)
        prods[:, :, held] = held_prod if k % 2 == 0 else 0.0
        x = sk.reshape((2, len(comps)) + d0.shape[1:])
        for f, j in np.ndindex(2, len(comps)):  # per block column: no ufunc buffers
            np.multiply(inv_rows[f, :, comps[j]], x[f, j], out=prods[f, :, comps[j]])
        u = prods.sum(axis=2).reshape((-1,) + d0.shape[1:])
        del prods
        return _curl_rows(plan, u).ravel()

    return l_of


def _chebyshev_radius(run: _Run) -> float:
    """rho = 1.01 c |k|max (c = run.speed), a bound on the spectral radius of
    L on the grid: L is similar to A0^(-1/2) (curl B, -curl E) A0^(-1/2),
    which couples E and B through eps^(-1/2) curl mu^(-1/2), of norm at most
    |k|max / sqrt(min eig eps * min eig mu) = c |k|max."""
    return 1.01 * run.speed * float(np.sqrt(sum(k**2 for k in run.grid.wavenumbers)).max())


def _chebyshev_coefficients(z: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The Chebyshev coefficients c_k(z) = (2 - delta_k0) i^k J_k(z) of
    exp(i z Y) for each z >= 0 of a (J,) array, as a (J, K) array, and the
    number of terms each row keeps: up to its last |c_k| above CHEB_TOL,
    zero after it.  By Jacobi-Anger the c_k(z) are the cosine coefficients
    of exp(i z cos s), so one FFT over s gives them all; the length puts
    every |J_k| that aliases below round-off."""
    zmax = float(np.max(z))
    n = 1 << int(np.ceil(np.log2(2 * (zmax + 20 * zmax ** (1 / 3) + 64))))
    s = 2 * np.pi / n * np.arange(n)
    c = np.fft.fft(np.exp(1j * z[:, None] * np.cos(s)), axis=1)[:, :n // 2] / n
    c[:, 1:] *= 2
    counts = n // 2 - np.argmax(np.abs(c[:, ::-1]) > CHEB_TOL, axis=1)
    c = c[:, :counts.max()].copy()
    c[np.arange(c.shape[1]) >= counts[:, None]] = 0.0
    return c, counts


def _growth_rate_bound(spec: MaterialSpec, h: float) -> float:
    """Coefficient-norm bound for sup |d_t eps^h| + sup |M^h| (the admissible
    energy growth rate up to constants)."""
    rate = 0.0
    for (eta, _n), m in list(spec.eps1.items()) + list(spec.mu1.items()):
        rate += h**2 * abs(eta[0]) * np.linalg.norm(m, 2)
    for (_eta, _n), m in spec.lower_order.items():
        rate += h * np.linalg.norm(m, 2)
    return rate
