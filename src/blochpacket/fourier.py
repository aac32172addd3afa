"""Plane-wave representation of periodic 6-component fields and the basic
operators acting on them: the curl block at Bloch frequency theta as
per-mode 6x6 blocks, material multiplication (coefficient-space
convolution), and the transverse unit fields of each mode.  A field is its
coefficient array: (K, 6), or (6K,) flattened mode-major, with K modes.

Conventions
-----------
Fields live on the torus of period 2*pi.  A field at Bloch frequency
theta in [0,1)^3 is

    u(y) = exp(i theta.y) * sum_n c(n) exp(i n.y),    n in Z^3, |n_a| <= N_a,

with c(n) in C^6 ordered as (E, B).  A general wavevector xi in R^3 splits
uniquely as xi = n + theta with n integer, which fixes the (unit-free)
theta in [0,1)^3 convention used throughout; note this is NOT the
[-pi,pi)^3 Brillouin-zone normalization common in solid-state codes.

The plain L2 inner product is normalized by the cell volume, so it equals
the Euclidean inner product of the coefficient stacks (Parseval).  All
Hermitian/anti-Hermitian statements below refer to this product.

Mode enumeration is the fixed lexicographic bijection

    index(n) = ((n1+N1)*(2*N2+1) + (n2+N2))*(2*N3+1) + (n3+N3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from .errors import GammaPointError, MaterialError

Mode = Tuple[int, int, int]
ModKey = Tuple[Tuple[float, float, float, float], Mode]

# samples per structured axis of the cell grid that validates positivity
_POSITIVITY_GRID = 9
_POSITIVITY_TOL = 1e-10


# ---------------------------------------------------------------------------
# Lattice cutoff and mode bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeCutoff:
    """Truncated reciprocal lattice: modes n with |n_a| <= nmax[a].

    The symmetric cutoff N (same bound on each axis) is the documented
    default; per-axis bounds are supported so layered problems can be
    refined along the structured axis only (the operator is block diagonal
    over the transverse mode indices for layered media, so an anisotropic
    truncation solves exact sub-blocks of the full problem).
    """

    nmax: Tuple[int, int, int]

    def __init__(self, n):
        if np.isscalar(n):
            nmax = (int(n),) * 3
        else:
            nmax = tuple(int(v) for v in n)
        if len(nmax) != 3 or any(v < 0 for v in nmax):
            raise ValueError(f"invalid cutoff {n!r}")
        object.__setattr__(self, "nmax", nmax)

    @property
    def shape(self) -> Tuple[int, int, int]:
        return tuple(2 * b + 1 for b in self.nmax)

    @property
    def num_modes(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def modes(self) -> np.ndarray:
        """(K, 3) integer array in enumeration order, built once and read-only."""
        grids = [np.arange(-b, b + 1) for b in self.nmax]
        n1, n2, n3 = np.meshgrid(*grids, indexing="ij")
        modes = np.stack([n1.ravel(), n2.ravel(), n3.ravel()], axis=-1)
        modes.flags.writeable = False
        return modes

    def index_of(self, n) -> int:
        n = tuple(int(v) for v in n)
        if not self.contains(n):
            raise KeyError(f"mode {n} outside cutoff {self.nmax}")
        s = self.shape
        return ((n[0] + self.nmax[0]) * s[1] + (n[1] + self.nmax[1])) * s[2] + (
            n[2] + self.nmax[2]
        )

    def contains(self, n) -> bool:
        return all(abs(int(v)) <= b for v, b in zip(n, self.nmax))

    def shift_indices(self, k) -> Tuple[np.ndarray, np.ndarray]:
        """Index pairs (src, dst) with mode(dst) = mode(src) + k, both in range."""
        modes = self.modes
        shifted = modes + np.asarray(k, dtype=int)
        ok = np.all(np.abs(shifted) <= np.asarray(self.nmax), axis=1)
        src = np.nonzero(ok)[0]
        s = self.shape
        off = shifted[src] + np.asarray(self.nmax)
        dst = (off[:, 0] * s[1] + off[:, 1]) * s[2] + off[:, 2]
        return src, dst


def wavevectors(cutoff: LatticeCutoff, theta) -> np.ndarray:
    """(K, 3) array of theta + n over the cutoff set."""
    return np.asarray(theta, dtype=float)[None, :] + cutoff.modes


# ---------------------------------------------------------------------------
# Curl block at Bloch frequency theta
# ---------------------------------------------------------------------------

def cross_matrix(v) -> np.ndarray:
    """3x3 matrix of u -> v ^ u for v of shape (3,), or stacked for (..., 3).
    Filled by index: np.cross costs several times more per call."""
    v = np.asarray(v, dtype=complex)
    out = np.zeros(v.shape + (3,), dtype=complex)
    out[..., [2, 0, 1], [1, 2, 0]] = v
    out[..., [1, 2, 0], [2, 0, 1]] = -v
    return out


def symbol_matrix(xi) -> np.ndarray:
    """6x6 symbol [[0,-xi^],[xi^,0]] for xi of shape (3,), or a stack of them
    for xi of shape (..., 3)."""
    cx = cross_matrix(xi)
    out = np.zeros(cx.shape[:-2] + (6, 6), dtype=complex)
    out[..., :3, 3:] = -cx
    out[..., 3:, :3] = cx
    return out


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + adjoint(m))


def apply_mode_blocks(blocks: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply mode-diagonal 6x6 blocks, (K, 6, 6) or one (6, 6) for every mode,
    to coefficients of shape (6K,) or (6K, m) in mode-major order."""
    return (blocks @ v.reshape(len(v) // 6, 6, -1)).reshape(v.shape)


def curl_matrix(cutoff: LatticeCutoff, theta) -> np.ndarray:
    """(K, 6, 6) per-mode blocks of the curl block, (E, B)(n) ->
    (i(theta+n)^B(n), -i(theta+n)^E(n)): -i times the symbol at theta + n
    (the curl block couples no two modes)."""
    return -1j * symbol_matrix(wavevectors(cutoff, theta))


# ---------------------------------------------------------------------------
# Transverse splitting
# ---------------------------------------------------------------------------

def _check_theta(theta):
    """theta = 0 (and any integer vector, which represents the same point of
    the unit cell [0,1)^3) is rejected: the curl kernel is not complemented
    there and the tracked eigenfrequency must be nonzero.  Values outside the
    canonical [0,1)^3 range are accepted and interpreted on the same mode
    lattice -- derivative stencils need to cross the cell boundary without
    re-indexing coefficients."""
    theta = np.asarray(theta, dtype=float).reshape(3)
    if np.all(theta == np.round(theta)):
        raise GammaPointError(
            "theta on the integer lattice is excluded: the curl kernel is not "
            "complemented there and the tracked eigenfrequency must be nonzero "
            "(the constant-multiplicity setting requires theta != 0)"
        )
    return theta


def transverse_pair(v):
    """Orthonormal pair (u1, u2) spanning v^perp, with u1 ^ u2 = v_hat, for a
    nonzero vector v of shape (3,) or a stack of them of shape (..., 3).

    Tie-break: let a be the coordinate axis least parallel to v (lowest index
    on ties); u2 = normalize(v_hat ^ e_a), u1 = u2 ^ v_hat.  Deterministic and
    continuous in v away from axis switches.
    """
    v = np.asarray(v, dtype=float)
    vhat = v / np.linalg.norm(v, axis=-1, keepdims=True)
    ea = np.eye(3)[np.argmin(np.abs(vhat), axis=-1)]
    u2 = np.cross(vhat, ea)
    u2 /= np.linalg.norm(u2, axis=-1, keepdims=True)
    u1 = np.cross(u2, vhat)
    return u1, u2


def transverse_field_blocks(cutoff: LatticeCutoff, theta) -> np.ndarray:
    """(K, 6, 4) per-mode transverse E/B unit fields at theta: the
    transverse_frame of theta + n for every mode n (theta != 0 guarantees
    theta + n != 0 for every integer n).  Per mode they span the
    plain-orthogonal complement of the curl kernel.
    """
    return transverse_frame(wavevectors(cutoff, _check_theta(theta)))


def transverse_frame(k) -> np.ndarray:
    """(..., 6, 4) transverse E/B unit fields of nonzero wavevectors k of
    shape (..., 3).  Column order: (E,u1), (E,u2), (B,u1), (B,u2) with u1, u2
    the transverse_pair of k, an orthonormal pair spanning k^perp."""
    u = transverse_pair(k)
    blocks = np.zeros(u[0].shape[:-1] + (6, 4), dtype=complex)
    for a in range(2):
        blocks[..., :3, a] = u[a]
        blocks[..., 3:, 2 + a] = u[a]
    return blocks


# ---------------------------------------------------------------------------
# Materials
# ---------------------------------------------------------------------------

@dataclass
class MaterialSpec:
    """Finitely supported Fourier description of the medium.

    eps0, mu0 : {n: 3x3 complex} -- cell-periodic base permittivities.
    eps1, mu1 : {(eta, n): 3x3 complex} -- slow modulations; eta in R^{1+3} is
        the (t, x) frequency of the trigonometric mode exp(i eta.(t,x)), n the
        cell harmonic.  Callers wanting real modulations supply +-eta pairs.
    lower_order : {(eta, n): 6x6 complex} -- zero-order term (e.g. Ohmic loss,
        conductivity sigma in the top-left block).

    eps0 and mu0 each need at least one coefficient (validate refuses an
    empty map).  Base coefficients must satisfy coef(-n) = coef(n)^H so the
    reconstructed matrices are Hermitian pointwise; reconstructed eps0, mu0
    must be positive definite (smallest eigenvalue > 1e-10 on the
    cell_points grid with 9 samples along each axis the coefficient varies
    on, 1 along the others).  A key whose n is not 3 integers or whose eta
    is not 4 finite numbers is refused (MaterialError) when the spec is
    built, before it could be rounded.
    """

    eps0: Dict[Mode, np.ndarray] = field(default_factory=dict)
    mu0: Dict[Mode, np.ndarray] = field(default_factory=dict)
    eps1: Dict[ModKey, np.ndarray] = field(default_factory=dict)
    mu1: Dict[ModKey, np.ndarray] = field(default_factory=dict)
    lower_order: Dict[ModKey, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("eps0", "mu0", "eps1", "mu1", "lower_order"):
            read = _mode_key if name in ("eps0", "mu0") else _mod_key
            setattr(self, name, {read(k, name): np.asarray(m, dtype=complex)
                                 for k, m in getattr(self, name).items()})

    # -- validation --------------------------------------------------------

    def validate(self):
        base = (("eps0", self.eps0), ("mu0", self.mu0))
        for name, coefs in base:
            if not coefs:
                raise MaterialError(f"{name} has no coefficients")
        for name, coefs in base:
            for n, m in coefs.items():
                if m.shape != (3, 3):
                    raise MaterialError(f"{name}[{n}] is not 3x3")
                neg = tuple(-v for v in n)
                partner = coefs.get(neg)
                if partner is None or not np.allclose(partner, adjoint(m), atol=1e-12):
                    raise MaterialError(
                        f"{name}: coefficient at {neg} must equal the conjugate "
                        f"transpose of the coefficient at {n}"
                    )
            pts = cell_points(coefs, _POSITIVITY_GRID)
            eigs = np.linalg.eigvalsh(hermitian_part(trig_sum(coefs, pts)))
            if eigs.min() <= _POSITIVITY_TOL:
                shape = "x".join(str(n) for n in pts.shape[:-1])
                raise MaterialError(
                    f"{name} reconstruction is not positive definite "
                    f"(min eigenvalue {eigs.min():.3e} on a {shape} cell grid)"
                )
        for name, coefs, dim in (
            ("eps1", self.eps1, 3),
            ("mu1", self.mu1, 3),
            ("lower_order", self.lower_order, 6),
        ):
            for (eta, n), m in coefs.items():
                if m.shape != (dim, dim):
                    raise MaterialError(f"{name}[{eta},{n}] is not {dim}x{dim}")
        return self

    # -- modulation access --------------------------------------------------

    def modulation_frequencies(self):
        """Sorted list of all (t, x)-frequencies eta carried by the modulations."""
        etas = set()
        for coefs in (self.eps1, self.mu1, self.lower_order):
            etas.update(eta for (eta, _n) in coefs)
        return sorted(etas)

    def is_periodic(self) -> bool:
        """No modulation at all: the medium is its cell-periodic base."""
        return not (self.eps1 or self.mu1 or self.lower_order)

    def fixed_in_time(self) -> bool:
        """No modulation depends on t (every eta has eta_0 = 0)."""
        return all(eta[0] == 0.0 for eta in self.modulation_frequencies())


def _floats(values) -> tuple:
    """values as a tuple of floats, or () when they are not numbers."""
    try:
        return tuple(float(v) for v in values)
    except (TypeError, ValueError):
        return ()


def _mode_key(n, name: str) -> Mode:
    """n as a cell harmonic, or a MaterialError unless it is 3 integers."""
    mode = _floats(n)
    if len(mode) != 3 or not all(v.is_integer() for v in mode):
        raise MaterialError(f"{name}: cell harmonic {n!r} is not 3 integers")
    return tuple(int(v) for v in mode)


def _mod_key(key, name: str) -> ModKey:
    """(eta, n) with eta a (t, x) frequency, or a MaterialError unless eta is
    4 finite numbers and n 3 integers."""
    eta, n = key
    freq = _floats(eta)
    if len(freq) != 4 or not np.all(np.isfinite(freq)):
        raise MaterialError(f"{name}: frequency {eta!r} is not 4 finite numbers")
    return freq, _mode_key(n, name)


# ---------------------------------------------------------------------------
# Coefficient-space convolution (Galerkin truncated)
# ---------------------------------------------------------------------------

def conv_apply(coefs: Dict[Mode, np.ndarray], cutoff: LatticeCutoff, arr: np.ndarray) -> np.ndarray:
    """(A f)(m) = sum_k A(k) f(m-k), projected back onto the cutoff set.

    arr has shape (K, ..., d), mode first and component last; each
    coefficient is d x d and acts on every index in between alike.
    """
    out = np.zeros_like(arr)
    for k, mat in coefs.items():
        src, dst = cutoff.shift_indices(k)
        out[dst] += arr[src] @ mat.T
    return out


def base_material_matrix(spec: MaterialSpec, cutoff: LatticeCutoff,
                         groups) -> List[np.ndarray]:
    """Dense blocks of the block-diagonal base material (eps0 on E, mu0 on B):
    for each (n, m) array of n mode classes of m modes, one (n, 6m, 6m) stack
    in the classes' mode order.  The classes must be unions of
    bands.mode_classes, which the material never couples."""
    group = np.empty(cutoff.num_modes, dtype=int)
    member = np.empty(cutoff.num_modes, dtype=int)
    pos = np.empty(cutoff.num_modes, dtype=int)
    for g, modes in enumerate(groups):
        group[modes] = g
        member[modes] = np.arange(len(modes))[:, None]
        pos[modes] = np.arange(modes.shape[1])
    stacks = [np.zeros((n, m, 6, m, 6), dtype=complex) for n, m in (g.shape for g in groups)]
    for coefs, off in ((spec.eps0, 0), (spec.mu0, 3)):
        for key, coef in coefs.items():
            src, dst = cutoff.shift_indices(key)
            for g, stack in enumerate(stacks):
                sel = group[dst] == g
                d, s = dst[sel], src[sel]
                # dst is one-to-one in src, so no entry is hit twice
                stack[member[d], pos[d], off : off + 3, pos[s], off : off + 3] += coef
    return [stack.reshape(len(stack), 6 * stack.shape[1], -1) for stack in stacks]


def modulation_apply(spec: MaterialSpec, eta, cutoff: LatticeCutoff, v: np.ndarray):
    """The pair (A0^1(eta, .) v, M(eta, .) v) for v of shape (6K,) or (6K, m):
    the y-multiplication operators carried by the single (t, x)-frequency eta
    of the slow modulations, A0^1 with eps1 on the E block and mu1 on the B
    block, M the lower-order term.  Each is one conv_apply over every
    column."""
    eta = tuple(float(x) for x in eta)
    at_eta = lambda coefs: {n: m for (e, n), m in coefs.items() if e == eta}
    arr = v.reshape(cutoff.num_modes, 6, -1).swapaxes(1, 2)  # (K, m, 6)
    a01 = np.empty(arr.shape, dtype=complex)
    a01[..., :3] = conv_apply(at_eta(spec.eps1), cutoff, arr[..., :3])
    a01[..., 3:] = conv_apply(at_eta(spec.mu1), cutoff, arr[..., 3:])
    low = conv_apply(at_eta(spec.lower_order), cutoff, arr)
    return tuple(part.swapaxes(1, 2).reshape(v.shape) for part in (a01, low))


# ---------------------------------------------------------------------------
# Trigonometric sums
# ---------------------------------------------------------------------------

def cell_points(modes, m: int) -> np.ndarray:
    """Cell sample points y_a = 2 pi k / m, shape (n1, n2, n3, 3): m samples
    along each axis some cell harmonic in modes has a nonzero entry on, the
    single sample y_a = 0 along the others.  A trigonometric sum over modes is
    constant along those axes, so it takes the same values here as on the
    full m^3 grid."""
    ys = [np.linspace(0.0, 2 * np.pi, m if any(n[a] != 0 for n in modes) else 1,
                      endpoint=False) for a in range(3)]
    return np.stack(np.meshgrid(*ys, indexing="ij"), axis=-1)


def trig_sum(coefs: Dict, points) -> np.ndarray:
    """sum_k coef(k) exp(i k.p) at points p (..., d), frequencies k of length d
    (cell harmonics, real wave vectors, (t, x) frequencies); shape
    points.shape[:-1] + coefficient shape.  A tensor grid passes its stacked meshgrid."""
    p = np.asarray(points, dtype=float)
    out = np.zeros(p.shape[:-1] + next(iter(coefs.values())).shape, dtype=complex)
    for k, coef in coefs.items():
        arg = sum((k[a] * p[..., a] for a in range(1, len(k))), k[0] * p[..., 0])
        out += np.exp(1j * arg)[..., None, None] * coef
    return out
