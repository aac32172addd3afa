"""Slowly varying envelope dynamics on a periodic box.

The kappa-component envelope field obeys

    d_T w + (i/2) q(d_x, d_x) w + mean(x) w = 0,

with q the dispersion Hessian contracted with gradients and mean(x) the
ray-averaged coupling, expressed in the comoving coordinate (the packet is
advected outside this module; here the frame moves with the group velocity,
so no advection appears on the grid).

Integration is Strang splitting: half-step of the local kappa x kappa
potential by matrix exponential, a full dispersion step that is exact and
exactly unitary in Fourier space (multiplier exp(+i q(k,k) dT / 2)), then the
second potential half-step (the half-steps where two whole steps meet are
applied as one, see EnvelopeSolution).  With a zero-order-free, real-symmetric
modulation the weighted norm <Pi A0 Pi w, w> is conserved to roundoff.

The periodic box stands in for free space: initial data must sit well inside
(mass fraction in the inner half within 1e-8 of the total) and any step that
pushes more than 1e-6 of the mass into the outer shell aborts with
BoxTooSmall.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.linalg

from .errors import BoxTooSmall
from .fourier import trig_sum

INNER_MASS_TOL = 1e-8
SHELL_MASS_TOL = 1e-6


@dataclass(frozen=True)
class EnvelopeGrid:
    """Periodic box [-L_a/2, L_a/2) with shape[a] points per axis.

    Axes with a single point represent directions the envelope does not vary
    along; they contribute their full length to quadrature weights.  The
    grid plans the transforms of its data (arrays whose last three axes are
    the grid's): fft and ifft run over the varying axes only, since a
    transform along a one-point axis is the identity (plain fft and ifft
    when one axis varies, the same bits as fftn and ifftn at less call
    overhead), and wavenumbers is their table, built once.
    """

    lengths: Tuple[float, float, float]
    shape: Tuple[int, int, int]

    def __init__(self, lengths, shape):
        object.__setattr__(self, "lengths", tuple(float(v) for v in lengths))
        object.__setattr__(self, "shape", tuple(int(v) for v in shape))
        if len(self.lengths) != 3 or len(self.shape) != 3:
            raise ValueError("grid needs 3 lengths and 3 sizes")
        if any(m < 1 for m in self.shape):
            raise ValueError("grid sizes must be positive")

    def axis_coords(self, a: int) -> np.ndarray:
        m, L = self.shape[a], self.lengths[a]
        if m == 1:
            return np.zeros(1)
        return -L / 2 + (L / m) * np.arange(m)

    def axis_wavenumbers(self, a: int) -> np.ndarray:
        m, L = self.shape[a], self.lengths[a]
        return 2.0 * np.pi * np.fft.fftfreq(m, d=L / m)

    def meshgrid(self):
        return np.meshgrid(*[self.axis_coords(a) for a in range(3)], indexing="ij")

    def points(self) -> np.ndarray:
        """(M1, M2, M3, 3) stacked coordinates of the grid points."""
        return np.stack(self.meshgrid(), axis=-1)

    @cached_property
    def wavenumbers(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three (M1, M2, M3) wavenumber arrays of the transforms,
        read-only."""
        ks = np.meshgrid(*[self.axis_wavenumbers(a) for a in range(3)], indexing="ij")
        for k in ks:
            k.flags.writeable = False
        return tuple(ks)

    @cached_property
    def varying(self) -> Tuple[int, ...]:
        """The axes with more than one point, counted from the end of grid
        data (-3, -2, -1)."""
        return tuple(a for a in (-3, -2, -1) if self.shape[a] > 1)

    def fft(self, arr: np.ndarray) -> np.ndarray:
        axes = self.varying
        return np.fft.fft(arr, axis=axes[0]) if len(axes) == 1 else np.fft.fftn(arr, axes=axes)

    def ifft(self, arr: np.ndarray) -> np.ndarray:
        axes = self.varying
        return np.fft.ifft(arr, axis=axes[0]) if len(axes) == 1 else np.fft.ifftn(arr, axes=axes)

    @property
    def cell_volume(self) -> float:
        return float(np.prod([L / m for L, m in zip(self.lengths, self.shape)]))

    @property
    def num_points(self) -> int:
        return int(np.prod(self.shape))


@dataclass
class EnvelopeState:
    """kappa-component complex field on the grid at slow time T."""

    grid: EnvelopeGrid
    values: np.ndarray  # (kappa, M1, M2, M3)
    T: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape[1:] != self.grid.shape:
            raise ValueError(f"field shape {self.values.shape} does not match grid {self.grid.shape}")

    @property
    def kappa(self) -> int:
        return self.values.shape[0]

    def copy(self) -> "EnvelopeState":
        return EnvelopeState(self.grid, self.values.copy(), self.T)


# ---------------------------------------------------------------------------
# Dispersion table
# ---------------------------------------------------------------------------

def dispersion_form(grid: EnvelopeGrid, hess: np.ndarray) -> np.ndarray:
    """q(k, k) = sum_ij hess_ij k_i k_j on the grid's wavenumbers."""
    ks = grid.wavenumbers
    q = np.zeros(grid.shape)
    for i in range(3):
        for j in range(3):
            if hess[i, j] != 0.0:
                q = q + hess[i, j] * ks[i] * ks[j]
    return q


def _mass_profile(state: EnvelopeState):
    dens = np.sum(np.abs(state.values) ** 2, axis=0)
    total = float(dens.sum())
    if total == 0.0:
        return 1.0, 0.0
    inner = np.ones(state.grid.shape, dtype=bool)
    shell = np.zeros(state.grid.shape, dtype=bool)
    for a in range(3):
        if state.grid.shape[a] == 1:
            continue
        x = state.grid.axis_coords(a)
        L = state.grid.lengths[a]
        sel_in = np.abs(x) <= L / 4
        sel_sh = np.abs(x) > 3 * L / 8
        sh = [1, 1, 1]
        sh[a] = -1
        inner &= sel_in.reshape(sh)
        shell |= sel_sh.reshape(sh)
    return float(dens[inner].sum() / total), float(dens[shell].sum() / total)


def weighted_norm(state: EnvelopeState, weight: np.ndarray) -> float:
    """Grid quadrature of <W w, w> with a constant kappa x kappa weight
    (typically the projected mass matrix Pi A0 Pi)."""
    w = state.values
    val = np.einsum("axyz,ab,bxyz->", np.conj(w), np.asarray(weight), w)
    return float(np.real(val) * state.grid.cell_volume)


def apply_grid_blocks(blocks: np.ndarray, w: np.ndarray) -> np.ndarray:
    """A (kappa, kappa, M1, M2, M3) block stack applied to a (kappa, M1, M2,
    M3) field by multiply-adds over kappa."""
    out = blocks[:, 0] * w[0]
    for j in range(1, len(w)):
        out += blocks[:, j] * w[j]
    return out


def gaussian_state(grid: EnvelopeGrid, widths, weights) -> EnvelopeState:
    """Packet exp((-x_a^2 / (2 widths_a^2)) summed over varying axes) times the
    kappa-component weight vector.  Axes with one grid point are skipped."""
    weights = np.asarray(weights, dtype=complex)
    xs = grid.meshgrid()
    expo = np.zeros(grid.shape)
    for a in range(3):
        if grid.shape[a] > 1:
            expo = expo - xs[a] ** 2 / (2.0 * float(widths[a]) ** 2)
    prof = np.exp(expo)
    return EnvelopeState(grid, weights[:, None, None, None] * prof[None, ...])


# ---------------------------------------------------------------------------
# On-demand solution with spectral field access (consumed by the multi-scale
# assembly)
# ---------------------------------------------------------------------------

class EnvelopeSolution:
    """Envelope initial-value problem with lazy stepping and spectral access
    to derivative fields.

    state_at(T) is a function of T alone: a potential-free flow is one exact
    multiplier step from the initial data; otherwise it takes n = floor(T/dT)
    whole Strang steps H D H and then one step of the remainder, which is
    never stepped on from.  Half-steps where two steps meet are fused: n
    steps are H D (F D)^(n-1) H with F = H H = expm(-dT P), and the state
    held is u_n = D (F D)^(n-1) H w_0 (w_n = H u_n) for the furthest n asked
    for (a query that goes back walks from w_0 and keeps it), so a further
    step is one block product and one FFT pair (_whole_step), all planned
    here.

    Provides, at any slow time T, the Fourier coefficients of
    (d/dT)^m d^alpha w_a, where d/dT is evaluated through the equation
    (dispersion multiplier plus potential product) so repeated slow-time
    derivatives of all spatial derivatives are exact on the grid.

    The box guards do not depend on the order of queries: containment is
    checked once, on the initial data, and the shell on every state returned.
    """

    def __init__(self, initial: EnvelopeState, hess: np.ndarray,
                 mean_modes: Optional[Dict], dT: float = 1e-3):
        self.grid = initial.grid
        self.dT = float(dT)
        self.kappa = initial.kappa
        outside = 1.0 - _mass_profile(initial)[0]
        if outside > INNER_MASS_TOL:
            raise BoxTooSmall(f"initial envelope is not contained in the inner half-box "
                              f"(outside fraction {outside:.3e})")
        self._initial = initial.copy()
        self._latest = (0, self._initial.values)  # (n, u_n), w_0 for n = 0
        self._hats = (None, None)  # (T, table) of the latest T asked for
        self._q = dispersion_form(self.grid, np.asarray(hess, dtype=float))
        self._mult = np.exp(0.5j * self._q * self.dT)
        self._pot = None
        if mean_modes:
            # the ray-averaged coupling P on the grid, H and F, as block stacks
            self._pot = np.ascontiguousarray(
                np.moveaxis(trig_sum(mean_modes, self.grid.points()), (-2, -1), (0, 1)))
            self._half = self._potential_step(0.5 * self.dT)
            self._whole = (self._half[:, :, None] * self._half[None]).sum(axis=1)  # F = H H

    # -- stepping ----------------------------------------------------------

    def _potential_step(self, dT: float) -> np.ndarray:
        """expm(-dT P) at each grid point, as a (kappa, kappa, M1, M2, M3)
        block stack."""
        pot = np.moveaxis(self._pot, (0, 1), (-2, -1))
        return np.ascontiguousarray(np.moveaxis(scipy.linalg.expm(-dT * pot), (-2, -1), (0, 1)))

    def _dispersed(self, w: np.ndarray, mult: np.ndarray) -> np.ndarray:
        """The exact dispersion step with multiplier mult: one FFT pair."""
        return self.grid.ifft(mult[None, ...] * self.grid.fft(w))

    def _whole_step(self, u: np.ndarray, block: np.ndarray) -> np.ndarray:
        """One fused whole step D (block u): block is H from the initial data,
        F from a held u_n."""
        return self._dispersed(apply_grid_blocks(block, u), self._mult)

    def state_at(self, T: float) -> EnvelopeState:
        T = float(T)
        elapsed = T - self._initial.T
        if elapsed < 0:
            raise ValueError(f"T={T} precedes the initial data at T={self._initial.T}")
        # a potential-free flow is exact: no whole steps, one step of all of T
        nfull = 0 if self._pot is None else int(np.floor(elapsed / self.dT + 1e-12))
        n, u = self._latest if self._latest[0] <= nfull else (0, self._initial.values)
        for i in range(n, nfull):
            u = self._whole_step(u, self._whole if i else self._half)
        if nfull >= self._latest[0]:
            self._latest = (nfull, u)
        w = apply_grid_blocks(self._half, u) if nfull else u
        rem = elapsed - nfull * self.dT
        if rem > 1e-14:
            mult = np.exp(0.5j * self._q * rem)
            if self._pot is None:
                w = self._dispersed(w, mult)
            else:
                half = self._potential_step(0.5 * rem)
                w = apply_grid_blocks(half, self._dispersed(apply_grid_blocks(half, w), mult))
        out = EnvelopeState(self.grid, w, T)
        shell = _mass_profile(out)[1]
        if shell > SHELL_MASS_TOL:
            raise BoxTooSmall(f"envelope mass reached the box boundary "
                              f"(shell fraction {shell:.3e})")
        return out

    # -- spectral derivative fields -----------------------------------------

    def _hat_tables(self, T: float, tder: int):
        """Spectra of w, d_T w, ..., d_T^tder w at T, one table grown to the
        order asked; only the latest T is kept, since every caller walks its
        times in order."""
        if self._hats[0] != T:
            self._hats = (T, [self.grid.fft(self.state_at(T).values)])
        hats = self._hats[1]
        while len(hats) <= tder:
            hats.append(self._slow_derivative(hats[-1]))
        return hats

    def _slow_derivative(self, chat: np.ndarray) -> np.ndarray:
        """d/dT in Fourier space through the evolution equation."""
        out = 0.5j * self._q[None] * chat
        if self._pot is not None:
            out = out - self.grid.fft(apply_grid_blocks(self._pot, self.grid.ifft(chat)))
        return out

    def field_hat(self, component: int, tder: int, alpha, T: float) -> np.ndarray:
        """Fourier coefficients of (d/dT)^tder d^alpha w_component at time T."""
        hat = self._hat_tables(T, tder)[tder][component]
        for a in range(3):
            for _ in range(int(alpha[a])):
                hat = 1j * self.grid.wavenumbers[a] * hat
        return hat

    def eval_hats_at(self, hats, points: np.ndarray) -> np.ndarray:
        """Evaluate Fourier-coefficient arrays (a sequence of (M1, M2, M3)
        arrays, one per field) at arbitrary points (P, 3); returns (n, P).

        Direct (nonuniform) Fourier summation, exact for the band-limited
        grid representation; points are interpreted periodically.  The
        per-axis factors exp(i (x - x0) k) are built once for all fields;
        each field is contracted on its own (an all-field product would hold
        n times the intermediate), longest axis first by a matrix product.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        order = tuple(int(a) for a in np.argsort(self.grid.shape, kind="stable")[::-1])
        m_long, m_mid, m_short = (self.grid.shape[a] for a in order)
        # FFT coefficients are relative to the first grid point, not x = 0
        e_long, e_mid, e_short = (
            np.exp(1j * np.outer(pts[:, a] - self.grid.axis_coords(a)[0],
                                 self.grid.axis_wavenumbers(a)))
            for a in order
        )
        out = np.empty((len(hats), len(pts)), dtype=complex)
        for i, hat in enumerate(hats):
            tmp = e_long @ np.transpose(hat, order).reshape(m_long, -1)
            tmp = tmp.reshape(len(pts), m_mid, m_short) @ e_short[:, :, None]
            out[i] = (tmp[..., 0] * e_mid).sum(axis=1)
        return out / self.grid.num_points
