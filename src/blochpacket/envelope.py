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
second potential half-step.  With a zero-order-free, real-symmetric
modulation the weighted norm <Pi A0 Pi w, w> is conserved to roundoff.

The periodic box stands in for free space: initial data must sit well inside
(mass fraction in the inner half within 1e-8 of the total) and any step that
pushes more than 1e-6 of the mass into the outer shell aborts with
BoxTooSmall.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    along; they contribute their full length to quadrature weights.
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

    def wave_meshgrid(self):
        return np.meshgrid(*[self.axis_wavenumbers(a) for a in range(3)], indexing="ij")

    @property
    def cell_volume(self) -> float:
        return float(np.prod([L / m for L, m in zip(self.lengths, self.shape)]))

    @property
    def num_points(self) -> int:
        return int(np.prod(self.shape))


def varying_axes(arr: np.ndarray) -> Tuple[int, ...]:
    """The grid axes of arr (its last three) that have more than one point.

    A transform along a size-1 axis is the identity, so these are the only
    axes an FFT of grid data needs.
    """
    return tuple(a for a in (-3, -2, -1) if arr.shape[a] > 1)


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
    ks = grid.wave_meshgrid()
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
    multiplier step from the initial data; otherwise it takes floor(T/dT)
    whole Strang steps (from the latest whole-step state held, or from the
    initial data) and then one step of the remainder, which is never stepped
    on from.  Only the initial and the latest whole-step state are kept.

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
        self._latest = (0, self._initial.values)  # (whole steps, values)
        self._hats = (None, None)  # (T, tables) of the latest T asked for
        self._ks = self.grid.wave_meshgrid()
        self._q = dispersion_form(self.grid, np.asarray(hess, dtype=float))
        # the ray-averaged coupling on the grid, (M1, M2, M3, kappa, kappa)
        self._pot = trig_sum(mean_modes, self.grid.points()) if mean_modes else None
        self._step_ops = self._strang_ops(self.dT) if mean_modes else None

    # -- stepping ----------------------------------------------------------

    def _strang_ops(self, dT: float):
        """Dispersion multiplier and potential half-step exponentials (None
        without a potential) of one Strang step of size dT."""
        mult = np.exp(0.5j * self._q * dT)
        if self._pot is None:
            return mult, None
        half = scipy.linalg.expm(-0.5 * dT * self._pot.reshape(-1, self.kappa, self.kappa))
        return mult, half.reshape(self._pot.shape)

    @staticmethod
    def _strang(w: np.ndarray, ops) -> np.ndarray:
        mult, half = ops
        if half is not None:
            w = np.einsum("xyzab,bxyz->axyz", half, w)
        axes = varying_axes(w)
        w = np.fft.ifftn(mult[None, ...] * np.fft.fftn(w, axes=axes), axes=axes)
        if half is not None:
            w = np.einsum("xyzab,bxyz->axyz", half, w)
        return w

    def state_at(self, T: float) -> EnvelopeState:
        T = float(T)
        elapsed = T - self._initial.T
        if elapsed < 0:
            raise ValueError(f"T={T} precedes the initial data at T={self._initial.T}")
        # a potential-free flow is exact: no whole steps, one step of all of T
        nfull = 0 if self._pot is None else int(np.floor(elapsed / self.dT + 1e-12))
        n, w = self._latest if self._latest[0] <= nfull else (0, self._initial.values)
        for _ in range(nfull - n):
            w = self._strang(w, self._step_ops)
        self._latest = (nfull, w)
        rem = elapsed - nfull * self.dT
        if rem > 1e-14:
            w = self._strang(w, self._strang_ops(rem))
        out = EnvelopeState(self.grid, w, T)
        shell = _mass_profile(out)[1]
        if shell > SHELL_MASS_TOL:
            raise BoxTooSmall(f"envelope mass reached the box boundary "
                              f"(shell fraction {shell:.3e})")
        return out

    # -- spectral derivative fields -----------------------------------------

    def _hat_tables(self, T: float):
        """Spectra of w, d_T w and d_T^2 w at T; only the latest T is kept,
        since every caller walks its times in order."""
        if self._hats[0] == T:
            return self._hats[1]
        w = self.state_at(T).values
        c0 = np.fft.fftn(w, axes=varying_axes(w))
        hats = [c0]
        for _ in range(2):
            hats.append(self._slow_derivative(hats[-1]))
        self._hats = (T, hats)
        return hats

    def _slow_derivative(self, chat: np.ndarray) -> np.ndarray:
        """d/dT in Fourier space through the evolution equation."""
        out = 0.5j * self._q[None] * chat
        if self._pot is not None:
            axes = varying_axes(chat)
            vals = np.fft.ifftn(chat, axes=axes)
            pot_vals = np.einsum("xyzab,bxyz->axyz", self._pot, vals)
            out = out - np.fft.fftn(pot_vals, axes=axes)
        return out

    def field_hat(self, component: int, tder: int, alpha, T: float) -> np.ndarray:
        """Fourier coefficients of (d/dT)^tder d^alpha w_component at time T."""
        hats = self._hat_tables(T)
        if tder >= len(hats):
            base = hats[-1]
            for _ in range(tder - len(hats) + 1):
                base = self._slow_derivative(base)
            hat = base[component]
        else:
            hat = hats[tder][component]
        for a in range(3):
            for _ in range(int(alpha[a])):
                hat = 1j * self._ks[a] * hat
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
