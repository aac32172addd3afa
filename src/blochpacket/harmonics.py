"""Harmonic-resolved fields and semiclassical norms.

A fast-oscillatory field on a periodic box is stored per cell harmonic:

    u(t, x) = sum_n exp(i (theta + n).x / h) D_n(t, x),

with envelope-scale profiles D_n on the box grid at J sample times t_j (one
time is J = 1).  When the carrier frequencies (theta + n)/h are
commensurate with the box (arranged by the validation configs) the
harmonics occupy disjoint frequency ranges, so L2 norms and the
semiclassical seminorms

    || x^beta (h d_x)^delta u(t_j) ||_{L2}

are computed per harmonic and summed, one value per time.  A field holds
only the harmonics that can be nonzero (an absent harmonic is zero), so a
field on one mode class holds that class's modes alone.  The held harmonics
are stacked into one (|held|, J, 6, M1, M2, M3) array and transformed by one
forward FFT over the axes with more than one point, made only when some
pair has a derivative; (h d_x) acts per harmonic as the Fourier symbol
i (theta + n + h k), so every distinct delta costs one inverse FFT of the
stack, for all times and shared by all weights beta.  The polynomial
weight multiplies the envelope values directly, in physical space
(meaningful while the packet stays inside the box).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Dict, List, Tuple

import numpy as np

from .envelope import EnvelopeGrid

Harmonics = Dict[Tuple[int, int, int], np.ndarray]


@dataclass
class HarmonicField:
    """Harmonic-resolved field at the times t: data holds every cell
    harmonic n that can be nonzero, and an absent harmonic is zero.
    difference and seminorm work on any key set."""

    theta: np.ndarray
    h: float
    t: np.ndarray        # (J,)
    grid: EnvelopeGrid
    data: Harmonics      # n -> (J, 6, M1, M2, M3)


def difference(a: HarmonicField, b: HarmonicField) -> HarmonicField:
    if a.h != b.h or a.grid != b.grid or not np.array_equal(a.t, b.t):
        raise ValueError("harmonic fields live on different grids, scales or times")
    keys = set(a.data) | set(b.data)
    out = {}
    for n in keys:
        da = a.data.get(n)
        db = b.data.get(n)
        if da is None:
            out[n] = -db
        elif db is None:
            out[n] = da.copy()
        else:
            out[n] = da - db
    return HarmonicField(a.theta, a.h, a.t, a.grid, out)


def weighted_indices(order: int, axes: Tuple[int, ...]) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """All (beta, delta) pairs with |beta| + |delta| <= order, weights beta
    restricted to the packet's varying axes."""
    symbols = [("x", a) for a in axes] + [("d", a) for a in range(3)]
    out = [((0, 0, 0), (0, 0, 0))]
    for total in range(1, order + 1):
        for combo in combinations_with_replacement(symbols, total):
            beta = [0, 0, 0]
            delta = [0, 0, 0]
            for kind, a in combo:
                if kind == "x":
                    beta[a] += 1
                else:
                    delta[a] += 1
            out.append((tuple(beta), tuple(delta)))
    return sorted(set(out))


def seminorm(field: HarmonicField, pairs) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], np.ndarray]:
    """{(beta, delta): || x^beta (h d_x)^delta u(t_j) ||_{L2}, (J,)} for every
    pair, derivatives applied before weights."""
    grid = field.grid
    keys = list(field.data)
    stack = np.stack([field.data[n] for n in keys])  # (|held|, J, 6, M1, M2, M3)
    carriers = field.theta[None, :] + np.asarray(keys, dtype=float)
    ks = grid.wavenumbers
    xs = grid.meshgrid()
    dv = grid.cell_volume
    pairs = list(pairs)
    deltas = sorted({d for _b, d in pairs})
    hat = grid.fft(stack) if any(map(any, deltas)) else None
    out = {}
    for delta in deltas:
        vals = stack
        if any(delta):
            symbol = np.ones((len(keys),) + grid.shape, dtype=complex)
            for a in range(3):
                if delta[a]:
                    sym_a = 1j * (carriers[:, a, None, None, None] + field.h * ks[a][None])
                    symbol = symbol * sym_a ** delta[a]
            vals = grid.ifft(symbol[:, None, None] * hat)
        density = np.sum(vals.real ** 2 + vals.imag ** 2, axis=(0, 2))  # (J, M1, M2, M3)
        for beta in sorted({b for b, d in pairs if d == delta}):
            weight = np.ones(grid.shape)
            for a in range(3):
                for _ in range(beta[a]):
                    weight = weight * xs[a]
            out[(beta, delta)] = np.sqrt(np.sum(weight ** 2 * density, axis=(1, 2, 3)) * dv)
    return out
