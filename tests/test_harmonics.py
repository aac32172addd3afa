"""Semiclassical seminorms of harmonic-resolved fields."""

import numpy as np
from helpers import seminorm_reference

from blochpacket.envelope import EnvelopeGrid
from blochpacket.harmonics import HarmonicField, seminorm, weighted_indices


def test_seminorm_matches_per_pair_reference(rng):
    """All pairs from one call agree with the per-pair loop, including
    second derivatives along the size-1 axis (carrier part only there)."""
    grid = EnvelopeGrid((12.0, 2 * np.pi, 9.0), (16, 1, 12))
    modes = [(n1, n2, 0) for n1 in (-1, 0, 1) for n2 in (-1, 0, 1)]
    x0, _x1, x2 = grid.meshgrid()
    envelope = np.exp(-x0**2 / 4 - x2**2 / 3)
    data = {
        n: envelope[None, None] * (rng.standard_normal((1, 6) + grid.shape)
                                   + 1j * rng.standard_normal((1, 6) + grid.shape))
        for n in modes
    }
    field = HarmonicField(np.array([0.3, 0.2, 0.0]), 1 / 8, np.zeros(1), grid, data)
    pairs = weighted_indices(2, (0, 2))
    assert ((0, 0, 0), (0, 2, 0)) in pairs
    got = seminorm(field, pairs)
    assert set(got) == set(pairs)
    for beta, delta in pairs:
        ref = seminorm_reference(field, beta, delta)
        assert abs(got[(beta, delta)] - ref) <= 1e-12 * ref, (beta, delta)


def test_seminorm_with_a_time_axis_equals_per_time_calls(rng):
    """A field at J = 3 times gives, per pair, the values of three one-time
    seminorm calls, bit for bit: one FFT of the whole stack transforms each
    time as its own would."""
    grid = EnvelopeGrid((12.0, 2 * np.pi, 9.0), (16, 1, 12))
    modes = [(0, 0, 0), (1, -1, 0)]
    x0, _x1, x2 = grid.meshgrid()
    envelope = np.exp(-x0**2 / 4 - x2**2 / 3)
    times = np.array([0.0, 0.5, 2.0])
    data = {n: envelope * (rng.standard_normal((3, 6) + grid.shape)
                           + 1j * rng.standard_normal((3, 6) + grid.shape))
            for n in modes}
    theta = np.array([0.3, 0.2, 0.0])
    pairs = weighted_indices(2, (0, 2))
    got = seminorm(HarmonicField(theta, 1 / 8, times, grid, data), pairs)
    for j, t in enumerate(times):
        single = seminorm(HarmonicField(theta, 1 / 8, times[j:j + 1], grid,
                                        {n: d[j:j + 1] for n, d in data.items()}), pairs)
        for bd in pairs:
            assert got[bd].shape == (3,) and got[bd][j] == single[bd][0], (t, bd)
