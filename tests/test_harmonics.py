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
        n: envelope[None] * (rng.standard_normal((6,) + grid.shape)
                             + 1j * rng.standard_normal((6,) + grid.shape))
        for n in modes
    }
    field = HarmonicField(np.array([0.3, 0.2, 0.0]), 1 / 8, 0.0, grid, data)
    pairs = weighted_indices(2, (0, 2))
    assert ((0, 0, 0), (0, 2, 0)) in pairs
    got = seminorm(field, pairs)
    assert set(got) == set(pairs)
    for beta, delta in pairs:
        ref = seminorm_reference(field, beta, delta)
        assert abs(got[(beta, delta)] - ref) <= 1e-12 * ref, (beta, delta)
