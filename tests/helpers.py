"""Shared pipeline builders for the test suite."""

import numpy as np

from blochpacket.bands import BlochOperator, build_projectors, solve_bands
from blochpacket.dispersion import hessian
from blochpacket.envelope import EnvelopeGrid, EnvelopeSolution, gaussian_state
from blochpacket.fourier import FourierField6, LatticeCutoff, apply_curl_block, apply_material
from blochpacket.rays import build_gamma, ray_average
from blochpacket.wkb import build_profiles


class BandPipeline:
    """Band -> projectors -> dispersion -> coupling for one configuration."""

    def __init__(self, spec, cutoff, theta, band_index=1, num_bands=8):
        self.spec = spec
        self.cutoff = LatticeCutoff(cutoff) if not isinstance(cutoff, LatticeCutoff) else cutoff
        self.theta = np.asarray(theta, dtype=float)
        self.op = BlochOperator.build(spec, self.cutoff, self.theta)
        self.bands = solve_bands(self.op, num_bands)
        self.band = next(b for b in self.bands if b.band_index == band_index)
        self.projectors = build_projectors(self.band, self.op)
        self.dispersion = hessian(self.band, self.projectors, self.op)
        self.gamma = build_gamma(self.band, self.op)
        self.ray = ray_average(self.gamma, self.dispersion.V)

    def envelope(self, grid: EnvelopeGrid, widths, weights, dT=1e-3) -> EnvelopeSolution:
        w = np.asarray(weights, dtype=complex)
        init = gaussian_state(grid, widths, w / np.linalg.norm(w))
        return EnvelopeSolution(init, self.dispersion.hessian, self.ray.mean_modes, dT=dT)

    def profiles(self, envelope):
        return build_profiles(self.band, self.projectors, self.dispersion, self.ray,
                              envelope, self.op)


def dense_operator(spec, cutoff, theta):
    """Dense (6K, 6K) A0 and G, one column per unit field through
    apply_material and apply_curl_block: a reference that does not depend on
    how BlochOperator stores them.  Meant for small cutoffs."""
    cutoff = LatticeCutoff(cutoff) if not isinstance(cutoff, LatticeCutoff) else cutoff
    k6 = 6 * cutoff.num_modes
    a0 = np.empty((k6, k6), dtype=complex)
    g = np.empty((k6, k6), dtype=complex)
    for j in range(k6):
        unit = np.zeros(k6, dtype=complex)
        unit[j] = 1.0
        f = FourierField6(cutoff, theta, unit.reshape(-1, 6))
        a0[:, j] = apply_material(spec, "A0", f).flat
        g[:, j] = apply_curl_block(f).flat
    return a0, g
