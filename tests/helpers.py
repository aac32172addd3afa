"""Shared pipeline builders for the test suite."""

import numpy as np

from blochpacket.bands import BlochOperator, build_projectors, solve_bands
from blochpacket.dispersion import hessian
from blochpacket.envelope import EnvelopeGrid, EnvelopeSolution, gaussian_state
from blochpacket.fourier import LatticeCutoff
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
