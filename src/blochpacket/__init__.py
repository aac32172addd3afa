"""Spectral toolkit for waves in 3D periodic Maxwell media: Bloch band
structure, group velocity and dispersion, slowly varying envelope dynamics,
and multi-scale wave-packet assembly with residual verification."""

from .fourier import LatticeCutoff, MaterialSpec
from .bands import (
    BlochBand,
    BlochOperator,
    ProjectorPair,
    build_projectors,
    solve_bands,
    track_band,
)
from .dispersion import (
    DispersionData,
    fd_group_velocity,
    fd_hessian,
    group_velocity,
    hessian,
    speed_limit_check,
)
from .rays import CouplingField, RayAverageData, build_gamma, empirical_beta, ray_average
from .envelope import (
    EnvelopeGrid,
    EnvelopeSolution,
    EnvelopeState,
    gaussian_state,
    weighted_norm,
)
from .wkb import ProfileSet, WKBField, assemble, assemble_harmonics, build_profiles, residual
from .oracles import (
    ExactPacketSpec,
    chebyshev_solve,
    exact_constant_solution,
    synthesize_exact_packet,
    time_domain_solve,
)

__all__ = [
    "LatticeCutoff",
    "MaterialSpec",
    "BlochBand",
    "BlochOperator",
    "ProjectorPair",
    "build_projectors",
    "solve_bands",
    "track_band",
    "DispersionData",
    "fd_group_velocity",
    "fd_hessian",
    "group_velocity",
    "hessian",
    "speed_limit_check",
    "CouplingField",
    "RayAverageData",
    "build_gamma",
    "empirical_beta",
    "ray_average",
    "EnvelopeGrid",
    "EnvelopeSolution",
    "EnvelopeState",
    "gaussian_state",
    "weighted_norm",
    "ProfileSet",
    "WKBField",
    "assemble",
    "assemble_harmonics",
    "build_profiles",
    "residual",
    "ExactPacketSpec",
    "chebyshev_solve",
    "exact_constant_solution",
    "synthesize_exact_packet",
    "time_domain_solve",
]

__version__ = "0.1.0"
