"""Ready-made material descriptions used by the CLI examples and the test
suite.  All are finite trigonometric polynomials."""

import numpy as np

from .fourier import MaterialSpec

_I3 = np.eye(3, dtype=complex)


def identity_material() -> MaterialSpec:
    """Vacuum: eps0 = mu0 = I."""
    return MaterialSpec(eps0={(0, 0, 0): _I3}, mu0={(0, 0, 0): _I3}).validate()


def scaled_identity(eps: float = 4.0, mu: float = 1.0) -> MaterialSpec:
    return MaterialSpec(
        eps0={(0, 0, 0): eps * _I3}, mu0={(0, 0, 0): mu * _I3}
    ).validate()


def layered(amplitude: float = 0.2, axis: int = 0, base: float = 1.0) -> MaterialSpec:
    """eps0(y) = (base + amplitude*cos(y_axis)) * I, mu0 = I."""
    n = [0, 0, 0]
    n[axis] = 1
    half = 0.5 * amplitude * _I3
    eps0 = {(0, 0, 0): base * _I3, tuple(n): half, tuple(-v for v in n): half}
    return MaterialSpec(eps0=eps0, mu0={(0, 0, 0): _I3}).validate()


def layered_anisotropic(axis: int = 0) -> MaterialSpec:
    """Anisotropic layered medium: distinct principal permittivities with a
    cosine modulation along one axis."""
    n = [0, 0, 0]
    n[axis] = 1
    base = np.diag([2.0, 1.5, 1.0]).astype(complex)
    ripple = 0.2 * np.diag([1.0, 0.5, 0.25]).astype(complex)
    eps0 = {(0, 0, 0): base, tuple(n): 0.5 * ripple, tuple(-v for v in n): 0.5 * ripple}
    return MaterialSpec(eps0=eps0, mu0={(0, 0, 0): _I3}).validate()


def with_cos_modulation(spec: MaterialSpec, eta, amplitude: float = 0.1,
                        cell_mode=(0, 0, 0), target: str = "eps1") -> MaterialSpec:
    """Add amplitude*cos(eta.(t,x)) * I (times exp(i cell_mode.y)) to a slow
    modulation channel.  Returns a new validated spec."""
    eta = tuple(float(v) for v in eta)
    neg = tuple(-v for v in eta)
    dim = 6 if target == "lower_order" else 3
    half = 0.5 * amplitude * np.eye(dim, dtype=complex)
    add = {(eta, tuple(cell_mode)): half, (neg, tuple(cell_mode)): half}
    return MaterialSpec(**{**vars(spec), target: {**getattr(spec, target), **add}}).validate()


def with_ohmic_loss(spec: MaterialSpec, sigma: float) -> MaterialSpec:
    """Add a constant conductivity sigma acting on the E block (zero-order term)."""
    m = np.zeros((6, 6), dtype=complex)
    m[:3, :3] = sigma * _I3
    low = dict(spec.lower_order)
    key = ((0.0, 0.0, 0.0, 0.0), (0, 0, 0))
    low[key] = low.get(key, 0.0) + m
    return MaterialSpec(**{**vars(spec), "lower_order": low}).validate()


# the presets and the modulations a run configuration names
PRESETS = {
    "identity": identity_material,
    "scaled_identity": scaled_identity,
    "layered": layered,
    "layered_anisotropic": layered_anisotropic,
}
MODULATIONS = {"cos": with_cos_modulation, "ohmic": with_ohmic_loss}
