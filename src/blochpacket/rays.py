"""Coupling of the slow modulations to the tracked eigenspace, its average
along group-velocity rays, and the accumulated fluctuation integral.

The coupling field is the kappa x kappa map

    gamma(t, x) = (Pi A0 Pi)^{-1} Pi (i omega A0^1(t,x) + M(t,x)) Pi,

a finite trigonometric polynomial sum_eta a_eta exp(i eta.(t,x)) because the
modulations are.  Splitting its modes by the ray divisor eta.(1, V) gives

  * resonant modes (divisor = 0): the ray average, a function of x - V t,
  * non-resonant modes: integrated exactly along rays into g(t, x) with
    g(0, x) = 0, solving (d_t + V.d_x) g = gamma - mean(x - V t).

For finite sums g is bounded, so the growth exponent beta is 0; empirical_beta
estimates the exponent numerically as a cross-check and as the hook for
richer almost-periodic coefficient classes.  The field and its parts are
coefficient maps only; fourier.trig_sum evaluates them at points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .bands import BlochBand, BlochOperator
from .dispersion import projected_mass
from .errors import BetaFitError, SmallDivisorWarning
from .fourier import modulation_apply, trig_sum

Eta = Tuple[float, float, float, float]

EXACT_RESONANCE_TOL = 1e-13
DEFAULT_DIVISOR_TOL = 1e-9
# empirical_beta: ray origins, and quadrature steps per period of the fastest
# ray oscillation
BETA_RAY_ORIGINS = (np.zeros(3), np.array([0.7, -0.3, 0.2]), np.array([-1.1, 0.4, 0.9]))
BETA_STEPS_PER_PERIOD = 64


@dataclass
class CouplingField:
    """Finitely supported map eta -> kappa x kappa matrix: the coupling as a
    trigonometric polynomial in (t, x)."""

    modes: Dict[Eta, np.ndarray]
    kappa: int


@dataclass
class RayAverageData:
    """Resonant/non-resonant split of a coupling field along rays.

    mean_modes: spatial frequency -> kappa x kappa; the ray average as a
        function of the comoving coordinate x - V t.
    fluctuation_modes: eta -> raw coupling coefficient of each non-resonant
        mode (divisors are applied by fluctuation_terms, so the two parts
        partition the field's modes exactly).
    beta: growth exponent of the fluctuation integral; 0 for finite sums.
    """

    V: np.ndarray
    kappa: int
    mean_modes: Dict[Tuple[float, float, float], np.ndarray]
    fluctuation_modes: Dict[Eta, np.ndarray]
    beta: float = 0.0

    def fluctuation_terms(self) -> List[Tuple[Eta, np.ndarray]]:
        """(eta, a_eta / (i eta.(1,V))) pairs: the closed-form g, the exact
        integral of the non-resonant part along rays with g(0, x) = 0, as the
        difference of a full-phase and a comoving-phase trigonometric sum."""
        return [
            (eta, a / (1j * _ray_divisor(eta, self.V)))
            for eta, a in self.fluctuation_modes.items()
        ]


def _ray_divisor(eta, V) -> float:
    return float(eta[0] + np.dot(eta[1:], V))


# ---------------------------------------------------------------------------
# Coupling assembly
# ---------------------------------------------------------------------------

def build_gamma(band: BlochBand, op: BlochOperator) -> CouplingField:
    """Assemble the coupling field, one (t, x)-frequency eta of the
    modulations at a time.

    The y-multiplication operator i*omega*A0^1(eta,.) + M(eta,.) is applied
    to all kappa band eigenvectors in one modulation_apply, sandwiched
    between them (all integrals done in coefficient space) and premultiplied
    by the inverse of the projected mass matrix.
    """
    psi = band.eigvecs
    n = projected_mass(band, op)
    modes: Dict[Eta, np.ndarray] = {}
    for eta in op.spec.modulation_frequencies():
        a01, low = modulation_apply(op.spec, eta, op.cutoff, psi)
        modes[eta] = np.linalg.solve(n, psi.conj().T @ (1j * band.omega * a01 + low))
    return CouplingField(modes=modes, kappa=band.kappa)


# ---------------------------------------------------------------------------
# Ray averaging
# ---------------------------------------------------------------------------

def ray_average(gamma: CouplingField, V, divisor_tol: float = DEFAULT_DIVISOR_TOL) -> RayAverageData:
    """Partition the coupling modes by the ray divisor eta.(1, V).

    Exactly resonant modes form the ray average (re-expressed in x - V t);
    modes with divisor >= divisor_tol integrate into the fluctuation part.
    Modes caught in between are nearly resonant: averaging them would hide a
    slowly accumulating drift, so they are a hard error (SmallDivisorWarning)
    and the caller must refine the setup.
    """
    V = np.asarray(V, dtype=float)
    mean: Dict[Tuple[float, float, float], np.ndarray] = {}
    fluct: Dict[Eta, np.ndarray] = {}
    offenders = []
    for eta, a in gamma.modes.items():
        div = _ray_divisor(eta, V)
        scale = max(1.0, float(np.linalg.norm(eta)) * (1.0 + float(np.linalg.norm(V))))
        if abs(div) <= EXACT_RESONANCE_TOL * scale:
            k = tuple(eta[1:])
            mean[k] = mean.get(k, 0.0) + a
        elif abs(div) < divisor_tol:
            offenders.append((eta, abs(div)))
        else:
            fluct[eta] = a
    if offenders:
        raise SmallDivisorWarning(offenders)
    return RayAverageData(V=V, kappa=gamma.kappa, mean_modes=mean,
                          fluctuation_modes=fluct, beta=0.0)


# ---------------------------------------------------------------------------
# Empirical growth exponent
# ---------------------------------------------------------------------------

def empirical_beta(gamma: CouplingField, data: RayAverageData, T_list) -> float:
    """Numerical estimate of the fluctuation growth exponent.

    data is the ray average of gamma (ray_average), so the exponent reads
    the same partition, at the same divisor tolerance, as the rest of the
    run.  Integrates gamma - mean along rays (trapezoid prefix sums at a
    resolution set by the fastest ray oscillation) and records, per horizon
    T, the running sup of ||g|| over [T/2, T] -- the point value g(T)
    oscillates for bounded fluctuations and would alias phase into the fit.
    The slope of log sup-norm against log T is returned, clipped at zero.
    If the fluctuation vanishes (no non-resonant mode) or is negligible
    (< 1e-12) at every horizon the exponent is 0 by convention; a
    non-finite fit raises BetaFitError.
    """
    V = data.V
    T_list = sorted(float(t) for t in T_list)
    if len(T_list) < 2:
        raise ValueError("need at least two horizons to fit a growth exponent")
    if not data.fluctuation_modes:
        return 0.0

    # fastest oscillation along the ray sets the quadrature resolution
    divisors = [abs(_ray_divisor(eta, V)) for eta in gamma.modes] + [1.0]
    dt = 2 * np.pi / (BETA_STEPS_PER_PERIOD * max(divisors))
    ts = np.linspace(0.0, T_list[-1], int(np.ceil(T_list[-1] / dt)) + 1)

    norms = []
    for x0 in BETA_RAY_ORIGINS:
        mean_x0 = trig_sum(data.mean_modes, x0) if data.mean_modes else 0.0
        vals = trig_sum(gamma.modes, np.column_stack([ts, x0 + V * ts[:, None]])) - mean_x0
        inc = 0.5 * (vals[1:] + vals[:-1]) * (ts[1] - ts[0])
        prefix = np.cumsum(np.concatenate([np.zeros((1,) + inc.shape[1:]), inc]), axis=0)
        norms.append(np.linalg.norm(prefix, axis=(1, 2)))
    gnorm = np.max(norms, axis=0)

    sups = np.array([gnorm[(ts >= T / 2) & (ts <= T)].max() for T in T_list])
    if np.all(sups < 1e-12):
        return 0.0
    slope = np.polyfit(np.log(T_list), np.log(np.maximum(sups, 1e-300)), 1)[0]
    if not np.isfinite(slope):
        raise BetaFitError("growth-exponent fit did not converge")
    return float(max(slope, 0.0))
