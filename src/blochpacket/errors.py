"""Exception types shared across the package.

Three families, matching the CLI exit codes: configuration problems (exit 2),
violations of the structural assumptions the method rests on (exit 3), and
numerical-tolerance failures (exit 4).
"""


class ConfigError(ValueError):
    """Invalid run configuration or material description."""


class MaterialError(ConfigError):
    """Material coefficients fail a structural requirement (symmetry, positivity)."""


class CutoffMismatch(ValueError):
    """Two fields or operators built on different cutoffs / Bloch frequencies."""


class GammaPointError(ValueError):
    """theta = 0 requested.  The transverse splitting and the tracked nonzero
    eigenfrequency both require a nonzero Bloch frequency."""


class HypothesisViolation(RuntimeError):
    """Base class for failures of the structural assumptions (exit code 3)."""


class GapViolation(HypothesisViolation):
    """Spectral gap around the tracked cluster collapsed along a theta path."""

    def __init__(self, theta, gap, gap_tol):
        self.theta = tuple(float(t) for t in theta)
        self.gap = float(gap)
        self.gap_tol = float(gap_tol)
        super().__init__(
            f"cluster gap {gap:.3e} < gap_tol {gap_tol:.3e} at theta={self.theta}"
        )


class MultiplicityInconsistent(HypothesisViolation):
    """Discrete kernel dimension or coupling-form scalarity disagrees with the
    declared multiplicity."""


class SpeedLimitViolation(HypothesisViolation):
    """Computed group velocity exceeds the medium's maximal propagation speed.
    Indicates a solver bug, not physics."""


class SmallDivisorWarning(HypothesisViolation):
    """Coupling modes nearly resonant with the ray direction: 0 < |eta.(1,V)| <
    divisor_tol.  Averaging them silently would be wrong; refine the setup."""

    def __init__(self, offenders):
        self.offenders = list(offenders)
        listed = ", ".join(f"eta={eta} divisor={d:.3e}" for eta, d in self.offenders)
        super().__init__(f"near-resonant coupling modes: {listed}")


class NumericalFailure(RuntimeError):
    """Base class for tolerance failures (exit code 4)."""


class BoxTooSmall(NumericalFailure):
    """Envelope mass reached the periodic box boundary."""


class BandResidualError(NumericalFailure):
    """A band's eigenvector residual is too large to build its projectors on."""


class GaugeError(NumericalFailure):
    """Eigenvector gauge alignment across quadrature nodes lost continuity."""


class StabilityAnomaly(NumericalFailure):
    """Time-domain energy grew beyond the admissible bound."""


class BetaFitError(NumericalFailure):
    """Ray-average exponent fit did not converge."""
