"""Independent references for the benchmark's checks.

Nothing here imports blochpacket: each reference is derived from the physics
or from the documented artifact formats, so a check built on it can catch a
fault in the program rather than restate it.

* `Layered1D`: the plane-wave reduction of a layered medium.  For a field
  polarized along a principal axis of a medium that varies along y1 only, the
  Maxwell operator at Bloch frequency theta (with theta3 = 0 and the wave
  polarized perpendicular to the in-plane wavevector) reduces to the scalar
  generalized eigenproblem

      diag((n + theta1)^2 + theta2^2) c = omega^2 T(eps) c,   |n| <= N,

  with T(eps) the Toeplitz matrix of the Fourier coefficients of the
  permittivity component along the polarization.  Group velocity
  V = -grad omega and the in-plane Hessian come from the reduction's own
  Richardson-extrapolated central differences.
* `read_field_dump`: a reader for the `.bwpk` field dumps (16-byte magic,
  little-endian header, complex64 payload in C order).
* `field_energy`: the electromagnetic energy of a dumped (E, B) field on its
  grid, with the permittivity sampled at the fast variable y = x / h.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.linalg

BWPK_MAGIC = b"BWPK-FIELD-DUMP\x00"
# version, component count, grid shape (3), box lengths (3), time, h, theta (3), omega
BWPK_HEADER = np.dtype([
    ("version", "<u4"), ("ncomp", "<u4"), ("shape", "<u4", 3),
    ("lengths", "<f8", 3), ("time", "<f8"), ("h", "<f8"),
    ("theta", "<f8", 3), ("omega", "<f8"),
])


class Layered1D:
    """Scalar plane-wave reduction of a medium layered along y1.

    `eps_coeffs` maps the Fourier index m to the coefficient of exp(i m y1) of
    the permittivity component along the polarization; `cutoff` is N.
    """

    def __init__(self, eps_coeffs: dict, cutoff: int):
        self.n = np.arange(-cutoff, cutoff + 1)
        diff = self.n[:, None] - self.n[None, :]
        self.toeplitz = np.zeros(diff.shape, dtype=complex)
        for m, c in eps_coeffs.items():
            self.toeplitz[diff == m] = c

    def omegas(self, theta1: float, theta2: float = 0.0) -> np.ndarray:
        """Non-negative eigenfrequencies, ascending."""
        kin = np.diag((self.n + theta1) ** 2 + theta2 ** 2).astype(complex)
        w2 = scipy.linalg.eigh(kin, self.toeplitz, eigvals_only=True)
        return np.sqrt(np.clip(w2, 0.0, None))

    def omega(self, theta1: float, theta2: float = 0.0) -> float:
        """Lowest eigenfrequency (band 1 of the reduced problem)."""
        return float(self.omegas(theta1, theta2)[0])

    def velocity(self, theta1: float, theta2: float = 0.0, step: float = 1e-3) -> np.ndarray:
        """(V1, V2) = -grad omega, Richardson-extrapolated central differences."""
        def central(hs):
            w = self.omega
            return np.array([
                (w(theta1 + hs, theta2) - w(theta1 - hs, theta2)) / (2 * hs),
                (w(theta1, theta2 + hs) - w(theta1, theta2 - hs)) / (2 * hs),
            ])
        return -(4 * central(step / 2) - central(step)) / 3

    def hessian(self, theta1: float, theta2: float = 0.0, step: float = 1e-2) -> np.ndarray:
        """2x2 in-plane Hessian of omega, Richardson-extrapolated central
        differences."""
        def central(hs):
            w = lambda a, b: self.omega(theta1 + a, theta2 + b)  # noqa: E731
            w0 = w(0.0, 0.0)
            h11 = (w(hs, 0) - 2 * w0 + w(-hs, 0)) / hs ** 2
            h22 = (w(0, hs) - 2 * w0 + w(0, -hs)) / hs ** 2
            h12 = (w(hs, hs) - w(hs, -hs) - w(-hs, hs) + w(-hs, -hs)) / (4 * hs ** 2)
            return np.array([[h11, h12], [h12, h22]])
        return (4 * central(step / 2) - central(step)) / 3


def read_field_dump(path) -> dict:
    """Parse a `.bwpk` dump; raises ValueError on a malformed file."""
    raw = Path(path).read_bytes()
    if raw[:16] != BWPK_MAGIC:
        raise ValueError(f"{path}: bad magic")
    if len(raw) < 16 + BWPK_HEADER.itemsize:
        raise ValueError(f"{path}: truncated header")
    head = np.frombuffer(raw, dtype=BWPK_HEADER, count=1, offset=16)[0]
    shape = tuple(int(v) for v in head["shape"])
    ncomp = int(head["ncomp"])
    payload = raw[16 + BWPK_HEADER.itemsize:]
    if len(payload) != 8 * ncomp * int(np.prod(shape)):
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, header "
                         f"announces {ncomp} x {shape} complex64 values")
    values = np.frombuffer(payload, dtype="<c8").reshape((ncomp,) + shape)
    return {
        "version": int(head["version"]),
        "values": values.astype(complex),
        "shape": shape,
        "lengths": tuple(float(v) for v in head["lengths"]),
        "time": float(head["time"]),
        "h": float(head["h"]),
        "theta": np.array(head["theta"], dtype=float),
        "omega": float(head["omega"]),
    }


def grid_axis(length: float, points: int) -> np.ndarray:
    """Coordinates of the periodic box [-L/2, L/2) sampled at `points` points
    (a single point sits at 0)."""
    if points == 1:
        return np.zeros(1)
    return -length / 2 + (length / points) * np.arange(points)


def field_energy(dump: dict, eps_diag, h: float) -> float:
    """Energy sum_x (E* eps(x/h) E + |B|^2) dV of a dumped (E, B) field.

    `eps_diag(y1)` returns the three principal permittivities of a medium
    layered along y1 with mu = 1; dV is the grid cell volume.
    """
    e, b = dump["values"][:3], dump["values"][3:]
    x1 = grid_axis(dump["lengths"][0], dump["shape"][0])
    eps = np.asarray(eps_diag(x1 / h))            # (3, M1)
    dv = float(np.prod(np.asarray(dump["lengths"]) / np.asarray(dump["shape"])))
    dens = (eps[:, :, None, None] * np.abs(e) ** 2).sum(axis=0) + (np.abs(b) ** 2).sum(axis=0)
    return float(dens.sum() * dv)
