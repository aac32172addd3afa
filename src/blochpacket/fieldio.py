"""Serialization: material descriptions and run artifacts.

Complex scalars are [re, im] pairs and matrices row-major nested lists in all
JSON documents.  Field dumps are binary: a 16-byte magic, a little-endian
header, then the complex64 payload in C order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path
from typing import Dict, List

import numpy as np

from .config import material_from_dict  # noqa: F401  (the reader of material_to_dict's documents)
from .envelope import EnvelopeGrid
from .errors import ConfigError
from .fourier import MaterialSpec

FIELD_MAGIC = b"BWPK-FIELD-DUMP\x00"
FIELD_VERSION = 1


# ---------------------------------------------------------------------------
# Complex JSON helpers
# ---------------------------------------------------------------------------

def encode_complex_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


# ---------------------------------------------------------------------------
# Material description
# ---------------------------------------------------------------------------

def material_to_dict(spec: MaterialSpec) -> dict:
    def base(coefs):
        return [{"n": list(n), "matrix": encode_complex_matrix(m)} for n, m in sorted(coefs.items())]

    def mod(coefs):
        return [
            {"eta": list(eta), "n": list(n), "matrix": encode_complex_matrix(m)}
            for (eta, n), m in sorted(coefs.items())
        ]

    return {
        "eps0": base(spec.eps0),
        "mu0": base(spec.mu0),
        "eps1": mod(spec.eps1),
        "mu1": mod(spec.mu1),
        "lower_order": mod(spec.lower_order),
    }


# ---------------------------------------------------------------------------
# CSV / JSON artifacts
# ---------------------------------------------------------------------------

def write_bands_csv(path, bands) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["theta1", "theta2", "theta3", "band_index", "omega", "kappa"])
        for b in bands:
            w.writerow([f"{b.theta[0]:.17g}", f"{b.theta[1]:.17g}", f"{b.theta[2]:.17g}",
                        b.band_index, f"{b.omega:.17g}", b.kappa])


def write_dispersion_record(path, disp, speed_margin: float) -> None:
    doc = {
        "theta": [float(v) for v in disp.theta],
        "omega": float(disp.omega),
        "V": [float(v) for v in disp.V],
        "hessian": [[float(v) for v in row] for row in disp.hessian],
        "scalar_residual": float(disp.scalar_residual),
        "speed_margin": float(speed_margin),
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def coupling_to_records(modes: Dict) -> List[dict]:
    return [
        {"eta": [float(v) for v in eta], "matrix": encode_complex_matrix(m)}
        for eta, m in sorted(modes.items())
    ]


def write_coupling_json(path, gamma, ray_data, beta_fit) -> None:
    doc = {
        "kappa": gamma.kappa,
        "coupling": coupling_to_records(gamma.modes),
        "ray_average": coupling_to_records(
            {(0.0, *k): m for k, m in ray_data.mean_modes.items()}
        ),
        "fluctuation": coupling_to_records(ray_data.fluctuation_modes),
        "beta": float(ray_data.beta),
        "beta_empirical": float(beta_fit),
        "velocity": [float(v) for v in ray_data.V],
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def write_energy_csv(path, trace) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["t", "energy", "div_eps_E", "div_mu_B"])
        for row in np.asarray(trace):
            w.writerow([f"{v:.17g}" for v in row])


def write_convergence_csv(path, rows) -> None:
    """rows: (h, alpha_label, error)"""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["h", "alpha", "error"])
        for h, alpha, err in rows:
            w.writerow([f"{h:.17g}", alpha, f"{err:.17g}"])


def write_manifest(path, config_doc: dict, command: str) -> None:
    import blochpacket
    import scipy

    digest = hashlib.sha256(
        json.dumps(config_doc, sort_keys=True).encode()
    ).hexdigest()
    doc = {
        "command": command,
        "config_sha256": digest,
        "versions": {
            "blochpacket": blochpacket.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "tolerances": config_doc.get("tolerances", {}),
        "seed": config_doc.get("seed", 0),
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Binary field dumps
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<II3I3ddd3dd")  # version, ncomp, shape, lengths, time, h, theta, omega


def dump_field(path, values: np.ndarray, grid: EnvelopeGrid, time: float = 0.0,
               h: float = 0.0, theta=(0.0, 0.0, 0.0), omega: float = 0.0) -> None:
    """values: (ncomp, M1, M2, M3) complex."""
    values = np.ascontiguousarray(values, dtype=np.complex64)
    with open(path, "wb") as f:
        f.write(FIELD_MAGIC)
        f.write(
            _HEADER.pack(
                FIELD_VERSION,
                values.shape[0],
                *grid.shape,
                *grid.lengths,
                float(time),
                float(h),
                *[float(v) for v in theta],
                float(omega),
            )
        )
        f.write(values.astype("<c8").tobytes(order="C"))


def load_field(path):
    with open(path, "rb") as f:
        magic = f.read(16)
        if magic != FIELD_MAGIC:
            raise ConfigError(f"{path}: not a field dump (bad magic)")
        head = _HEADER.unpack(f.read(_HEADER.size))
        version, ncomp = head[0], head[1]
        if version != FIELD_VERSION:
            raise ConfigError(f"{path}: unsupported dump version {version}")
        shape = head[2:5]
        lengths = head[5:8]
        time, h = head[8], head[9]
        theta = head[10:13]
        omega = head[13]
        payload = np.frombuffer(f.read(), dtype="<c8")
    values = payload.reshape((ncomp,) + tuple(shape)).astype(complex)
    grid = EnvelopeGrid(lengths, shape)
    return {
        "values": values,
        "grid": grid,
        "time": time,
        "h": h,
        "theta": np.asarray(theta),
        "omega": omega,
    }
