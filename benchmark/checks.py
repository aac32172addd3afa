"""Checks of the artifacts each workload's commands write.

Every check compares an artifact against `reference.py` (computed without the
program) or against a property the method must have; none compares against a
stored copy of an earlier output.  A check function takes the directory of one
round (one sub-directory per command, named as in `run.WORKLOADS`) and the
config documents the commands ran on, and returns a list of failure messages;
an empty list means the round passed.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from reference import Layered1D, field_energy, read_field_dump

# Principal permittivities of the layered presets, along the layering axis y1,
# as Fourier coefficients {m: coefficient of exp(i m y1)} per axis x, y, z.
# `layered`: (base + amplitude cos y1) I.  `layered_anisotropic`:
# diag(2, 1.5, 1) + 0.2 diag(1, 0.5, 0.25) cos y1.


def principal_eps(material: dict):
    preset = material.get("preset")
    params = material.get("params", {})
    if params.get("axis", 0) != 0:
        raise ValueError("the reference handles media layered along y1 only")
    if preset == "layered":
        base, amp = params.get("base", 1.0), params.get("amplitude", 0.2)
        line = {0: base, 1: amp / 2, -1: amp / 2}
        return [line, line, line]
    if preset == "layered_anisotropic":
        return [{0: b, 1: 0.1 * r, -1: 0.1 * r} for b, r in ((2.0, 1.0), (1.5, 0.5), (1.0, 0.25))]
    raise ValueError(f"no layered reference for preset {preset!r}")


def _eps_diag(material: dict):
    lines = principal_eps(material)
    return lambda y: np.array([sum(c * np.exp(1j * m * y) for m, c in line.items()).real
                               for line in lines])


def _close(fails, label, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    if not err <= tol:
        fails.append(f"{label}: deviation {err:.3e} exceeds {tol:.0e}")


def _band1_rows(path: Path):
    with open(path, newline="") as f:
        rows = [r for r in csv.DictReader(f) if int(r["band_index"]) == 1]
    return [(np.array([float(r["theta1"]), float(r["theta2"]), float(r["theta3"])]),
             float(r["omega"])) for r in rows]


def _check_band1_rows(fails, where: str, bands_csv: Path, ref: Layered1D, expected_thetas):
    """omega of band 1 on every bands.csv row (the start theta, then the
    tracked path) against the 1D reduction, which takes theta2 as the
    transverse wavenumber and needs theta3 = 0."""
    rows = _band1_rows(bands_csv)
    thetas = [t for t, _w in rows]
    if len(rows) != len(expected_thetas) or not np.allclose(thetas, expected_thetas, rtol=0, atol=1e-15):
        fails.append(f"{where}/bands.csv: band-1 rows at {len(rows)} thetas, expected "
                     f"{len(expected_thetas)} along the configured path")
        return
    for theta, omega in rows:
        _close(fails, f"{where}/bands.csv omega at theta={tuple(theta)}", omega,
               ref.omega(theta[0], theta[1]), 1e-12)


def _check_record(fails, where: str, disp: dict, ref: Layered1D):
    """omega, in-plane V and the in-plane Hessian block of a dispersion record
    against the 1D reduction; positive speed margin."""
    th = np.asarray(disp["theta"])
    _close(fails, f"{where}/dispersion.json omega", disp["omega"], ref.omega(th[0], th[1]), 1e-12)
    _close(fails, f"{where}/dispersion.json V[:2]", disp["V"][:2], ref.velocity(th[0], th[1])[:2], 1e-8)
    _close(fails, f"{where}/dispersion.json in-plane Hessian", np.asarray(disp["hessian"])[:2, :2],
           ref.hessian(th[0], th[1])[:2, :2], 1e-6)
    if not disp["speed_margin"] > 0:
        fails.append(f"{where}/dispersion.json: speed margin {disp['speed_margin']} is not positive")


def _path_thetas(doc: dict):
    theta = np.asarray(doc["theta"], dtype=float)
    spec = doc.get("theta_path")
    if not spec:
        return [theta]
    end = np.asarray(spec["to"], dtype=float)
    steps = int(spec.get("steps", 8))
    path = [theta + (end - theta) * s / max(steps - 1, 1) for s in range(steps)]
    return [theta] + path


def check_layered_dispersion(rnd: Path, docs: dict) -> list:
    doc = docs["bands_layered"]
    ref = Layered1D(principal_eps(doc["material"])[2], int(doc["cutoff"]))  # TE: E along z
    fails = []
    _check_band1_rows(fails, "bands", rnd / "bands" / "bands.csv", ref, _path_thetas(doc))
    _check_record(fails, "bands", json.loads((rnd / "bands" / "dispersion.json").read_text()), ref)
    disp = json.loads((rnd / "dispersion" / "dispersion.json").read_text())
    _check_record(fails, "dispersion", disp, ref)
    pert = np.asarray(disp["hessian"])
    fd_doc = json.loads((rnd / "dispersion" / "dispersion_fd_check.json").read_text())
    fd = np.asarray(fd_doc["hessian_fd"])
    _close(fails, "finite-difference vs perturbative Hessian", fd, pert, 1e-6)
    _close(fails, "dispersion_fd_check.json max_abs_deviation", fd_doc["max_abs_deviation"],
           np.max(np.abs(fd - pert)), 1e-15)
    return fails


def _falls_with_h(fails, label, by_h: dict):
    hs = sorted(by_h, reverse=True)
    vals = [by_h[h] for h in hs]
    if not all(a > b > 0 for a, b in zip(vals, vals[1:])):
        fails.append(f"{label}: {vals} does not fall as h falls over {hs}")


def check_oracle_checks(rnd: Path, docs: dict) -> list:
    fails = []
    syn = json.loads((rnd / "validate_identity" / "convergence_summary.json").read_text())
    if syn.get("mode") != "synthesis_oracle":
        fails.append(f"validate_identity: mode {syn.get('mode')!r}, expected synthesis_oracle")
    else:
        if not syn["slope"] >= 0.8:
            fails.append(f"validate_identity: convergence slope {syn['slope']:.3f} < 0.8")
        sup = {float(h): e for h, e in syn["sup_errors"].items()}
        _falls_with_h(fails, "validate_identity sup errors", sup)
        if len(sup) >= 2:
            hs = sorted(sup)
            slope = np.polyfit(np.log(hs), np.log([sup[h] for h in hs]), 1)[0]
            _close(fails, "validate_identity slope vs its sup errors", syn["slope"], slope, 1e-9)

    cert = json.loads((rnd / "validate_modulated" / "convergence_summary.json").read_text())
    if cert.get("mode") != "residual_certificate":
        fails.append(f"validate_modulated: mode {cert.get('mode')!r}, expected residual_certificate")
    else:
        per_h = {float(h): v for h, v in cert["per_h"].items()}
        _falls_with_h(fails, "validate_modulated certificate bounds",
                      {h: v["order_bound"] for h, v in per_h.items()})
        for h, v in per_h.items():
            res = v["residual"]
            for order in ("r-1", "r0", "r1"):
                if not res[order]["abs"] <= 1e-9 * res["r1"]["scale"]:
                    fails.append(f"validate_modulated h={h}: |{order}| = {res[order]['abs']:.3e} "
                                 "is not cancelled")

    doc = docs["oracle_layered"]
    trace = np.loadtxt(rnd / "oracle" / "energy.csv", delimiter=",", skiprows=1, ndmin=2)
    e0 = trace[0, 1]
    drift = np.max(np.abs(trace[:, 1] - e0)) / e0
    if not drift <= 1e-8:
        fails.append(f"oracle/energy.csv: relative energy drift {drift:.3e} exceeds 1e-8")
    for col, name in ((2, "div_eps_E"), (3, "div_mu_B")):
        _close(fails, f"oracle/energy.csv {name} stays constant", trace[:, col],
               np.full(len(trace), trace[0, col]), 1e-8 * np.sqrt(e0))
    t_final = float(doc["time_domain"].get("t_final", 1.0))
    _close(fails, "oracle/energy.csv final time", trace[-1, 0], t_final, 1e-12)
    try:
        dump = read_field_dump(rnd / "oracle" / "time_domain_final.bwpk")
    except (OSError, ValueError) as exc:
        fails.append(str(exc))
        return fails
    h = float(doc["h_list"][0])
    energy = field_energy(dump, _eps_diag(doc["material"]), h)
    _close(fails, "oracle/time_domain_final.bwpk energy vs trace (relative)",
           energy / trace[-1, 1], 1.0, 1e-6)
    _close(fails, "oracle/time_domain_final.bwpk header time/h", [dump["time"], dump["h"]],
           [t_final, h], 1e-12)
    return fails


def check_setup(rnd: Path, doc: dict) -> list:
    """The set-up command runs on vacuum, where omega = |theta| and V = -theta/|theta|."""
    disp = json.loads((rnd / "dispersion.json").read_text())
    theta = np.asarray(doc["theta"], dtype=float)
    fails = []
    _close(fails, "setup omega", disp["omega"], np.linalg.norm(theta), 1e-12)
    _close(fails, "setup V", disp["V"], -theta / np.linalg.norm(theta), 1e-10)
    return fails
