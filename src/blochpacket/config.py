"""Run configuration: a single JSON document driving every CLI command."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from . import presets
from .bands import MAX_TRACK_STEP
from .envelope import EnvelopeGrid
from .errors import ConfigError
from .fieldio import material_from_dict
from .fourier import LatticeCutoff, MaterialSpec

DEFAULT_TOLERANCES = {
    "gap_tol": 1e-6,
    "divisor_tol": 1e-9,
    "scalar_tol": 1e-8,
}
# the settable keys of each config section; a dotted name is a nested section
SECTION_KEYS = {
    "packet": ("widths", "weights", "axes", "support_sigmas"),
    "band": ("index", "omega_target", "kappa"),
    "grid": ("lengths", "shape"),
    "time_domain": ("grid", "t_final", "dt", "cfl"),
    "time_domain.grid": ("lengths", "shape"),
    "theta_path": ("to", "steps"),
    "tolerances": tuple(DEFAULT_TOLERANCES),
}


@dataclass
class PacketConfig:
    widths: Tuple[float, float, float] = (1.0, 1.5, 1.0)
    weights: Optional[np.ndarray] = None   # None: first basis vector
    axes: Tuple[int, ...] = (1,)
    support_sigmas: float = 6.0


@dataclass
class RunConfig:
    material: MaterialSpec
    cutoff: LatticeCutoff
    theta: np.ndarray
    band_selector: dict
    num_bands: int
    packet: PacketConfig
    h_list: Tuple[float, ...]
    horizon: float
    grid: EnvelopeGrid
    envelope_dT: float
    tolerances: dict
    seeding: str
    seed: int
    output: str
    time_domain_grid: EnvelopeGrid  # time_domain.grid, or grid when absent
    t_final: float                  # time_domain.t_final
    dt: Optional[float]             # time_domain.dt; None: from the CFL number
    cfl: float                      # time_domain.cfl
    theta_path: Tuple[np.ndarray, ...] = ()  # points tracked by `bands`, theta first
    raw: dict = field(default_factory=dict)


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _section(doc: dict, name: str, keys) -> dict:
    """The section at a dotted name ({} when absent); a key not in `keys` is refused."""
    section = doc
    for part in name.split("."):
        section = section.get(part, {})
        _require(isinstance(section, dict), f"{name} must be a JSON object")
    unknown = set(section) - set(keys)
    _require(not unknown, f"unknown {name} keys {sorted(unknown)}; settable: {sorted(keys)}")
    return section


def _grid(doc: dict, name: str) -> EnvelopeGrid:
    _require("lengths" in doc and "shape" in doc, f"{name} needs 'lengths' and 'shape'")
    try:
        return EnvelopeGrid(doc["lengths"], doc["shape"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _number(value, key: str) -> float:
    """value as a float, or a ConfigError naming the key."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from exc


def _positive(value, key: str) -> float:
    """value as a finite positive float, or a ConfigError naming the key."""
    num = _number(value, key)
    _require(0 < num < np.inf, f"{key}: expected a finite positive number, got {value!r}")
    return num


def _integer(value, key: str, low: Optional[int] = None) -> int:
    """value as an integer (no smaller than `low` when given), or a
    ConfigError naming the key."""
    num = _number(value, key)
    _require(num.is_integer() and (low is None or num >= low),
             f"{key}: expected an integer{'' if low is None else f' >= {low}'}, got {value!r}")
    return int(num)


def _theta_path(section: dict, theta: np.ndarray) -> Tuple[np.ndarray, ...]:
    """`steps` evenly spaced points from theta to theta_path.to, both ends
    included (none when the section is absent or empty)."""
    if not section:
        return ()
    _require("to" in section, "theta_path needs 'to'")
    try:
        end = np.asarray(section["to"], dtype=float)
    except (TypeError, ValueError):
        end = None
    _require(end is not None and end.shape == (3,) and np.all(np.isfinite(end)),
             f"theta_path.to: expected 3 numbers, got {section['to']!r}")
    steps = _integer(section.get("steps", 8), "theta_path.steps", 1)
    path = tuple(theta + (end - theta) * s / max(steps - 1, 1) for s in range(steps))
    step = max((np.linalg.norm(b - a) for a, b in zip(path[:-1], path[1:])), default=0.0)
    _require(step <= MAX_TRACK_STEP, f"theta_path.steps: a step of {step:.4g} exceeds "
             f"the tracking bound {MAX_TRACK_STEP}")
    return path


def load_config(path) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc, base_dir=Path(path).parent)


def parse_config(doc: dict, base_dir: Optional[Path] = None) -> RunConfig:
    sections = {name: _section(doc, name, keys) for name, keys in SECTION_KEYS.items()}
    material = _parse_material(doc.get("material"), base_dir)
    try:
        cutoff = LatticeCutoff(doc.get("cutoff", 1))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    theta = np.asarray(doc.get("theta", [0.3, 0.0, 0.0]), dtype=float)
    _require(theta.shape == (3,), "theta must have 3 components")
    _require(np.any(theta != 0.0), "theta must be nonzero (the tracked band needs a nonzero Bloch frequency)")
    _require(np.all((theta >= 0.0) & (theta < 1.0)), "theta components must lie in [0, 1)")

    h_list = tuple(_number(h, "h_list") for h in doc.get("h_list", [1 / 8, 1 / 16, 1 / 32]))
    _require(len(h_list) >= 1 and all(h > 0 for h in h_list), "h_list must contain positive scales")
    _require(all(a > b for a, b in zip(h_list, h_list[1:])), "h_list must be strictly decreasing")

    tol = {**DEFAULT_TOLERANCES, **sections["tolerances"]}
    for name, val in tol.items():
        _require(isinstance(val, (int, float)) and val > 0, f"tolerance {name} must be positive")

    horizon = _positive(doc.get("horizon", 1.0), "horizon")
    envelope_dT = _positive(doc.get("envelope_dT", 1e-3), "envelope_dT")

    grid = _grid(doc.get("grid", {"lengths": [16 * np.pi] * 3, "shape": [1, 192, 1]}), "grid")
    td = sections["time_domain"]
    td_grid = _grid(td["grid"], "time_domain.grid") if "grid" in td else grid

    pk = sections["packet"]
    weights = pk.get("weights")
    if weights is not None:
        _require(all(isinstance(c, list) and len(c) == 2 for c in weights),
                 "packet.weights entries must be [re, im] pairs")
        weights = np.array([complex(_number(re, "packet.weights"), _number(im, "packet.weights"))
                            for re, im in weights])
    widths = pk.get("widths", [1.0, 1.5, 1.0])
    _require(isinstance(widths, list) and len(widths) == 3,
             f"packet.widths: expected 3 positive numbers, got {widths!r}")
    axes = pk.get("axes", [1])
    _require(isinstance(axes, list) and axes and all(a in (0, 1, 2) for a in axes),
             f"packet.axes: expected a nonempty list of axes in {{0, 1, 2}}, got {axes!r}")
    packet = PacketConfig(
        widths=tuple(_positive(w, "packet.widths") for w in widths),
        weights=weights,
        axes=tuple(int(a) for a in axes),
        support_sigmas=_positive(pk.get("support_sigmas", 6.0), "packet.support_sigmas"),
    )

    band = dict(doc.get("band", {"index": 1}))
    for key, read in (("index", _integer), ("omega_target", _number), ("kappa", _integer)):
        if key in band:
            band[key] = read(band[key], f"band.{key}")

    seeding = doc.get("seeding", "full_profile")
    _require(seeding in ("full_profile", "leading_only"),
             "seeding must be 'full_profile' or 'leading_only'")

    return RunConfig(
        material=material,
        cutoff=cutoff,
        theta=theta,
        band_selector=band,
        num_bands=_integer(doc.get("num_bands", 8), "num_bands", 1),
        packet=packet,
        h_list=h_list,
        horizon=horizon,
        grid=grid,
        envelope_dT=envelope_dT,
        tolerances=tol,
        seeding=seeding,
        seed=_integer(doc.get("seed", 0), "seed"),
        output=doc.get("output", "out"),
        time_domain_grid=td_grid,
        t_final=_positive(td.get("t_final", 1.0), "time_domain.t_final"),
        dt=None if td.get("dt") is None else _positive(td["dt"], "time_domain.dt"),
        cfl=_positive(td.get("cfl", 0.5), "time_domain.cfl"),
        theta_path=_theta_path(sections["theta_path"], theta),
        raw=doc,
    )


def _parse_material(entry, base_dir: Optional[Path]) -> MaterialSpec:
    if entry is None:
        return presets.identity_material()
    if isinstance(entry, str):
        path = Path(entry)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read material {path}: {exc}") from exc
        return material_from_dict(doc)
    if "preset" in entry:
        name = entry["preset"]
        params = entry.get("params", {})
        factory = {
            "identity": presets.identity_material,
            "scaled_identity": presets.scaled_identity,
            "layered": presets.layered,
            "layered_anisotropic": presets.layered_anisotropic,
        }.get(name)
        _require(factory is not None, f"unknown material preset {name!r}")
        spec = factory(**params)
        for mod in entry.get("modulations", []):
            kind = mod.get("kind", "cos")
            _require(kind in ("cos", "ohmic"), f"unknown modulation kind {kind!r}")
            if kind == "ohmic":
                spec = presets.with_ohmic_loss(spec, float(mod["sigma"]))
            else:
                spec = presets.with_cos_modulation(
                    spec,
                    tuple(mod["eta"]),
                    amplitude=float(mod.get("amplitude", 0.1)),
                    cell_mode=tuple(mod.get("cell_mode", (0, 0, 0))),
                    target=mod.get("target", "eps1"),
                )
        return spec
    return material_from_dict(entry)
