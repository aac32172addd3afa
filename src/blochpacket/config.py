"""Run configuration: a single JSON document driving every CLI command."""

from __future__ import annotations

import inspect
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
# the keys of the material section's preset form and of a modulation entry of
# each kind (the coefficient form has fieldio.MATERIAL_KEYS)
PRESET_KEYS = ("preset", "params", "modulations")
MODULATION_KEYS = {
    "cos": ("kind", "eta", "amplitude", "cell_mode", "target"),
    "ohmic": ("kind", "sigma"),
}
PRESETS = {
    "identity": presets.identity_material,
    "scaled_identity": presets.scaled_identity,
    "layered": presets.layered,
    "layered_anisotropic": presets.layered_anisotropic,
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


def _keys(section, name: str, keys) -> dict:
    """section, which must be an object whose keys are all in `keys`."""
    _require(isinstance(section, dict), f"{name} must be a JSON object")
    unknown = set(section) - set(keys)
    _require(not unknown, f"unknown {name} keys {sorted(unknown)}; settable: {sorted(keys)}")
    return section


def _section(doc: dict, name: str, keys) -> dict:
    """The section at a dotted name ({} when absent); a key not in `keys` is refused."""
    section = doc
    for part in name.split("."):
        section = section.get(part, {})
        _require(isinstance(section, dict), f"{name} must be a JSON object")
    return _keys(section, name, keys)


def _grid(doc: dict, name: str) -> EnvelopeGrid:
    _require("lengths" in doc and "shape" in doc, f"{name} needs 'lengths' and 'shape'")
    return EnvelopeGrid(_vector(doc["lengths"], f"{name}.lengths", 3, _positive),
                        _vector(doc["shape"], f"{name}.shape", 3, lambda v, k: _integer(v, k, 1)))


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


def _finite(value, key: str) -> float:
    """value as a finite float, or a ConfigError naming the key."""
    num = _number(value, key)
    _require(np.isfinite(num), f"{key}: expected a finite number, got {value!r}")
    return num


def _integer(value, key: str, low: Optional[int] = None) -> int:
    """value as an integer (no smaller than `low` when given), or a
    ConfigError naming the key."""
    num = _number(value, key)
    _require(num.is_integer() and (low is None or num >= low),
             f"{key}: expected an integer{'' if low is None else f' >= {low}'}, got {value!r}")
    return int(num)


def _vector(value, key: str, size: int, read=_finite) -> tuple:
    """value as a list of `size` entries, each read by `read`, or a
    ConfigError naming the key."""
    _require(isinstance(value, list) and len(value) == size,
             f"{key}: expected {size} numbers, got {value!r}")
    return tuple(read(v, key) for v in value)


def _theta_path(section: dict, theta: np.ndarray) -> Tuple[np.ndarray, ...]:
    """`steps` evenly spaced points from theta to theta_path.to, both ends
    included (none when the section is absent or empty)."""
    if not section:
        return ()
    _require("to" in section, "theta_path needs 'to'")
    end = np.array(_vector(section["to"], "theta_path.to", 3))
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
    _require(isinstance(doc, dict), f"the config must be a JSON object, got {doc!r}")
    sections = {name: _section(doc, name, keys) for name, keys in SECTION_KEYS.items()}
    material = _parse_material(doc.get("material"), base_dir)
    nmax = doc.get("cutoff", 1)
    bounds = (_vector(nmax, "cutoff", 3, _integer) if isinstance(nmax, list)
              else (_integer(nmax, "cutoff"),) * 3)
    _require(min(bounds) >= 0, f"cutoff: expected integers >= 0, got {nmax!r}")
    cutoff = LatticeCutoff(bounds)
    num_bands = _integer(doc.get("num_bands", 8), "num_bands", 1)
    _require(num_bands <= 4 * cutoff.num_modes,
             f"num_bands: {num_bands} exceeds the dynamic dimension 4K = "
             f"{4 * cutoff.num_modes} at cutoff {nmax!r}")

    theta = np.array(_vector(doc.get("theta", [0.3, 0.0, 0.0]), "theta", 3))
    _require(np.any(theta != 0.0), "theta must be nonzero (the tracked band needs a nonzero Bloch frequency)")
    _require(np.all((theta >= 0.0) & (theta < 1.0)), "theta components must lie in [0, 1)")

    h_list = doc.get("h_list", [1 / 8, 1 / 16, 1 / 32])
    _require(isinstance(h_list, list) and h_list,
             f"h_list: expected a nonempty list of positive scales, got {h_list!r}")
    h_list = tuple(_positive(h, "h_list") for h in h_list)
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
        _require(isinstance(weights, list),
                 f"packet.weights: expected a list of [re, im] pairs, got {weights!r}")
        weights = np.array([complex(*_vector(c, "packet.weights", 2)) for c in weights])
        _require(np.any(weights), "packet.weights: expected a nonzero weight vector")
    axes = pk.get("axes", [1])
    _require(isinstance(axes, list) and axes and all(a in (0, 1, 2) for a in axes),
             f"packet.axes: expected a nonempty list of axes in {{0, 1, 2}}, got {axes!r}")
    packet = PacketConfig(
        widths=_vector(pk.get("widths", [1.0, 1.5, 1.0]), "packet.widths", 3, _positive),
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
        num_bands=num_bands,
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
    if not (isinstance(entry, dict) and "preset" in entry):
        return material_from_dict(entry)
    _keys(entry, "material", PRESET_KEYS)
    preset = entry["preset"]
    _require(preset in tuple(PRESETS),
             f"material.preset: unknown preset {preset!r}; known: {sorted(PRESETS)}")
    factory = PRESETS[preset]
    params = _keys(entry.get("params", {}), "material.params",
                   tuple(inspect.signature(factory).parameters))
    kwargs = {}
    for name, value in params.items():
        key = f"material.params.{name}"
        kwargs[name] = _integer(value, key) if name == "axis" else _finite(value, key)
        _require(name != "axis" or kwargs[name] in (0, 1, 2),
                 f"{key}: expected an axis in {{0, 1, 2}}, got {value!r}")
    spec = factory(**kwargs)
    mods = entry.get("modulations", [])
    _require(isinstance(mods, list), f"material.modulations: expected a list, got {mods!r}")
    for i, mod in enumerate(mods):
        name = f"material.modulations[{i}]"
        kind = mod.get("kind", "cos") if isinstance(mod, dict) else None
        _require(kind in tuple(MODULATION_KEYS),
                 f"{name}.kind: expected 'cos' or 'ohmic' in an object, got {mod!r}")
        _keys(mod, name, MODULATION_KEYS[kind])
        if kind == "ohmic":
            spec = presets.with_ohmic_loss(spec, _finite(mod.get("sigma"), f"{name}.sigma"))
            continue
        target = mod.get("target", "eps1")
        _require(target in ("eps1", "mu1", "lower_order"),
                 f"{name}.target: expected 'eps1', 'mu1' or 'lower_order', got {target!r}")
        spec = presets.with_cos_modulation(
            spec,
            _vector(mod.get("eta"), f"{name}.eta", 4),
            amplitude=_finite(mod.get("amplitude", 0.1), f"{name}.amplitude"),
            cell_mode=_vector(mod.get("cell_mode", [0, 0, 0]), f"{name}.cell_mode", 3, _integer),
            target=target,
        )
    return spec
