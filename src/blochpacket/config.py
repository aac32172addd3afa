"""Run configuration: a single JSON document driving every CLI command.

SCHEMA holds every key that a configuration or a material file can set, by
dotted path (`[]`: each entry of a list), with its reader and its default, a
JSON value read as if it had been set.  A third field names the form a key
belongs to (_FORMS tells the forms of a section apart).  One walker, _walk,
reads a document against the table; below the top level it refuses any key
without a row, and each message names its value by its full path
(material.modulations[0].sigma).
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .bands import MAX_TRACK_STEP
from .envelope import EnvelopeGrid
from .errors import ConfigError
from .fourier import LatticeCutoff, MaterialSpec
from .presets import MODULATIONS, PRESETS

REQUIRED = object()  # no default: the key must be set wherever its section is
OPTIONAL = object()  # no default: the key is left out unless set


@dataclass
class PacketConfig:
    widths: Tuple[float, float, float]
    weights: Optional[np.ndarray]   # None: first basis vector
    axes: Tuple[int, ...]
    support_sigmas: float


@dataclass
class RunConfig:
    """A walked configuration: a field per top-level key, and `raw` for the manifest."""

    material: MaterialSpec
    cutoff: LatticeCutoff
    num_bands: int
    theta: np.ndarray
    band: dict                           # index, or omega_target (and kappa)
    packet: PacketConfig
    h_list: Tuple[float, ...]
    horizon: float
    grid: EnvelopeGrid
    envelope_dT: float
    tolerances: dict
    seeding: str
    seed: int
    output: str
    time_domain: dict                    # grid (the top-level grid unless set), t_final, dt, cfl
    theta_path: Tuple[np.ndarray, ...]   # points tracked by `bands`, theta first
    raw: dict


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


# ---------------------------------------------------------------------------
# Readers: (value, path) -> the value read, or a ConfigError naming the path
# ---------------------------------------------------------------------------

def _number(value, key: str) -> float:
    """value as a float (a JSON boolean or string is not a number)."""
    if not isinstance(value, (bool, str)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"{key}: expected a number, got {value!r}")


def _positive(value, key: str) -> float:
    """value as a finite positive float."""
    num = _number(value, key)
    _require(0 < num < np.inf, f"{key}: expected a finite positive number, got {value!r}")
    return num


def _finite(value, key: str) -> float:
    num = _number(value, key)
    _require(np.isfinite(num), f"{key}: expected a finite number, got {value!r}")
    return num


def _integer(value, key: str, low: Optional[int] = None) -> int:
    """value as an integer, no smaller than `low` when given."""
    num = _number(value, key)
    _require(num.is_integer() and (low is None or num >= low),
             f"{key}: expected an integer{'' if low is None else f' >= {low}'}, got {value!r}")
    return int(num)


def _count(value, key: str) -> int:
    return _integer(value, key, 1)


def _vector(value, key: str, size: int, read=_finite) -> tuple:
    """value as a list of `size` entries, each read by `read`."""
    _require(isinstance(value, list) and len(value) == size,
             f"{key}: expected {size} numbers, got {value!r}")
    return tuple(read(v, key) for v in value)


def _vec(size: int, read=_finite):
    """The reader of a list of `size` entries, each read by `read`."""
    return lambda value, key: _vector(value, key, size, read)


def _one_of(*choices):
    def read(value, key: str):
        _require(value in choices, f"{key}: expected one of {list(choices)}, got {value!r}")
        return value
    return read


def _string(value, key: str) -> str:
    _require(isinstance(value, str), f"{key}: expected a string, got {value!r}")
    return value


def _matrix(value, key: str) -> np.ndarray:
    _require(isinstance(value, list) and all(isinstance(row, list) and len(row) == len(value[0])
                                             for row in value),
             f"{key}: expected a list of equal rows of [re, im] pairs, got {value!r}")
    return np.array([[complex(*_vector(c, key, 2)) for c in row] for row in value], dtype=complex)


def _weights(value, key: str) -> Optional[np.ndarray]:
    """[re, im] pairs, not all zero, as a complex vector (None: unset)."""
    _require(value is None or isinstance(value, list),
             f"{key}: expected a list of [re, im] pairs, got {value!r}")
    weights = None if value is None else _matrix([value], key)[0]
    _require(weights is None or np.any(weights), f"{key}: expected a nonzero weight vector")
    return weights


def _axis(value, key: str) -> int:
    axis = _integer(value, key)
    _require(axis in (0, 1, 2), f"{key}: expected an axis in {{0, 1, 2}}, got {value!r}")
    return axis


def _axes(value, key: str) -> Tuple[int, ...]:
    _require(isinstance(value, list) and value,
             f"{key}: expected a nonempty list of axes in {{0, 1, 2}}, got {value!r}")
    return tuple(_axis(a, key) for a in value)


def _cutoff(value, key: str) -> LatticeCutoff:
    """An integer >= 0, or 3 of them (one per axis)."""
    if isinstance(value, list):
        return LatticeCutoff(_vector(value, key, 3, lambda v, k: _integer(v, k, 0)))
    return LatticeCutoff((_integer(value, key, 0),) * 3)


def _theta(value, key: str) -> np.ndarray:
    """3 numbers in [0, 1), not all zero: the tracked band needs a nonzero
    Bloch frequency."""
    theta = np.array(_vector(value, key, 3))
    _require(np.any(theta != 0.0) and np.all((theta >= 0.0) & (theta < 1.0)),
             f"{key}: expected 3 numbers in [0, 1), not all zero, got {value!r}")
    return theta


def _scales(value, key: str) -> Tuple[float, ...]:
    _require(isinstance(value, list) and value,
             f"{key}: expected a nonempty list of positive scales, got {value!r}")
    scales = tuple(_positive(h, key) for h in value)
    _require(all(a > b for a, b in zip(scales, scales[1:])), f"{key} must be strictly decreasing")
    return scales


def _grid(section: dict, key: str) -> EnvelopeGrid:
    return EnvelopeGrid(section["lengths"], section["shape"])


def _coefficients(entries: list, key: str) -> dict:
    """{n: matrix}, or {(eta, n): matrix} for a modulation."""
    return {(e["eta"], e["n"]) if "eta" in e else e["n"]: e["matrix"] for e in entries}


def _material(section: dict, key: str) -> MaterialSpec:
    """The coefficient form as it is, or a preset: its factory called with
    `params`, read against the factory's signature (`axis` an axis, any
    other a finite number), then each modulation added by its kind."""
    if "preset" not in section:
        return MaterialSpec(**section).validate()
    factory = PRESETS[section["preset"]]
    rows = {name: (_axis if name == "axis" else _finite, OPTIONAL)
            for name in inspect.signature(factory).parameters}
    spec = factory(**_section(section["params"], f"{key}.params", rows=rows))
    for mod in section["modulations"]:
        spec = MODULATIONS[mod.pop("kind")](spec, **mod)
    return spec


def _band(section: dict, key: str) -> dict:
    """The band selector: an index, or an omega_target (and kappa)."""
    _require("index" in section or "omega_target" in section,
             f"{key}: band selector needs 'index' or 'omega_target'")
    return section


def _theta_path(section: Optional[dict], theta: np.ndarray) -> Tuple[np.ndarray, ...]:
    """`steps` evenly spaced points from theta to theta_path.to, both ends
    included (none without a theta_path section)."""
    if section is None:
        return ()
    end, steps = np.array(section["to"]), section["steps"]
    path = tuple(theta + (end - theta) * s / max(steps - 1, 1) for s in range(steps))
    step = max((np.linalg.norm(b - a) for a, b in zip(path[:-1], path[1:])), default=0.0)
    _require(step <= MAX_TRACK_STEP, f"theta_path.steps: a step of {step:.4g} exceeds "
             f"the tracking bound {MAX_TRACK_STEP}")
    return path


# ---------------------------------------------------------------------------
# The table and its walker
# ---------------------------------------------------------------------------

SCHEMA = {
    "material": (_material, {"preset": "identity"}),
    "material.preset": (_one_of(*PRESETS), REQUIRED, "preset"),
    "material.params": (None, {}, "preset"),
    "material.modulations": (None, [], "preset"),
    "material.modulations[].kind": (_one_of(*MODULATIONS), "cos"),
    "material.modulations[].eta": (_vec(4), REQUIRED, "cos"),
    "material.modulations[].amplitude": (_finite, 0.1, "cos"),
    "material.modulations[].cell_mode": (_vec(3, _integer), [0, 0, 0], "cos"),
    "material.modulations[].target": (_one_of("eps1", "mu1", "lower_order"), "eps1", "cos"),
    "material.modulations[].sigma": (_finite, REQUIRED, "ohmic"),
    "cutoff": (_cutoff, 1),
    "num_bands": (_count, 8),
    "theta": (_theta, [0.3, 0.0, 0.0]),
    "band": (_band, {"index": 1}),
    "band.index": (_integer, OPTIONAL),
    "band.omega_target": (_finite, OPTIONAL),
    "band.kappa": (_count, OPTIONAL),
    "packet": (lambda section, key: PacketConfig(**section), {}),
    "packet.widths": (_vec(3, _positive), [1.0, 1.5, 1.0]),
    "packet.weights": (_weights, None),
    "packet.axes": (_axes, [1]),
    "packet.support_sigmas": (_positive, 6.0),
    "h_list": (_scales, [1 / 8, 1 / 16, 1 / 32]),
    "horizon": (_positive, 1.0),
    "grid": (_grid, {"lengths": [16 * np.pi] * 3, "shape": [1, 192, 1]}),
    "grid.lengths": (_vec(3, _positive), REQUIRED),
    "grid.shape": (_vec(3, _count), REQUIRED),
    "envelope_dT": (_positive, 1e-3),
    "tolerances": (None, {}),
    "tolerances.gap_tol": (_positive, 1e-6),
    "tolerances.divisor_tol": (_positive, 1e-9),
    "tolerances.scalar_tol": (_positive, 1e-8),
    "seeding": (_one_of("full_profile", "leading_only"), "full_profile"),
    "seed": (_integer, 0),
    "output": (_string, "out"),
    "time_domain": (None, {}),
    "time_domain.grid": (_grid, OPTIONAL),
    "time_domain.grid.lengths": (_vec(3, _positive), REQUIRED),
    "time_domain.grid.shape": (_vec(3, _count), REQUIRED),
    "time_domain.t_final": (_positive, 1.0),
    "time_domain.dt": (lambda value, key: None if value is None else _positive(value, key), None),
    "time_domain.cfl": (_positive, 0.5),
    "theta_path": (None, OPTIONAL),
    "theta_path.to": (_vec(3), REQUIRED),
    "theta_path.steps": (_count, 8),
}
for _name in ("eps0", "mu0", "eps1", "mu1", "lower_order"):  # the coefficient form
    SCHEMA[f"material.{_name}"] = (_coefficients, [], "coefficients")
    if _name not in ("eps0", "mu0"):  # a modulation's modes also carry their frequency
        SCHEMA[f"material.{_name}[].eta"] = (_vec(4), REQUIRED)
    SCHEMA[f"material.{_name}[].n"] = (_vec(3, _integer), REQUIRED)
    SCHEMA[f"material.{_name}[].matrix"] = (_matrix, REQUIRED)
_FORMS = {
    "material": lambda section: "preset" if "preset" in section else "coefficients",
    "material.modulations[]": lambda section: section.get("kind", "cos"),
}
_BELOW = {}  # a table key -> {name: table key} of the keys one level below it
for _key in SCHEMA:
    _parent, _, _name = _key.rpartition(".")
    _BELOW.setdefault(_parent, {})[_name] = _key


def _walk(value, key: str, where: str):
    """value read against the row `key`, named `where` in messages: a list
    entry by entry and a section key by key, then by the row's reader (none:
    as read)."""
    if key == "material" and isinstance(value, str):  # a material file
        return material_from_dict(_read_json(value, "material"))
    if key + "[]" in _BELOW:
        _require(isinstance(value, list), f"{where}: expected a list, got {value!r}")
        value = [_section(entry, f"{where}[{i}]", key + "[]") for i, entry in enumerate(value)]
    elif key in _BELOW:
        value = _section(value, where, key)
    read = SCHEMA[key][0]
    return value if read is None else read(value, where)


def _section(section, where: str, key: str = "", form: Optional[str] = None,
             rows: Optional[dict] = None) -> dict:
    """The object `section` read by `rows`, {name: (reader, default)}, by
    default the rows below `key` of every form and of its own (or `form`'s);
    below the top level a key without a row is refused."""
    _require(isinstance(section, dict), f"{where}: expected a JSON object, got {section!r}")
    if rows is None:
        form = form or (_FORMS[key](section) if key in _FORMS else None)
        rows = {name: (lambda value, path, sub=sub: _walk(value, sub, path), SCHEMA[sub][1])
                for name, sub in _BELOW[key].items() if SCHEMA[sub][2:] in ((), (form,))}
    prefix = f"{where}." if where else ""
    unknown = sorted(set(section) - set(rows))
    if unknown and where:  # top-level keys are not checked yet
        raise ConfigError(f"{prefix}{unknown[0]}: unknown {where or 'top-level'} keys "
                          f"{unknown}; settable: {sorted(rows)}")
    out = {}
    for name, (read, default) in rows.items():
        if name in section:
            out[name] = read(section[name], prefix + name)
        elif default is REQUIRED:
            raise ConfigError(f"{prefix}{name}: required, but not set")
        elif default is not OPTIONAL:
            out[name] = read(default, prefix + name)
    return out


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def material_from_dict(doc: dict) -> MaterialSpec:
    """A material description in the coefficient form (material_to_dict's)."""
    return _material(_section(doc, "material", "material", "coefficients"), "material")


def load_config(path) -> RunConfig:
    return parse_config(_read_json(path, "config"), base_dir=Path(path).parent)


def parse_config(doc: dict, base_dir: Optional[Path] = None) -> RunConfig:
    _require(isinstance(doc, dict), f"the config must be a JSON object, got {doc!r}")
    raw = doc
    if base_dir is not None and isinstance(doc.get("material"), str):  # relative to the config
        doc = {**doc, "material": str(Path(base_dir) / doc["material"])}
    run = _section(doc, "")
    modes = run["cutoff"].num_modes
    _require(run["num_bands"] <= 4 * modes, f"num_bands: {run['num_bands']} exceeds the "
             f"dynamic dimension 4K = {4 * modes} at cutoff {run['cutoff'].nmax}")
    run["time_domain"].setdefault("grid", run["grid"])
    run["theta_path"] = _theta_path(run.get("theta_path"), run["theta"])
    return RunConfig(**run, raw=raw)
