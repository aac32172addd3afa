"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the blochpacket modules by
timing wrappers: in every loaded blochpacket module, each name bound to the
original function is rebound to the wrapper, so calls from the CLI and calls
between modules are both seen.  Times are inclusive (a wrapped call inside
another wrapped call counts in both) and are summed over threads.  A function
that is no longer there is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time

# (metric prefix, module, attribute path, counters fed by the call)
SPANS = [
    ("fourier.assembly", "blochpacket.fourier", "base_material_matrix", ()),
    ("fourier.assembly", "blochpacket.fourier", "curl_matrix", ()),
    ("bands.solve", "blochpacket.bands", "solve_bands", ("clusters_returned",)),
    ("bands.track", "blochpacket.bands", "track_band", ()),
    ("bands.projectors", "blochpacket.bands", "build_projectors", ()),
    ("dispersion.hessian", "blochpacket.dispersion", "hessian", ()),
    ("dispersion.fd_hessian", "blochpacket.dispersion", "fd_hessian", ()),
    ("dispersion.speed_limit", "blochpacket.dispersion", "speed_limit_check", ()),
    ("rays.gamma", "blochpacket.rays", "build_gamma", ()),
    ("wkb.profiles", "blochpacket.wkb", "build_profiles", ()),
    ("wkb.assemble", "blochpacket.wkb", "assemble", ()),
    ("wkb.assemble_harmonics", "blochpacket.wkb", "assemble_harmonics", ()),
    ("wkb.residual", "blochpacket.wkb", "residual", ()),
    ("envelope.state_at", "blochpacket.envelope", "EnvelopeSolution.state_at", ()),
    ("envelope.evolve", "blochpacket.envelope", "evolve", ("evolve_steps",)),
    ("oracles.synthesis", "blochpacket.oracles", "synthesize_exact_packet", ()),
    ("oracles.time_domain", "blochpacket.oracles", "time_domain_solve", ("rk4_steps",)),
    ("harmonics.seminorm", "blochpacket.harmonics", "seminorm", ()),
] + [
    ("fieldio.write", "blochpacket.fieldio", name, ("bytes_written",))
    for name in ("dump_field", "write_bands_csv", "write_dispersion_record",
                 "write_coupling_json", "write_energy_csv", "write_convergence_csv",
                 "write_manifest")
]

# per_layer metric -> (unit, span prefix it is derived from)
METRICS = {
    "fourier.assembly_calls": ("count", "fourier.assembly"),
    "fourier.assembly_s": ("s", "fourier.assembly"),
    "bands.solve_calls": ("count", "bands.solve"),
    "bands.clusters_returned": ("count", "bands.solve"),
    "bands.solve_s": ("s", "bands.solve"),
    "bands.track_s": ("s", "bands.track"),
    "bands.projectors_s": ("s", "bands.projectors"),
    "dispersion.hessian_s": ("s", "dispersion.hessian"),
    "dispersion.fd_hessian_s": ("s", "dispersion.fd_hessian"),
    "dispersion.speed_limit_s": ("s", "dispersion.speed_limit"),
    "rays.gamma_s": ("s", "rays.gamma"),
    "wkb.profiles_s": ("s", "wkb.profiles"),
    "wkb.assemble_s": ("s", "wkb.assemble"),
    "wkb.assemble_harmonics_s": ("s", "wkb.assemble_harmonics"),
    "wkb.residual_s": ("s", "wkb.residual"),
    "envelope.state_at_s": ("s", "envelope.state_at"),
    "envelope.evolve_steps": ("count", "envelope.evolve"),
    "oracles.synthesis_calls": ("count", "oracles.synthesis"),
    "oracles.synthesis_s": ("s", "oracles.synthesis"),
    "oracles.time_domain_s": ("s", "oracles.time_domain"),
    "oracles.rk4_step_ms": ("ms", "oracles.time_domain"),
    "harmonics.seminorm_calls": ("count", "harmonics.seminorm"),
    "harmonics.seminorm_s": ("s", "harmonics.seminorm"),
    "fieldio.write_s": ("s", "fieldio.write"),
    "fieldio.bytes_written": ("bytes", "fieldio.write"),
}


def _count(counter: str, args, kwargs, result) -> float:
    if counter == "clusters_returned":
        return len(result)
    if counter == "evolve_steps":
        return kwargs["steps"] if "steps" in kwargs else args[4]
    if counter == "rk4_steps":
        t_final = kwargs["t_final"] if "t_final" in kwargs else args[4]
        return round(t_final / result.dt)
    if counter == "bytes_written":
        return os.path.getsize(args[0])
    raise KeyError(counter)


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self.totals = {}       # metric prefix -> [calls, seconds]
        self.counters = {}     # counter name -> total
        self.absent = []       # "module.attr" of functions not found
        self._undo = []        # (owner, attribute name, original)

    def _wrap(self, prefix, counters, fn):
        lock, totals, tallies = self._lock, self.totals, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            counts = {c: _count(c, args, kwargs, result) for c in counters}
            with lock:
                entry = totals.setdefault(prefix, [0, 0.0])
                entry[0] += 1
                entry[1] += dt
                for c, n in counts.items():
                    tallies[c] = tallies.get(c, 0) + n
            return result

        return traced

    def install(self):
        for prefix, modname, path, counters in SPANS:
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(prefix, counters, original)
            if outer:  # a method: rebind on its class
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in [m for name, m in list(sys.modules.items())
                        if name == "blochpacket" or name.startswith("blochpacket.")]:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, name, original))
                        setattr(mod, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def metrics(self) -> dict:
        """Every per-layer metric; one whose functions were all absent reads 0
        and is named by `absent_metrics`."""
        calls = {p: c for p, (c, _s) in self.totals.items()}
        secs = {p: s for p, (_c, s) in self.totals.items()}
        td_steps = self.counters.get("rk4_steps", 0)
        values = {
            "bands.clusters_returned": self.counters.get("clusters_returned", 0),
            "envelope.evolve_steps": self.counters.get("evolve_steps", 0),
            "oracles.rk4_step_ms": 1e3 * secs.get("oracles.time_domain", 0.0) / td_steps if td_steps else 0.0,
            "fieldio.bytes_written": self.counters.get("bytes_written", 0),
        }
        out = {}
        for name, (unit, prefix) in METRICS.items():
            if name in values:
                value = values[name]
            elif unit == "count":
                value = calls.get(prefix, 0)
            else:
                value = secs.get(prefix, 0.0)
            out[name] = {"value": value, "unit": unit}
        return out

    def overhead_s(self, samples: int = 20000) -> float:
        """CPU time the wrappers added: the calls they saw times the per-call
        cost of the same wrapper around a no-op, measured here."""
        calls = sum(c for c, _s in self.totals.values())

        def noop():
            return None

        wrapped = Tracer()._wrap("calibration", (), noop)
        t0 = time.process_time()
        for _ in range(samples):
            wrapped()
        t1 = time.process_time()
        for _ in range(samples):
            noop()
        t2 = time.process_time()
        return calls * max((t1 - t0) - (t2 - t1), 0.0) / samples

    def absent_metrics(self) -> list:
        """Metrics all of whose functions were not found."""
        found = {prefix for prefix, modname, path, _c in SPANS
                 if f"{modname}.{path}" not in self.absent}
        return [name for name, (_u, prefix) in METRICS.items() if prefix not in found]
