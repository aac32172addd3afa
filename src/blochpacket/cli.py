"""Command-line driver.

Subcommands: bands, dispersion, gamma, envelope, wkb, validate, oracle.
Each takes --config <path> and --out <dir>.  Exit codes: 0 success, 2 invalid
configuration, 3 structural-hypothesis violation (gap / multiplicity / speed
limit / small divisors), 4 numerical-tolerance failure.

Outputs are deterministic: a fixed config and seed reproduce byte-identical
artifacts, and every run writes a manifest with the config digest and library
versions next to its data.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache, cached_property
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from .bands import BlochOperator, build_projectors, solve_bands, track_band
from .config import RunConfig, load_config
from .dispersion import fd_hessian, hessian, projected_mass, speed_limit_check
from .envelope import EnvelopeSolution, gaussian_state, weighted_norm
from .errors import ConfigError, GammaPointError, HypothesisViolation, NumericalFailure
from .fieldio import (
    dump_field,
    write_bands_csv,
    write_convergence_csv,
    write_coupling_json,
    write_dispersion_record,
    write_energy_csv,
    write_manifest,
)
from .harmonics import difference, seminorm, weighted_indices
from .oracles import (
    ExactPacketSpec,
    chebyshev_applies,
    chebyshev_solve,
    synthesize_exact_packet,
    time_domain_solve,
)
from .rays import build_gamma, empirical_beta, ray_average
from .wkb import assemble, assemble_harmonics, build_profiles, residual


# ---------------------------------------------------------------------------
# Pipeline assembly
# ---------------------------------------------------------------------------

def _cluster_covers(band, idx: int) -> bool:
    if idx > 0:
        return band.band_index <= idx < band.band_index + band.kappa
    return band.band_index - band.kappa < idx <= band.band_index


def select_band(cfg: RunConfig, op: BlochOperator):
    bands = solve_bands(op, cfg.num_bands)
    sel = cfg.band
    if "index" in sel:
        idx = sel["index"]
        for b in bands:
            if _cluster_covers(b, idx):
                return b, bands
        raise ConfigError(f"band index {idx} not among the first {cfg.num_bands} bands")
    target = sel["omega_target"]
    best = min(bands, key=lambda b: abs(b.omega - target))
    if sel.get("kappa", best.kappa) != best.kappa:
        raise ConfigError(f"band nearest omega={target} has multiplicity {best.kappa}, "
                          f"expected {sel['kappa']}")
    return best, bands


class Pipeline:
    """Shared lazy assembly of the per-band objects, all built from one
    operator."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.op = BlochOperator.build(cfg.material, cfg.cutoff, cfg.theta)
        self.band, self.all_bands = select_band(cfg, self.op)

    @cached_property
    def projectors(self):
        return build_projectors(self.band, self.op)

    @cached_property
    def dispersion(self):
        return hessian(self.band, self.projectors, self.op,
                       scalar_tol=self.cfg.tolerances["scalar_tol"])

    @cached_property
    def gamma(self):
        return build_gamma(self.band, self.op)

    @cached_property
    def ray(self):
        return ray_average(self.gamma, self.dispersion.V,
                           divisor_tol=self.cfg.tolerances["divisor_tol"])

    def packet_weights(self) -> np.ndarray:
        w = self.cfg.packet.weights
        if w is None:
            w = np.eye(self.band.kappa, dtype=complex)[0]
        if w.shape != (self.band.kappa,):
            raise ConfigError(
                f"packet weights have {w.shape[0]} components, band multiplicity is {self.band.kappa}"
            )
        return w / np.linalg.norm(w)

    @cached_property
    def envelope(self) -> EnvelopeSolution:
        init = gaussian_state(self.cfg.grid, self.cfg.packet.widths, self.packet_weights())
        return EnvelopeSolution(init, self.dispersion.hessian, self.ray.mean_modes,
                                dT=self.cfg.envelope_dT)

    def profiles(self):
        return build_profiles(self.band, self.projectors, self.dispersion, self.ray,
                              self.envelope, self.op)

    def seeded(self, profiles):
        """The profiles the assembly seeds with: all three, or the leading
        profile alone for leading_only seeding."""
        leading = self.cfg.seeding == "leading_only"
        return profiles.with_ablation(drop_w1=leading, drop_w2=leading)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_bands(cfg: RunConfig, out: Path) -> None:
    pipe = Pipeline(cfg)
    rows = list(pipe.all_bands)
    if cfg.theta_path:
        rows.extend(track_band(pipe.op, pipe.band, cfg.theta_path,
                               gap_tol=cfg.tolerances["gap_tol"]))
    write_bands_csv(out / "bands.csv", rows)
    margin = speed_limit_check(cfg.material, pipe.dispersion.V, seed=cfg.seed)["worst_margin"]
    write_dispersion_record(out / "dispersion.json", pipe.dispersion, margin)
    print(f"wrote {out/'bands.csv'} ({len(rows)} clusters) and dispersion.json")


def cmd_dispersion(cfg: RunConfig, out: Path) -> None:
    pipe = Pipeline(cfg)
    rep = speed_limit_check(cfg.material, pipe.dispersion.V, seed=cfg.seed)
    write_dispersion_record(out / "dispersion.json", pipe.dispersion, rep["worst_margin"])
    fd = fd_hessian(pipe.op, pipe.band)
    dev = float(np.max(np.abs(fd.hessian - pipe.dispersion.hessian)))
    (out / "dispersion_fd_check.json").write_text(json.dumps({
        "hessian_fd": fd.hessian.tolist(),
        "max_abs_deviation": dev,
        "velocity_fd": fd.V.tolist(),
        "velocity_max_abs_deviation": float(np.max(np.abs(fd.V - pipe.dispersion.V))),
    }, indent=1) + "\n")
    print(f"wrote dispersion.json (speed margin {rep['worst_margin']:.3e}, fd dev {dev:.3e})")


def cmd_gamma(cfg: RunConfig, out: Path) -> None:
    pipe = Pipeline(cfg)
    beta_fit = 0.0
    if pipe.ray.fluctuation_modes:
        beta_fit = empirical_beta(pipe.gamma, pipe.ray, [10.0, 100.0, 1000.0])
    write_coupling_json(out / "coupling.json", pipe.gamma, pipe.ray, beta_fit)
    print(f"wrote coupling.json ({len(pipe.gamma.modes)} modes, beta_fit {beta_fit:.3f})")


def cmd_envelope(cfg: RunConfig, out: Path) -> None:
    pipe = Pipeline(cfg)
    env = pipe.envelope
    mass = projected_mass(pipe.band, pipe.op)
    times = np.linspace(0.0, cfg.horizon, 9)
    rows = []
    for i, T in enumerate(times):
        state = env.state_at(T)
        rows.append((T, weighted_norm(state, mass)))
        dump_field(out / f"envelope_{i:02d}.bwpk", state.values, cfg.grid, time=T,
                   theta=cfg.theta, omega=pipe.band.omega)
    with open(out / "conservation.csv", "w") as f:
        f.write("T,weighted_norm\n")
        for T, n in rows:
            f.write(f"{T:.17g},{n:.17g}\n")
    drift = abs(rows[-1][1] - rows[0][1]) / max(abs(rows[0][1]), 1e-300)
    print(f"wrote {len(times)} envelope snapshots; weighted-norm drift {drift:.3e}")


def cmd_wkb(cfg: RunConfig, out: Path) -> None:
    pipe = Pipeline(cfg)
    profs = pipe.profiles()
    h = cfg.h_list[0]
    rep = residual(profs, [h], cfg.horizon)[h]
    (out / "residual.json").write_text(json.dumps(rep, indent=1, sort_keys=True) + "\n")
    pts = cfg.grid.points().reshape(-1, 3)
    seeded = pipe.seeded(profs)
    for label, t in (("initial", 0.0), ("final", cfg.horizon / h)):
        samples = assemble(seeded, h, t, pts)
        dump_field(out / f"wkb_{label}.bwpk", samples.T.reshape((6,) + cfg.grid.shape),
                   cfg.grid, time=t, h=h, theta=cfg.theta, omega=pipe.band.omega)
    print(f"wrote wkb_initial.bwpk, wkb_final.bwpk and residual.json "
          f"(max |r1| rel {rep['r1']['rel']:.3e})")


def _auto_nodes(cfg: RunConfig, V: np.ndarray, hess: np.ndarray) -> int:
    """Gauss-Legendre nodes per spectrum axis: resolve the spatial phase
    x.zeta out to the box edge, the transport phase V.zeta t that the packet
    picks up by t = horizon/h at the smallest h, and the accumulated
    dispersion phase over the horizon, with margin.  A rule of n nodes
    resolves about 2n radians."""
    half = max(cfg.grid.lengths[a] / 2 for a in cfg.packet.axes)
    radius = max(cfg.packet.support_sigmas / cfg.packet.widths[a] for a in cfg.packet.axes)
    speed = max(abs(V[a]) for a in cfg.packet.axes)
    phase = (half * radius + speed * radius * cfg.horizon / min(cfg.h_list)
             + 0.5 * cfg.horizon * float(np.linalg.norm(hess, 2)) * radius**2)
    return int(np.ceil(phase / 2)) + 25


def _check_axes(cfg: RunConfig) -> None:
    """Refuse packet axes other than the grid's varying axes: the synthesis
    spreads its spectrum over the packet axes and the assembly's envelope
    (gaussian_state) over the axes with more than one grid point, so with
    other axes the two packets differ whatever their accuracy."""
    packet = sorted(cfg.packet.axes)
    grid = [a % 3 for a in cfg.grid.varying]
    if packet != grid:
        raise ConfigError(
            f"packet.axes {packet} differ from the grid's varying axes {grid}: the "
            f"synthesis spreads the packet over the first, the envelope over the second")


def _check_box(cfg: RunConfig, V: np.ndarray) -> None:
    """Refuse a packet that transport carries to the box edge: by
    t = horizon/h it has moved |V_a| horizon/h along packet axis a, and
    there it must still fit, with its support, in half the box.  The
    assembly wraps periodically and the synthesis does not, so past the edge
    the two disagree whatever their accuracy."""
    for h in cfg.h_list:
        for a in cfg.packet.axes:
            shift = abs(V[a]) * cfg.horizon / h
            support = cfg.packet.support_sigmas * cfg.packet.widths[a]
            half = cfg.grid.lengths[a] / 2
            if shift + support > half:
                raise ConfigError(
                    f"packet reaches the box edge on axis {a} at h={h:g}: transport "
                    f"|V_a| horizon/h = {shift:.4g} plus support {support:.4g} = "
                    f"{shift + support:.4g} exceeds the half-box {half:.4g}")


def sup_errors(profiles, packet: ExactPacketSpec, times, grid,
               pairs) -> Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], float]:
    """{(beta, delta): the largest seminorm over `times` of the synthesized
    exact packet minus the assembly at scale packet.h}, every time in one
    stack: one synthesis, one assembly and one seminorm call."""
    synth, _err = synthesize_exact_packet(packet, profiles.band, profiles.op, times, grid,
                                          estimate_error=False)
    assembled = assemble_harmonics(profiles, packet.h, times, grid)
    return {bd: float(v.max()) for bd, v in seminorm(difference(synth, assembled), pairs).items()}


def cmd_validate(cfg: RunConfig, out: Path) -> None:
    if not cfg.material.is_periodic():
        _validate_certificate(cfg, out, Pipeline(cfg))
        return
    _check_axes(cfg)
    pipe = Pipeline(cfg)
    _check_box(cfg, pipe.dispersion.V)
    profs = pipe.seeded(pipe.profiles())
    nodes = _auto_nodes(cfg, pipe.dispersion.V, pipe.dispersion.hessian)
    weights = pipe.packet_weights()
    indices = weighted_indices(2, tuple(a for a in cfg.packet.axes))

    def sweep(h):
        packet = ExactPacketSpec(cfg.theta, h, cfg.packet.widths, weights,
                                 axes=cfg.packet.axes,
                                 support_sigmas=cfg.packet.support_sigmas,
                                 nodes=nodes, nodes_check=nodes - 20)
        return sup_errors(profs, packet, np.linspace(0.0, cfg.horizon / h, 9), cfg.grid,
                          indices)

    rows = []
    sup0 = {}
    for h in cfg.h_list:
        sup = sweep(h)
        for (beta, delta) in indices:
            label = f"x{''.join(map(str, beta))}_d{''.join(map(str, delta))}"
            rows.append((h, label, sup[(beta, delta)]))
        sup0[h] = sup[((0, 0, 0), (0, 0, 0))]
    write_convergence_csv(out / "convergence.csv", rows)
    hs = sorted(sup0)
    slope = float(np.polyfit(np.log(hs), np.log([max(sup0[h], 1e-300) for h in hs]), 1)[0])
    (out / "convergence_summary.json").write_text(json.dumps({
        "mode": "synthesis_oracle",
        "slope": slope,
        "sup_errors": {f"{h:.10g}": sup0[h] for h in hs},
        "quadrature_nodes": nodes,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote convergence.csv; fitted slope {slope:.3f} over h={list(hs)}")


def _validate_certificate(cfg: RunConfig, out: Path, pipe: Pipeline) -> None:
    """Modulated medium: no exact oracle exists at desk scale, so certify via
    the residual hierarchy plus the stability bound (labeled as such)."""
    profs = pipe.profiles()
    rows = []
    summary = {}
    for h, rep in residual(profs, cfg.h_list, cfg.horizon).items():
        bound = (rep["r2"]["abs"] * h**2 + rep["r3"]["abs"] * h**3) * (cfg.horizon / h)
        rows.append((h, "residual_certificate", bound))
        summary[f"{h:.10g}"] = {"order_bound": bound, "residual": rep}
    write_convergence_csv(out / "convergence.csv", rows)
    (out / "convergence_summary.json").write_text(json.dumps({
        "mode": "residual_certificate",
        "note": "modulated medium: no exact desk-scale oracle; bound = "
                "(|r2| h^2 + |r3| h^3) * horizon/h from the residual hierarchy "
                "and the energy stability estimate",
        "per_h": summary,
    }, indent=1, sort_keys=True, default=float) + "\n")
    print("wrote convergence.csv [residual-certificate mode]")


def cmd_oracle(cfg: RunConfig, out: Path) -> None:
    pipe = Pipeline(cfg)
    h = cfg.h_list[0]
    td = cfg.time_domain
    grid = td["grid"]
    initial = assemble(pipe.seeded(pipe.profiles()), h, 0.0,
                       grid.points().reshape(-1, 3)).T.reshape((6,) + grid.shape)
    # exact in time where the medium allows it, RK4 otherwise
    solve = chebyshev_solve if chebyshev_applies(cfg.material) else time_domain_solve
    result = solve(cfg.material, h, initial, grid, td["t_final"], dt=td["dt"], cfl=td["cfl"])
    write_energy_csv(out / "energy.csv", result.trace)
    dump_field(out / "time_domain_final.bwpk", result.field, grid, time=td["t_final"],
               h=h, theta=cfg.theta, omega=pipe.band.omega)
    e0, e1 = result.trace[0, 1], result.trace[-1, 1]
    print(f"time-domain run to t={td['t_final']}: energy drift {abs(e1-e0)/e0:.3e}, "
          f"wrote energy.csv and time_domain_final.bwpk")


COMMANDS = {
    "bands": cmd_bands,
    "dispersion": cmd_dispersion,
    "gamma": cmd_gamma,
    "envelope": cmd_envelope,
    "wkb": cmd_wkb,
    "validate": cmd_validate,
    "oracle": cmd_oracle,
}


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    main() call in the process."""
    parser = argparse.ArgumentParser(
        prog="blochpacket",
        description="Bloch band structure, envelope dynamics, and wave-packet "
                    "asymptotics for 3D periodic Maxwell media",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = load_config(args.config)
        out = Path(args.out if args.out is not None else cfg.output)
        out.mkdir(parents=True, exist_ok=True)
        write_manifest(out / "manifest.json", cfg.raw, args.command)
        COMMANDS[args.command](cfg, out)
    except (ConfigError, GammaPointError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 3
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
