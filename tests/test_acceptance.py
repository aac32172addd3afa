"""Acceptance criteria.

Each test exercises one shipped guarantee at its stated tolerance and prints a
PASS line with the measured numbers (run with -s to see them).  Criteria and
tolerances are pinned here; nothing is deferred to later calibration.

The full modulated 3D problem at small h is not reproducible at desk scale;
its error bound is certified indirectly by the residual hierarchy (criterion
6) plus the time-domain stability diagnostics (criterion 8), with the
oracle-based convergence measured on the purely periodic medium (criterion 7).
"""

import time

import numpy as np
import pytest
from helpers import L2, grid_values, partition_is_exact, random_coeffs, transport_defect

from blochpacket.bands import BlochOperator, solve_bands
from blochpacket.dispersion import (
    fd_hessian,
    first_order_identity_residual,
    speed_limit_check,
)
from blochpacket.envelope import EnvelopeGrid, EnvelopeSolution, gaussian_state, weighted_norm
from blochpacket.fourier import LatticeCutoff
from blochpacket.harmonics import HarmonicField, difference, seminorm
from blochpacket.oracles import (
    ExactPacketSpec,
    constant_spectrum,
    exact_constant_solution,
    synthesize_exact_packet,
    time_domain_solve,
)
from blochpacket.presets import (
    identity_material,
    layered,
    layered_anisotropic,
    scaled_identity,
)
from blochpacket.wkb import assemble_harmonics, build_profiles, residual

THETA = np.array([0.3, 0.0, 0.0])


def report(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. Constant-coefficient bands
# ---------------------------------------------------------------------------

def test_01_constant_coefficient_bands():
    t0 = time.time()
    cut = LatticeCutoff(2)
    bands = solve_bands(BlochOperator.build(identity_material(), cut, THETA), 4 * cut.num_modes)
    computed = np.sort(np.concatenate([[b.omega] * b.kappa for b in bands]))
    exact = np.sort(constant_spectrum(cut, THETA))
    err = float(np.max(np.abs(computed - exact)))
    # every mode contributes each of +-|k+theta| twice
    per_mode_ok = True
    for k in cut.modes:
        w = np.linalg.norm(THETA + k)
        for target in (w, -w):
            hits = np.sum(np.abs(computed - target) < 1e-10)
            shared = sum(
                1 for k2 in cut.modes
                if abs(np.linalg.norm(THETA + k2) - w) < 1e-12
            )
            if hits != 2 * shared:
                per_mode_ok = False
    elapsed = time.time() - t0
    report(
        "criterion 1 (constant-coefficient bands)",
        err <= 1e-10 and per_mode_ok and elapsed < 10.0,
        f"max |omega - closed form| = {err:.2e}, per-mode doubling ok={per_mode_ok}, "
        f"runtime {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Perturbation identities
# ---------------------------------------------------------------------------

def test_02_perturbation_identities(identity_pipe, aniso_pipe, rng):
    t0 = time.time()
    worst_first = 0.0
    worst_hess = 0.0
    for pipe in (identity_pipe, aniso_pipe):
        for _ in range(5):
            xi = rng.standard_normal(3)
            worst_first = max(worst_first, first_order_identity_residual(
                pipe.band, pipe.op, xi, pipe.dispersion.V))
        fd = fd_hessian(pipe.op, pipe.band, step=1e-2)
        worst_hess = max(worst_hess, float(np.max(np.abs(fd - pipe.dispersion.hessian))))
    elapsed = time.time() - t0
    report(
        "criterion 2 (perturbation identities)",
        worst_first <= 1e-10 and worst_hess <= 1e-5 and elapsed < 60.0,
        f"max |Pi L' Pi| = {worst_first:.2e}, max |hessian - fd| = {worst_hess:.2e}, "
        f"runtime {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. Speed limit on every shipped example medium
# ---------------------------------------------------------------------------

def test_03_speed_limit(identity_pipe, aniso_pipe, offaxis_layered_pipe, modulated_pipe):
    t0 = time.time()
    worst = np.inf
    for pipe in (identity_pipe, aniso_pipe, offaxis_layered_pipe, modulated_pipe):
        rep = speed_limit_check(pipe.spec, pipe.dispersion.V, num_samples=1000, seed=11)
        worst = min(worst, rep["worst_margin"])
    # scaled medium as well (its band pipeline is trivial to derive)
    from helpers import BandPipeline

    pipe4 = BandPipeline(scaled_identity(4.0), 1, THETA, band_index=1)
    rep = speed_limit_check(pipe4.spec, pipe4.dispersion.V, num_samples=1000, seed=11)
    worst = min(worst, rep["worst_margin"])
    elapsed = time.time() - t0
    report(
        "criterion 3 (speed limit)",
        worst >= -1e-9 and elapsed < 30.0,
        f"worst margin {worst:.3e} over 5 media x 1000 directions, runtime {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Scalarity certificate
# ---------------------------------------------------------------------------

def test_04_scalarity(identity_pipe):
    res = identity_pipe.dispersion.scalar_residual
    report(
        "criterion 4 (kappa=2 scalarity certificate)",
        res <= 1e-8,
        f"second-order scalarity residual {res:.2e} (kappa={identity_pipe.band.kappa})",
    )


# ---------------------------------------------------------------------------
# 5. Envelope conservation and splitting order
# ---------------------------------------------------------------------------

def test_05_envelope_conservation(modulated_pipe):
    from blochpacket.dispersion import projected_mass
    from blochpacket.presets import identity_material, with_cos_modulation
    from blochpacket.rays import build_gamma, ray_average

    pipe = modulated_pipe
    # real symmetric permittivity modulation, no zero-order term
    spec = with_cos_modulation(identity_material(), (0.0, 0.0, 0.25, 0.0),
                               amplitude=0.1, target="eps1")
    op = BlochOperator.build(spec, pipe.cutoff, pipe.theta)
    gamma = build_gamma(pipe.band, op)
    ray = ray_average(gamma, pipe.dispersion.V)
    mass = projected_mass(pipe.band, op)
    grid = EnvelopeGrid((1.0, 16 * np.pi, 1.0), (1, 128, 1))
    st = gaussian_state(grid, (1.0, 1.5, 1.0), np.array([1.0, 0.5j]) / np.sqrt(1.25))
    n0 = weighted_norm(st, mass)
    out = EnvelopeSolution(st, pipe.dispersion.hessian, ray.mean_modes, 1e-3).state_at(1000 * 1e-3)
    drift = abs(weighted_norm(out, mass) - n0) / n0

    # Strang order against a fine reference
    T = 0.32

    def evolved(n):
        dT = T / n
        env = EnvelopeSolution(st, pipe.dispersion.hessian, pipe.ray.mean_modes, dT)
        return env.state_at(n * dT)

    ref = evolved(1024)
    errs = []
    for n in (16, 32, 64):
        o = evolved(n)
        errs.append(float(np.max(np.abs(o.values - ref.values))))
    slope = float(-np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0])

    report(
        "criterion 5 (envelope conservation + splitting order)",
        drift <= 1e-10 and abs(slope - 2.0) <= 0.1,
        f"weighted-norm drift {drift:.2e} over 1000 steps, splitting slope {slope:.3f}",
    )


# ---------------------------------------------------------------------------
# 6. Residual hierarchy
# ---------------------------------------------------------------------------

def test_06_residual_hierarchy(modulated_pipe):
    t0 = time.time()
    pipe = modulated_pipe
    grid = EnvelopeGrid((1.0, 16 * np.pi, 1.0), (1, 64, 1))
    env = pipe.envelope(grid, (1.0, 1.5, 1.0), [1.0, 0.5j], dT=2e-3)
    profs = pipe.profiles(env)
    rep = residual(profs, [1 / 8], horizon=0.5, num_t=5, num_x=5)[1 / 8]
    scale = rep["r1"]["scale"]
    worst = max(rep[o]["abs"] for o in ("r-1", "r0", "r1"))
    ablated = residual(profs.with_ablation(drop_w2=True), [1 / 8], horizon=0.5,
                       num_t=5, num_x=5)[1 / 8]
    raised = ablated["r1"]["abs"]
    elapsed = time.time() - t0
    report(
        "criterion 6 (residual hierarchy)",
        worst <= 1e-9 * scale and raised > 1e-3 * scale and elapsed < 60.0,
        f"max(|r-1|,|r0|,|r1|) = {worst:.2e} vs scale {scale:.2e}; "
        f"w2 ablation raises |r1| to {raised:.2e}; runtime {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. Convergence rate against the synthesis oracle
# ---------------------------------------------------------------------------

def test_07_convergence_rate(identity_pipe):
    t0 = time.time()
    pipe = identity_pipe
    L = 16 * np.pi
    grid = EnvelopeGrid((L, L, L), (1, 192, 1))
    widths = (1.0, 1.5, 1.0)
    weights = np.array([1.0, 0.5j])
    weights /= np.linalg.norm(weights)
    env = pipe.envelope(grid, widths, weights)
    profs = pipe.profiles(env)

    errs = {}
    for h in (1 / 8, 1 / 16, 1 / 32):
        packet = ExactPacketSpec(THETA, h, widths, weights, axes=(1,),
                                 nodes=101, nodes_check=81)
        times = np.linspace(0.0, 1.0 / h, 9)
        synth = synthesize_exact_packet(packet, pipe.band, pipe.op, times, grid=grid,
                                        estimate_error=False)
        uh = HarmonicField(THETA, h, times, grid, synth.harmonics)
        vh = HarmonicField(THETA, h, times, grid, assemble_harmonics(profs, h, times, grid))
        errs[h] = float(seminorm(difference(uh, vh), [L2])[L2].max())

    hs = sorted(errs)
    slope = float(np.polyfit(np.log(hs), np.log([errs[h] for h in hs]), 1)[0])

    # ablation: dropping the correctors must at least double the h=1/8 error
    profs0 = profs.with_ablation(drop_w1=True, drop_w2=True)
    h = 1 / 8
    packet = ExactPacketSpec(THETA, h, widths, weights, axes=(1,),
                             nodes=101, nodes_check=81)
    times = np.linspace(0.0, 1.0 / h, 9)
    synth = synthesize_exact_packet(packet, pipe.band, pipe.op, times, grid=grid,
                                    estimate_error=False)
    uh = HarmonicField(THETA, h, times, grid, synth.harmonics)
    vh = HarmonicField(THETA, h, times, grid,
                       assemble_harmonics(profs0, h, times, grid, orders=(0,)))
    worst0 = float(seminorm(difference(uh, vh), [L2])[L2].max())

    elapsed = time.time() - t0
    report(
        "criterion 7 (convergence rate, synthesis oracle)",
        slope >= 0.8 and worst0 >= 2.0 * errs[1 / 8] and elapsed < 600.0,
        f"slope {slope:.3f} over h = 1/8..1/32 "
        f"(errors {[f'{errs[h]:.3e}' for h in hs]}); "
        f"no-corrector error {worst0:.3e} vs {errs[1/8]:.3e}; runtime {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. Time-domain diagnostics
# ---------------------------------------------------------------------------

def test_08_time_domain():
    t0 = time.time()
    h = 1 / 4
    spec = layered(amplitude=0.2)
    grid = EnvelopeGrid((10 * np.pi, 2 * np.pi, 2 * np.pi), (640, 1, 1))
    omega, e, b = exact_constant_solution(THETA, (0, 0, 0))
    xs = grid.meshgrid()
    phase = np.exp(1j * THETA[0] * xs[0] / h)
    u0 = np.zeros((6,) + grid.shape, dtype=complex)
    u0[:3] = e[:, None, None, None] * phase[None]
    u0[3:] = b[:, None, None, None] * phase[None]
    res = time_domain_solve(spec, h, u0, grid, 10.0, dt=1.5e-3)
    energy = res.trace[:, 1]
    e_drift = float(np.max(np.abs(energy - energy[0])) / energy[0])
    div_e = res.trace[:, 2]
    div_drift = float(np.max(np.abs(div_e - div_e[0])) / max(div_e[0], 1.0))

    # stationary gradient data stays fixed
    u_grad = np.zeros((6,) + grid.shape, dtype=complex)
    kx = 2 * np.pi / grid.lengths[0]
    u_grad[0] = np.cos(3 * kx * xs[0])
    u_grad[3] = 0.5 * np.sin(5 * kx * xs[0])
    res2 = time_domain_solve(spec, h, u_grad, grid, 1.0, dt=2e-3)
    stat_drift = float(np.max(np.abs(res2.field - u_grad)))

    elapsed = time.time() - t0
    report(
        "criterion 8 (time-domain diagnostics)",
        e_drift <= 1e-8 and div_drift <= 1e-8 and stat_drift <= 1e-9 and elapsed < 120.0,
        f"energy drift {e_drift:.2e}, divergence drift {div_drift:.2e}, "
        f"stationary drift {stat_drift:.2e} over t=10/1; runtime {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. Ray-average algebra
# ---------------------------------------------------------------------------

def test_09_ray_average_algebra(modulated_pipe):
    from blochpacket.rays import empirical_beta

    pipe = modulated_pipe
    worst = transport_defect(pipe, np.random.default_rng(5), 8)
    exact = partition_is_exact(pipe.gamma, pipe.ray)
    beta = empirical_beta(pipe.gamma, pipe.ray, [10.0, 100.0, 1000.0])
    report(
        "criterion 9 (ray-average algebra)",
        worst <= 1e-9 and exact and beta <= 0.05,
        f"transport identity residual {worst:.2e}, partition exact={exact}, "
        f"empirical beta {beta:.3f}",
    )


# ---------------------------------------------------------------------------
# 10. Bloch transform unitarity
# ---------------------------------------------------------------------------

def test_10_parseval(rng):
    cut = LatticeCutoff(1)
    worst = 0.0
    for _ in range(10):
        theta = rng.uniform(0.05, 0.95, size=3)
        f = random_coeffs(cut, rng)
        g = random_coeffs(cut, rng)
        gf = grid_values(cut, theta, f, 12)
        gg = grid_values(cut, theta, g, 12)
        defect = np.vdot(gg, gf) / 12**3 - np.vdot(g, f)
        worst = max(worst, abs(defect) / (np.linalg.norm(f) * np.linalg.norm(g)))
    report(
        "criterion 10 (transform unitarity / Parseval)",
        worst <= 1e-10,
        f"worst relative Parseval defect {worst:.2e} on random band-limited fields",
    )
