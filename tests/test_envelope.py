"""Envelope stepper: closed-form propagation, conservation, splitting order,
and the box guards."""

from pathlib import Path

import numpy as np
import pytest

from blochpacket.envelope import (
    EnvelopeGrid,
    EnvelopeSolution,
    EnvelopeState,
    dispersion_form,
    gaussian_state,
    weighted_norm,
)
from blochpacket.bands import BlochOperator
from blochpacket.errors import BoxTooSmall


def _free_gaussian_exact(grid, hess_diag, T):
    """Closed-form solution with initial data exp(-sum x_a^2/2) and a diagonal
    Hessian: per-axis (1 - i h_a T)^{-1/2} exp(-x_a^2 / (2 (1 - i h_a T)))."""
    xs = grid.meshgrid()
    out = np.ones(grid.shape, dtype=complex)
    for a in range(3):
        if grid.shape[a] == 1:
            continue
        za = 1.0 - 1j * hess_diag[a] * T
        out = out * za**-0.5 * np.exp(-xs[a] ** 2 / (2 * za))
    return out


def test_free_gaussian_closed_form():
    """Isotropic spreading Gaussian at M=64, dT=1e-3, T=1: max error <= 1e-8.
    The box must pad >= 8 widths of the spread packet or the shell guard
    (correctly) aborts."""
    grid = EnvelopeGrid((24.0, 24.0, 24.0), (64, 64, 64))
    st = gaussian_state(grid, (1.0, 1.0, 1.0), [1.0])
    out = EnvelopeSolution(st, np.eye(3), None, 1e-3).state_at(1000 * 1e-3)
    exact = _free_gaussian_exact(grid, (1.0, 1.0, 1.0), 1.0)
    assert np.max(np.abs(out.values[0] - exact)) <= 1e-8


def test_constant_potential_scalar_factor():
    grid = EnvelopeGrid((1.0, 32.0, 1.0), (1, 128, 1))
    st = gaussian_state(grid, (1.0, 1.0, 1.0), [1.0])
    c = 0.3 + 0.2j
    hess = np.diag([0.0, 1.0, 0.0])
    free = EnvelopeSolution(st, hess, None, 1e-3).state_at(500 * 1e-3)
    damped = EnvelopeSolution(st, hess, {(0.0, 0.0, 0.0): c * np.eye(1)}, 1e-3)
    damped = damped.state_at(500 * 1e-3)
    T = 0.5
    assert np.allclose(damped.values, free.values * np.exp(-c * T), atol=1e-10)


def test_anisotropic_hessian_freezes_flat_axis():
    """hessian diag(0, a, a): no dispersion along the first axis; the solution
    factorizes and the transverse factor follows the 1D closed form."""
    grid = EnvelopeGrid((24.0, 24.0, 1.0), (48, 48, 1))
    st = gaussian_state(grid, (1.0, 1.2, 1.0), [1.0])
    hess = np.diag([0.0, 1 / 0.3, 0.0])
    T = 0.4
    out = EnvelopeSolution(st, hess, None, 2e-3).state_at(200 * 2e-3)
    xs = grid.meshgrid()
    za = 1.0 - 1j * (1 / 0.3) * T / 1.2**2
    exact = np.exp(-xs[0] ** 2 / 2.0) * za**-0.5 * np.exp(-xs[1] ** 2 / (2 * 1.2**2 * za))
    assert np.max(np.abs(out.values[0] - exact)) < 1e-9


def test_weighted_norm_zero_field():
    grid = EnvelopeGrid((8.0, 8.0, 8.0), (8, 8, 8))
    st = EnvelopeState(grid, np.zeros((2, 8, 8, 8), dtype=complex))
    assert weighted_norm(st, np.eye(2)) == 0.0


def test_conservation_long_run(modulated_pipe):
    """Zero-order-free, real symmetric modulation: drift of the weighted norm
    over 1000 Strang steps stays at roundoff (<= 1e-10 relative)."""
    from blochpacket.dispersion import projected_mass
    from blochpacket.presets import identity_material, with_cos_modulation
    from blochpacket.rays import build_gamma, ray_average

    pipe = modulated_pipe
    spec = with_cos_modulation(identity_material(), (0.0, 0.0, 0.25, 0.0),
                               amplitude=0.1, target="eps1")
    op = BlochOperator.build(spec, pipe.cutoff, pipe.theta)
    gamma = build_gamma(pipe.band, op)
    ray = ray_average(gamma, pipe.dispersion.V)
    mass = projected_mass(pipe.band, op)
    grid = EnvelopeGrid((1.0, 16 * np.pi, 1.0), (1, 128, 1))
    st = gaussian_state(grid, (1.0, 1.5, 1.0), [1.0, 0.5j])
    n0 = weighted_norm(st, mass)
    env = EnvelopeSolution(st, pipe.dispersion.hessian, ray.mean_modes, 1e-3)
    out = env.state_at(1000 * 1e-3)
    n1 = weighted_norm(out, mass)
    assert abs(n1 - n0) / n0 <= 1e-10


def test_dissipative_norm_decreases(modulated_pipe):
    """Ohmic loss makes the weighted norm strictly decreasing."""
    from blochpacket.dispersion import projected_mass
    from blochpacket.presets import identity_material, with_ohmic_loss
    from blochpacket.rays import build_gamma, ray_average

    pipe = modulated_pipe
    spec = with_ohmic_loss(identity_material(), 0.05)
    op = BlochOperator.build(spec, pipe.cutoff, pipe.theta)
    gamma = build_gamma(pipe.band, op)
    ray = ray_average(gamma, pipe.dispersion.V)
    mass = projected_mass(pipe.band, op)
    grid = EnvelopeGrid((1.0, 16 * np.pi, 1.0), (1, 96, 1))
    st = gaussian_state(grid, (1.0, 1.5, 1.0), [1.0, 0.5j])
    env = EnvelopeSolution(st, pipe.dispersion.hessian, ray.mean_modes, 1e-3)
    norms = [weighted_norm(env.state_at(n * 1e-3), mass) for n in (0, 100, 200, 300, 400)]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_strang_second_order(modulated_pipe):
    """Error against a fine-step reference decays as dT^2 (slope 2.0 +- 0.1).
    Needs an x-dependent potential so the splitting error is nonzero."""
    pipe = modulated_pipe
    grid = EnvelopeGrid((1.0, 16 * np.pi, 1.0), (1, 96, 1))
    st = gaussian_state(grid, (1.0, 1.5, 1.0), [1.0, 0.5j])
    T = 0.32

    def evolved(n):
        dT = T / n
        env = EnvelopeSolution(st, pipe.dispersion.hessian, pipe.ray.mean_modes, dT)
        return env.state_at(n * dT)

    ref = evolved(1024)
    errs = []
    dts = [T / 16, T / 32, T / 64]
    for n in (16, 32, 64):
        out = evolved(n)
        errs.append(float(np.max(np.abs(out.values - ref.values))))
    slope = -np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def test_dispersion_multiplier_unitary(identity_pipe):
    grid = EnvelopeGrid((1.0, 16 * np.pi, 1.0), (1, 64, 1))
    mult = np.exp(0.5j * dispersion_form(grid, identity_pipe.dispersion.hessian) * 1e-3)
    assert np.max(np.abs(np.abs(mult) - 1.0)) < 1e-15


def test_spectral_resolution_saturated(identity_pipe):
    """Doubling the grid changes the solution by < 1e-10 for band-limited
    Gaussian data."""
    hess = identity_pipe.dispersion.hessian
    out = {}
    for m in (96, 192):
        grid = EnvelopeGrid((1.0, 16 * np.pi, 1.0), (1, m, 1))
        st = gaussian_state(grid, (1.0, 1.5, 1.0), [1.0, 0.0])
        out[m] = EnvelopeSolution(st, hess, None, 1e-3).state_at(200 * 1e-3)
    coarse = out[96].values[:, :, :, 0]
    fine = out[192].values[:, :, ::2, 0]
    assert np.max(np.abs(coarse - fine)) < 1e-10


def test_growth_bound(modulated_pipe):
    """||w(T)|| <= exp(||mean||_inf T) ||w(0)|| on the grid."""
    pipe = modulated_pipe
    grid = EnvelopeGrid((1.0, 16 * np.pi, 1.0), (1, 96, 1))
    st = gaussian_state(grid, (1.0, 1.5, 1.0), [1.0, 0.5j])
    from blochpacket.fourier import trig_sum

    pot = trig_sum(pipe.ray.mean_modes, grid.points())
    bound_rate = float(np.linalg.norm(pot.reshape(-1, 2, 2), ord=2, axis=(1, 2)).max())
    T = 0.8
    env = EnvelopeSolution(st, pipe.dispersion.hessian, pipe.ray.mean_modes, 2e-3)
    out = env.state_at(400 * 2e-3)
    eye = np.eye(st.kappa)
    assert (np.sqrt(weighted_norm(out, eye))
            <= np.exp(bound_rate * T) * np.sqrt(weighted_norm(st, eye)) * (1 + 1e-12))


def test_box_guard_rejects_wide_packet():
    grid = EnvelopeGrid((1.0, 16.0, 1.0), (1, 64, 1))
    st = gaussian_state(grid, (1.0, 3.0, 1.0), [1.0])  # 16/4 = 4 < 2 sigma
    with pytest.raises(BoxTooSmall):
        EnvelopeSolution(st, np.diag([0.0, 1.0, 0.0]), None, 1e-3).state_at(10e-3)


@pytest.mark.parametrize("T", [2.2, 3.0])
def test_state_at_independent_of_query_order(modulated_pipe, T):
    """One direct query and five evenly spaced ones give the same state, or
    both raise BoxTooSmall: at T = 2.2 the packet stays clear of the shell
    although by then more than 1e-8 of its mass has left the inner half-box;
    at T = 3.0 it reaches the shell."""
    grid = EnvelopeGrid((16 * np.pi,) * 3, (1, 128, 1))

    def outcome(times):
        env = modulated_pipe.envelope(grid, (1.0, 1.5, 1.0), [1.0, 0.5j], dT=2e-3)
        try:
            return [env.state_at(t) for t in times][-1].values
        except BoxTooSmall:
            return BoxTooSmall

    direct = outcome([T])
    stepped = outcome(np.linspace(0.0, T, 6)[1:])
    if direct is BoxTooSmall or stepped is BoxTooSmall:
        assert direct is stepped
    else:
        assert np.max(np.abs(direct - stepped)) <= 1e-12 * np.max(np.abs(direct))


def test_state_at_depends_on_T_alone():
    """On the shipped modulated config (dT = 2e-3) a query at 0.25 gives the
    same bits after a query at 0.0015 as on its own: a remainder step is
    never a base for later stepping."""
    from blochpacket.cli import Pipeline
    from blochpacket.config import load_config

    cfg = load_config(Path(__file__).parents[1] / "configs" / "wkb_modulated.json")
    pipe = Pipeline(cfg)

    def solution():
        init = gaussian_state(cfg.grid, cfg.packet.widths, pipe.packet_weights())
        return EnvelopeSolution(init, pipe.dispersion.hessian, pipe.ray.mean_modes,
                                dT=cfg.envelope_dT)

    env = solution()
    env.state_at(0.0015)
    assert cfg.envelope_dT == 2e-3
    assert np.array_equal(env.state_at(0.25).values, solution().state_at(0.25).values)


def test_field_hat_independent_of_query_order(modulated_pipe):
    """Spectral fields at T do not depend on which times were asked for
    before: only the latest T's tables are kept, and a revisited T is rebuilt."""
    grid = EnvelopeGrid((16 * np.pi,) * 3, (1, 64, 1))

    def fields(times):
        env = modulated_pipe.envelope(grid, (1.0, 1.5, 1.0), [1.0, 0.5j], dT=2e-3)
        return [env.field_hat(1, 2, (0, 1, 0), T) for T in times]

    late, early, again = fields([0.4, 0.1, 0.4])
    assert np.array_equal(early, fields([0.1])[0])
    assert np.array_equal(again, late) and np.array_equal(late, fields([0.4])[0])
    assert not np.array_equal(early, late)


@pytest.mark.parametrize("shape", [(1, 96, 1), (192, 1, 1), (8, 8, 8)])
def test_eval_hats_at_matches_per_key_reference(shape):
    """Several fields' spectra evaluated at points in one call equal each
    field's own axis-by-axis einsum evaluation, to 1e-12 relative."""
    from helpers import eval_hat_at_reference

    grid = EnvelopeGrid((20.0, 24.0, 28.0), shape)
    env = EnvelopeSolution(gaussian_state(grid, (1.0, 1.0, 1.0), [1.0]), np.eye(3), None)
    rng = np.random.default_rng(11)
    hats = rng.standard_normal((5,) + shape) + 1j * rng.standard_normal((5,) + shape)
    pts = rng.uniform(-15.0, 15.0, (37, 3))  # some outside the box: read periodically
    got = env.eval_hats_at(hats, pts)
    assert got.shape == (5, 37)
    for hat, row in zip(hats, got):
        ref = eval_hat_at_reference(grid, hat, pts)
        assert np.linalg.norm(row - ref) <= 1e-12 * np.linalg.norm(ref)


def _wkb_modulated_coupling():
    """The dispersion Hessian and the kappa = 2 ray-averaged coupling of the
    shipped modulated config (lossy: the coupling is not Hermitian)."""
    from blochpacket.cli import Pipeline
    from blochpacket.config import load_config

    cfg = load_config(Path(__file__).parents[1] / "configs" / "wkb_modulated.json")
    pipe = Pipeline(cfg)
    return pipe.dispersion.hessian, pipe.ray.mean_modes, pipe.packet_weights()


@pytest.mark.parametrize("kappa", [1, 2])
@pytest.mark.parametrize("shape", [(1, 96, 1), (32, 24, 1)])
@pytest.mark.parametrize("nsteps", [40, 40.5])
def test_planned_strang_walk_matches_unfused_steps(kappa, shape, nsteps):
    """The fused walk H D (F D)^(n-1) H, with its block stacks and transforms
    planned once, gives the state of n unfused H D H steps (einsum, fftn)
    and of the remainder step to 1e-13 relative: for a scalar potential and
    for the kappa = 2 lossy coupling, on a one-axis and a two-axis grid."""
    from helpers import strang_state_reference

    if kappa == 2:
        hess, modes, weights = _wkb_modulated_coupling()
    else:
        hess = np.diag([0.7, 1.0, 0.0])
        modes = {(0.0, 0.0, 0.0): np.array([[0.3 - 0.05j]]),
                 (0.4, 0.25, 0.0): np.array([[0.2 + 0.1j]]),
                 (-0.4, -0.25, 0.0): np.array([[0.2 - 0.1j]])}
        weights = [1.0]
    grid = EnvelopeGrid((16 * np.pi, 16 * np.pi, 1.0), shape)
    init = gaussian_state(grid, (2.0, 2.0, 1.0), weights)
    dT = 2e-3
    got = EnvelopeSolution(init, hess, modes, dT=dT).state_at(nsteps * dT).values
    ref = strang_state_reference(init, hess, modes, dT, nsteps * dT)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_whole_steps_make_one_fft_pair_and_one_block_product_each(monkeypatch):
    """n whole steps from the initial data make n FFT pairs and n + 1 block
    products (one per step and the closing half-step), and no einsum call."""
    import blochpacket.envelope as envelope

    hess, modes, weights = _wkb_modulated_coupling()
    calls = {"fft": 0, "ifft": 0, "blocks": 0, "einsum": 0}

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
        monkeypatch.setattr(np.fft, name + "n", counted(name, getattr(np.fft, name + "n")))
    monkeypatch.setattr(np, "einsum", counted("einsum", np.einsum))
    monkeypatch.setattr(envelope, "apply_grid_blocks", counted("blocks", envelope.apply_grid_blocks))
    grid = EnvelopeGrid((16 * np.pi,) * 3, (1, 96, 1))
    env = EnvelopeSolution(gaussian_state(grid, (1.0, 2.0, 1.0), weights), hess, modes, dT=2e-3)
    n = 25
    env.state_at(n * 2e-3)
    assert calls == {"fft": n, "ifft": n, "blocks": n + 1, "einsum": 0}


def test_query_that_goes_back_keeps_the_furthest_held_state(monkeypatch):
    """A query before the held whole-step state walks from the initial data
    and leaves that state held: on the shipped modulated config's envelope
    (dT = 2e-3) T = 1.0, 0.0, 1.0 make 500, 0 and 0 whole steps, and the
    third query returns the first one's bits."""
    from blochpacket.cli import Pipeline
    from blochpacket.config import load_config

    env = Pipeline(load_config(Path(__file__).parents[1] / "configs" / "wkb_modulated.json")).envelope
    steps = []
    whole_step = EnvelopeSolution._whole_step
    monkeypatch.setattr(EnvelopeSolution, "_whole_step",
                        lambda self, u, block: steps.append(1) or whole_step(self, u, block))
    counts, states = [], []
    for T in (1.0, 0.0, 1.0):
        before = len(steps)
        states.append(np.ascontiguousarray(env.state_at(T).values))
        counts.append(len(steps) - before)
    assert counts == [500, 0, 0]
    assert np.array_equal(states[2].view(np.uint64), states[0].view(np.uint64))


@pytest.mark.parametrize("shape", [(1, 48, 1), (12, 1, 10), (6, 8, 10)],
                         ids=["one_axis", "two_axes", "three_axes"])
def test_grid_transform_pair_is_fftn_over_the_varying_axes(shape, rng):
    """EnvelopeGrid.fft and ifft give the bits of np.fft.fftn and ifftn over
    the varying axes, on data with leading axes too, and the wavenumber
    table is built once and read-only."""
    grid = EnvelopeGrid((9.0, 7.0, 5.0), shape)
    axes = tuple(a - 3 for a in range(3) if shape[a] > 1)
    data = rng.standard_normal((2, 3) + shape) + 1j * rng.standard_normal((2, 3) + shape)
    for got, ref in ((grid.fft(data), np.fft.fftn(data, axes=axes)),
                     (grid.ifft(data), np.fft.ifftn(data, axes=axes))):
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    ks = grid.wavenumbers
    assert ks is grid.wavenumbers
    for a, k in enumerate(ks):
        assert k.shape == shape and not k.flags.writeable
        assert np.array_equal(np.moveaxis(k, a, 0)[:, 0, 0], grid.axis_wavenumbers(a))
        with pytest.raises(ValueError):
            k[(0, 0, 0)] = 1.0
