"""Profile construction, multi-scale assembly, and the residual hierarchy."""

import numpy as np
import pytest
from helpers import (L2, assemble_harmonics_reference, band_class_modes, curl_direction,
                     dense_operator, evaluate_table_reference, residual_reference)

from blochpacket.envelope import EnvelopeGrid, EnvelopeSolution, gaussian_state
from blochpacket.errors import CutoffMismatch
from blochpacket.harmonics import HarmonicField, seminorm
from blochpacket.wkb import (
    assemble,
    assemble_harmonics,
    build_profiles,
    evaluate_table,
    op_cell,
    residual,
    residual_orders,
)

GRID = EnvelopeGrid((1.0, 16 * np.pi, 1.0), (1, 64, 1))


@pytest.fixture(scope="module")
def identity_profiles(identity_pipe):
    env = identity_pipe.envelope(GRID, (1.0, 1.5, 1.0), [1.0, 0.5j])
    return identity_pipe.profiles(env)


@pytest.fixture(scope="module")
def modulated_profiles(modulated_pipe):
    env = modulated_pipe.envelope(GRID, (1.0, 1.5, 1.0), [1.0, 0.5j], dT=2e-3)
    return modulated_pipe.profiles(env)


@pytest.fixture(scope="module")
def mixed_profiles(mixed_pipe):
    env = mixed_pipe.envelope(GRID, (1.0, 1.5, 1.0), [1.0, 0.5j], dT=2e-3)
    return mixed_pipe.profiles(env)


@pytest.fixture(scope="module")
def layered_profiles(offaxis_layered_pipe):
    """Entries with many nonzero mode blocks."""
    pipe = offaxis_layered_pipe
    return pipe.profiles(pipe.envelope(GRID, (1.0, 1.5, 1.0), [1.0]))


# ---------------------------------------------------------------------------
# Profile structure
# ---------------------------------------------------------------------------

def test_second_corrector_outside_eigenspace(modulated_profiles):
    """The second corrector has no eigenspace component (and the complement
    part of the first corrector none either)."""
    psi = modulated_profiles.band.eigvecs
    for (eta, key), vec in modulated_profiles.w2.items():
        proj = psi.conj().T @ vec
        assert np.linalg.norm(proj) <= 1e-12 * max(np.linalg.norm(vec), 1e-30)


def test_first_corrector_complement_part(identity_profiles):
    psi = identity_profiles.band.eigvecs
    # no modulation: w1 carries only the derivative-paired complement vectors
    for (eta, key), vec in identity_profiles.w1.items():
        assert eta == (0.0, 0.0, 0.0, 0.0)
        assert key[1] == 0 and sum(key[2]) == 1
        assert np.linalg.norm(psi.conj().T @ vec) <= 1e-12 * np.linalg.norm(vec)


def test_no_fluctuation_terms_without_modulation(identity_profiles):
    kappa = identity_profiles.band.kappa
    assert len(identity_profiles.w1) == 3 * kappa


def test_first_corrector_matches_dense_pencil_solve(identity_pipe, identity_profiles):
    """The complement part solves (cell pencil) w = -(envelope operator) w0;
    cross-check one vector against a dense pseudo-inverse solve."""
    pipe = identity_pipe
    a0, g = dense_operator(pipe.spec, pipe.cutoff, pipe.theta)
    pencil = 1j * pipe.band.omega * a0 - g
    dense_pinv = np.linalg.pinv(pencil, rcond=1e-10)
    mw0 = __import__("blochpacket.wkb", fromlist=["op_envelope"]).op_envelope(
        identity_profiles.w0, identity_profiles.op, identity_profiles.dispersion.V
    )
    for key, vec in mw0.items():
        got = identity_profiles.w1[key]
        expect = -(dense_pinv @ vec)
        assert np.linalg.norm(got - expect) < 1e-9 * max(np.linalg.norm(expect), 1e-30)


def test_upstream_mismatch_rejected(identity_pipe, offaxis_layered_pipe):
    env = identity_pipe.envelope(GRID, (1.0, 1.5, 1.0), [1.0, 0.0])
    with pytest.raises(CutoffMismatch):
        build_profiles(identity_pipe.band, offaxis_layered_pipe.projectors,
                       identity_pipe.dispersion, identity_pipe.ray, env,
                       identity_pipe.op)


# ---------------------------------------------------------------------------
# Second-order operator identity on transported profiles
# ---------------------------------------------------------------------------

def test_schrodinger_operator_identity(identity_pipe, offaxis_layered_pipe, rng):
    """On comoving profiles the transported-envelope symbol of the
    envelope-scale operator equals the pencil derivative, so
    (1/2) Psi^H L''(xi) Psi = Psi^H m(xi) Q m(xi) Psi with
    m(xi) = -i[(V.xi) A0 + sum_j xi_j C_j] (the symbol carries its factors of
    i, which is where the sign convention of the operator identity lives);
    checked as kappa x kappa matrices."""
    from blochpacket.dispersion import projected_mass

    for pipe in (identity_pipe, offaxis_layered_pipe):
        a0, _g = dense_operator(pipe.spec, pipe.cutoff, pipe.theta)
        n = projected_mass(pipe.band, pipe.op)
        psi = pipe.band.eigvecs
        v = pipe.dispersion.V
        hess = pipe.dispersion.hessian
        for _ in range(3):
            xi = rng.standard_normal(3)
            q_xi = float(xi @ hess @ xi)
            lhs = 0.5j * q_xi * n  # (1/2) Psi^H (i q A0) Psi with A0-normalized N

            def m_apply(block):
                out = -1j * float(np.dot(v, xi)) * (a0 @ block)
                for j in range(3):
                    out = out - 1j * xi[j] * curl_direction(j, block)
                return out

            mpsi = m_apply(psi)
            rhs = psi.conj().T @ m_apply(pipe.projectors.apply_q(mpsi))
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, abs(q_xi))


# ---------------------------------------------------------------------------
# Residual hierarchy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("which", ["identity", "modulated", "mixed"])
def test_residual_hierarchy_vanishes(which, request):
    """mixed carries mu1 on a nonzero cell harmonic and an x-dependent
    lower-order term beside the traveling eps1 mode."""
    profs = request.getfixturevalue(f"{which}_profiles")
    rep = residual(profs, [1 / 8], horizon=0.5, num_t=3, num_x=3)[1 / 8]
    for order in ("r-1", "r0", "r1"):
        assert rep[order]["abs"] <= 1e-9 * max(rep["r1"]["scale"], 1e-12)
    assert rep["r2"]["abs"] > 0  # the budget orders are genuinely nonzero


def test_residual_shares_envelope_values_across_orders(monkeypatch):
    """Evaluating the union of the orders' keys once per slow time for every
    h gives the same report, bit for bit, as evaluating each order and each h
    on its own with freshly built order tables; over the three h of the
    config the tables are built once and the envelope is stepped to the
    horizon once."""
    from pathlib import Path

    import blochpacket.wkb as wkb
    from blochpacket.cli import Pipeline
    from blochpacket.config import load_config

    cfg = load_config(Path(__file__).parent.parent / "configs" / "wkb_modulated.json")
    profs = Pipeline(cfg).profiles()
    builds = []

    def counted_orders(profiles):
        builds.append(profiles)
        return residual_orders(profiles)

    steps = []
    strang = EnvelopeSolution._strang

    def counted_strang(w, ops):
        steps.append(1)
        return strang(w, ops)

    monkeypatch.setattr(wkb, "residual_orders", counted_orders)
    monkeypatch.setattr(EnvelopeSolution, "_strang", staticmethod(counted_strang))
    reports = residual(profs, cfg.h_list, cfg.horizon)
    assert list(reports) == list(cfg.h_list) and len(builds) == 1 and builds[0] is profs
    assert len(steps) == round(cfg.horizon / cfg.envelope_dT) == 500
    for h, report in reports.items():
        assert report == residual_reference(profs, h, t_max=cfg.horizon / h)


@pytest.mark.parametrize("which", ["identity", "modulated"])
def test_evaluate_table_matches_entry_loop(which, identity_profiles, modulated_profiles):
    """Each residual order evaluated as one product over its stacked entries
    gives the entry-by-entry sum to 1e-14 of its magnitude, and the same
    magnitude; an empty table, or one whose entries are all zero, gives
    zeros."""
    profs = identity_profiles if which == "identity" else modulated_profiles
    pts = np.stack([np.zeros(5), np.linspace(-6.0, 6.0, 5), np.zeros(5)], axis=-1)
    T, t = 0.25, 0.25 * 16
    for name, table in profs.residual_tables.items():
        vals, mag = (a[0] for a in evaluate_table(profs, table, [T], [t], pts,
                                                  stack=profs.residual_stacks[name]))
        ref_vals, ref_mag = evaluate_table_reference(profs, table, T, t, pts)
        scale = max(ref_mag.max(), 1e-300)
        assert np.abs(vals - ref_vals).max() <= 1e-14 * scale
        assert np.abs(mag - ref_mag).max() <= 1e-14 * scale
    zeros = {idx: np.zeros_like(vec) for idx, vec in profs.w1.items()}
    for table in ({}, zeros):
        vals, mag = (a[0] for a in evaluate_table(profs, table, [T], [t], pts))
        assert vals.shape == (len(pts), profs.band.eigvecs.shape[0]) and not np.any(vals)
        assert mag.shape == (len(pts),) and not np.any(mag)


@pytest.mark.parametrize("which", ["identity", "modulated"])
def test_evaluation_asks_only_for_carried_keys(which, monkeypatch, identity_profiles,
                                               modulated_profiles):
    """residual and assemble ask the envelope only for the keys that an entry
    with a nonzero vector carries; the residual tables do hold exactly-zero
    entries, whose keys are never asked for."""
    profs = identity_profiles if which == "identity" else modulated_profiles
    asked = set()
    field_hat = EnvelopeSolution.field_hat

    def counted(self, component, tder, alpha, T):
        asked.add((component, tder, tuple(alpha)))
        return field_hat(self, component, tder, alpha, T)

    def carried(tables):
        return {key for table in tables for (_eta, key), vec in table.items() if np.any(vec)}

    monkeypatch.setattr(EnvelopeSolution, "field_hat", counted)
    tables = profs.residual_tables.values()
    residual(profs, [1 / 8], horizon=0.5, num_t=2, num_x=3)
    assert asked == carried(tables)
    assert asked < {key for table in tables for (_eta, key) in table}
    asked.clear()
    assemble(profs, 1 / 8, 2.0, np.array([[0.0, 1.0, 0.0], [0.5, -2.0, 0.7]]))
    assert asked == carried(profs.tables())


def test_residual_ablation_restores_first_order(modulated_profiles):
    rep = residual(modulated_profiles.with_ablation(drop_w2=True), [1 / 8],
                   horizon=0.5, num_t=3, num_x=3)[1 / 8]
    assert rep["r1"]["abs"] > 1e-3 * rep["r1"]["scale"]


def test_residual_hand_assembled_order_two(identity_pipe):
    """Single non-resonant modulation mode, x-constant envelope: the order-2
    residual reduces to finitely many explicit terms which are re-assembled
    here by hand (dense operators, explicit phase calculus) and compared."""
    from blochpacket.bands import BlochOperator
    from blochpacket.presets import identity_material, with_cos_modulation
    from blochpacket.rays import build_gamma, ray_average
    import blochpacket.wkb as wkb

    pipe = identity_pipe
    eta = (0.7, -0.4, 0.0, 0.0)
    amp = 0.15
    spec = with_cos_modulation(identity_material(), eta, amplitude=amp, target="eps1")
    op = BlochOperator.build(spec, pipe.cutoff, pipe.theta)
    gamma = build_gamma(pipe.band, op)
    ray = ray_average(gamma, pipe.dispersion.V)

    # x-constant envelope: single grid point per axis
    grid1 = EnvelopeGrid((2 * np.pi, 2 * np.pi, 2 * np.pi), (1, 1, 1))
    weights = np.array([1.0, 0.5j])
    weights /= np.linalg.norm(weights)
    init = gaussian_state(grid1, (1.0, 1.0, 1.0), weights)
    env = EnvelopeSolution(init, pipe.dispersion.hessian, ray.mean_modes)
    profs = build_profiles(pipe.band, pipe.projectors, pipe.dispersion, ray, env, op)

    t, x = 0.8, np.array([0.4, -0.2, 1.0])
    table_r2 = wkb._merge(
        wkb.op_envelope(profs.w2, op, pipe.dispersion.V),
        wkb.op_slow(profs.w1, op, pipe.band.omega),
        wkb.op_dt_modulation(profs.w0, op, pipe.dispersion.V),
    )
    got, _mag = (a[0] for a in evaluate_table(profs, table_r2, [0.0], [t],
                                              (x - pipe.dispersion.V * t)[None, :]))

    # hand assembly: w0 = Psi . weights (constant), gamma has two modes +-eta,
    # g = sum c_pm (e^{i eta.(t,x)} - e^{i eta_s.(x - V t)}), Pi w1 = -g w0,
    # (I - Pi) w1 = 0 (no x-derivatives), w2 = -Q (M w1 + N w0).
    a0, _g = dense_operator(spec, pipe.cutoff, pipe.theta)
    psi = pipe.band.eigvecs
    v = pipe.dispersion.V
    q = pipe.projectors.apply_q(np.eye(len(a0), dtype=complex))
    w0vec = psi @ weights
    etas = [np.array(eta), -np.array(eta)]
    coefs = [gamma.modes[tuple(np.array(eta))], gamma.modes[tuple(-np.array(eta))]]

    def a01_vec(vec6k):
        # eps1 coefficient is (amp/2) I at both +-eta, acting on the E block
        arr = vec6k.reshape(-1, 6).copy()
        arr[:, 3:] = 0.0
        return (amp / 2) * arr.reshape(-1)

    def phase(fr, tt, xx):
        return np.exp(1j * (fr[0] * tt + np.dot(fr[1:], xx)))

    # N w0 at (t, x): i omega A01 w0 (no slow-time term: envelope constant and
    # mean field zero)
    nw0 = sum(
        phase(fr, t, x) * 1j * pipe.band.omega * a01_vec(w0vec) for fr in etas
    )
    # Pi w1 = -g w0 with g per mode, comoving phase at eta_r = (-eta_s.V, eta_s)
    def g_scalar_terms(tt, xx):
        out = []
        for fr, c in zip(etas, coefs):
            div = 1j * (fr[0] + np.dot(fr[1:], v))
            cmat = c / div
            out.append((phase(fr, tt, xx), cmat))
            fr_r = np.concatenate([[-np.dot(fr[1:], v)], fr[1:]])
            out.append((-phase(fr_r, tt, xx), cmat))
        return out

    def w1_at(tt, xx):
        acc = np.zeros_like(w0vec)
        for ph, cmat in g_scalar_terms(tt, xx):
            acc -= ph * (psi @ (cmat @ weights))
        return acc

    # M w1 via fourth-order finite differences in (t, x) of w1_at
    s = 1e-3
    c4 = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * s)
    offs = np.array([-2, -1, 1, 2]) * s

    def mw1_at(tt, xx):
        dt = sum(c * w1_at(tt + o, xx) for c, o in zip(c4, offs))
        out = a0 @ dt
        for j in range(3):
            ej = np.zeros(3)
            ej[j] = 1.0
            dj = sum(c * w1_at(tt, xx + o * ej) for c, o in zip(c4, offs))
            out -= curl_direction(j, dj)
        return out

    def nw0_at(tt, xx):
        return sum(phase(fr, tt, xx) * 1j * pipe.band.omega * a01_vec(w0vec) for fr in etas)

    def w2_at(tt, xx):
        return -(q @ (mw1_at(tt, xx) + nw0_at(tt, xx)))

    def dt_a01_w0(tt, xx):
        # d/dt of A0^1(t,x) w0 with w0 constant
        return sum(1j * fr[0] * phase(fr, tt, xx) * a01_vec(w0vec) for fr in etas)

    # r2 = M w2 + N w1 + d_t(A01 w0); N w1 = A0 dT w1 (zero: no T-dependence
    # in g or weights ... dT c = -mean c = 0) + i omega A01 w1 + M_lower w1 (none)
    def mw2_at(tt, xx):
        dt = sum(c * w2_at(tt + o, xx) for c, o in zip(c4, offs))
        out = a0 @ dt
        for j in range(3):
            ej = np.zeros(3)
            ej[j] = 1.0
            dj = sum(c * w2_at(tt, xx + o * ej) for c, o in zip(c4, offs))
            out -= curl_direction(j, dj)
        return out

    def nw1_at(tt, xx):
        return sum(phase(fr, tt, xx) * 1j * pipe.band.omega * a01_vec(w1_at(tt, xx)) for fr in etas)

    expect = mw2_at(t, x) + nw1_at(t, x) + dt_a01_w0(t, x)
    assert np.linalg.norm(got[0] - expect) < 1e-7 * max(np.linalg.norm(expect), 1e-12)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def test_assemble_constant_envelope_exact(identity_pipe):
    """x-constant envelope, no modulation: all correctors vanish and the field
    at t = 0, h = 1 is exactly the eigenvector combination."""
    pipe = identity_pipe
    grid1 = EnvelopeGrid((2 * np.pi, 2 * np.pi, 2 * np.pi), (1, 1, 1))
    weights = np.array([1.0, 0.5j])
    weights /= np.linalg.norm(weights)
    init = gaussian_state(grid1, (1.0, 1.0, 1.0), weights)
    env = EnvelopeSolution(init, pipe.dispersion.hessian, pipe.ray.mean_modes)
    profs = pipe.profiles(env)
    pts = np.array([[0.0, 0.0, 0.0], [0.3, -1.0, 2.0]])
    fld = assemble(profs, 1.0, 0.0, pts)
    # manual: exp(i theta.x) sum_n psi_hat(n) exp(i n.x) with weights
    vec = (pipe.band.eigvecs @ weights).reshape(-1, 6)
    for p, sample in zip(pts, fld.samples):
        phases = np.exp(1j * (pipe.cutoff.modes @ p)) * np.exp(1j * np.dot(pipe.theta, p))
        expect = (phases[:, None] * vec).sum(axis=0)
        assert np.allclose(sample, expect, atol=1e-12)


def test_assemble_phase_periodicity(identity_pipe):
    """Constant-coefficient case with x-constant envelope: fields at t and
    t + 2 pi h / omega coincide to machine precision."""
    pipe = identity_pipe
    grid1 = EnvelopeGrid((2 * np.pi, 2 * np.pi, 2 * np.pi), (1, 1, 1))
    weights = np.array([1.0, 1.0j]) / np.sqrt(2)
    init = gaussian_state(grid1, (1.0, 1.0, 1.0), weights)
    env = EnvelopeSolution(init, pipe.dispersion.hessian, pipe.ray.mean_modes)
    profs = pipe.profiles(env)
    h = 1 / 8
    pts = np.array([[0.1, 0.2, -0.4]])
    t0 = 0.7
    f0 = assemble(profs, h, t0, pts)
    f1 = assemble(profs, h, t0 + 2 * np.pi * h / pipe.band.omega, pts)
    assert np.allclose(f0.samples, f1.samples, atol=1e-12)


def test_assemble_deterministic(identity_profiles):
    pts = np.array([[0.0, 1.0, 0.0], [0.5, -2.0, 0.7]])
    a = assemble(identity_profiles, 1 / 8, 0.0, pts)
    b = assemble(identity_profiles, 1 / 8, 0.0, pts)
    assert np.array_equal(a.samples, b.samples)


@pytest.mark.parametrize("which", ["identity", "modulated", "layered"])
def test_assemble_harmonics_matches_mode_loop(which, identity_profiles, modulated_profiles,
                                              layered_profiles, offaxis_layered_pipe):
    profs = {"identity": identity_profiles, "modulated": modulated_profiles,
             "layered": layered_profiles}[which]
    got = {n: d[0] for n, d in assemble_harmonics(profs, 1 / 8, [3.0], GRID).items()}
    ref = assemble_harmonics_reference(profs, 1 / 8, 3.0, GRID)
    scale = max(np.abs(d).max() for d in ref.values())
    # a harmonic is held, or absent and exactly zero in the reference
    assert set(got) <= set(ref)
    for n in ref:
        if n in got:
            assert np.abs(got[n] - ref[n]).max() <= 1e-15 * scale
        else:
            assert not np.any(ref[n])
    if which == "layered":
        assert set(got) == band_class_modes(offaxis_layered_pipe)


@pytest.mark.parametrize("t", [0.0, 3.0])
@pytest.mark.parametrize("which", ["identity", "modulated", "layered"])
def test_assemble_is_the_carrier_sum_of_harmonics(which, t, identity_profiles, modulated_profiles,
                                                  layered_profiles):
    """assemble at the envelope grid's points equals
    sum_n exp(i (theta + n).x / h) assemble_harmonics(...)[n] to 1e-13 of
    the field's maximum."""
    profs = {"identity": identity_profiles, "modulated": modulated_profiles,
             "layered": layered_profiles}[which]
    h = 1 / 8
    pts = GRID.points().reshape(-1, 3)
    got = assemble(profs, h, t, pts).samples
    expect = sum(np.exp(1j * (pts @ (profs.band.theta + np.asarray(n))) / h)[:, None]
                 * d[0].reshape(6, -1).T
                 for n, d in assemble_harmonics(profs, h, [t], GRID).items())
    assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


def test_norm_stable_in_h(identity_profiles):
    """||v(t)|| is h-independent to O(h) for a fixed envelope."""
    norms = {}
    for h in (1 / 8, 1 / 16, 1 / 32):
        harm = assemble_harmonics(identity_profiles, h, [0.0], GRID)
        field = HarmonicField(identity_profiles.band.theta, h, np.zeros(1), GRID, harm)
        norms[h] = seminorm(field, [L2])[L2][0]
    base = norms[1 / 32]
    assert abs(norms[1 / 8] - base) < 0.4 * base * (1 / 8)
    assert abs(norms[1 / 16] - base) < 0.4 * base * (1 / 16)
