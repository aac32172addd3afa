"""Reference oracles: constant-coefficient closed forms, packet synthesis, and
the time-domain integrator."""

import re

import numpy as np
import pytest
from helpers import L2, apply_curl_block, constant_eigenfield, physical_field

from blochpacket.bands import BlochOperator, solve_bands
from blochpacket.envelope import EnvelopeGrid
from blochpacket.errors import ConfigError
from blochpacket.fourier import LatticeCutoff
from blochpacket.harmonics import difference, seminorm
from blochpacket.oracles import (
    ExactPacketSpec,
    constant_spectrum,
    exact_constant_solution,
    synthesize_exact_packet,
    time_domain_solve,
)
from blochpacket.presets import identity_material, layered, layered_anisotropic, scaled_identity

THETA = np.array([0.3, 0.0, 0.0])


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

def test_exact_constant_solution_basic():
    omega, e, b = exact_constant_solution(THETA, (0, 0, 0))
    assert abs(omega - 0.3) < 1e-15
    assert abs(np.dot(THETA, e)) < 1e-14
    # polarization plane is span{e2, e3}
    assert abs(e[0]) < 1e-14
    omega_m, _e, _b = exact_constant_solution(THETA, (0, 0, 0), sign=-1)
    assert abs(omega_m + 0.3) < 1e-15


def test_exact_constant_eigenfield_is_kernel_vector(identity_pipe):
    """The closed-form vector satisfies the spectral problem: curl block
    applied equals i omega times it (vacuum material)."""
    cut = LatticeCutoff(1)
    f = constant_eigenfield(cut, THETA, (0, 0, 0), None, sign=+1).reshape(-1, 6)
    out = apply_curl_block(cut, THETA, f)
    assert np.linalg.norm(out - 1j * 0.3 * f) < 1e-14


def test_longitudinal_gives_zero():
    cut = LatticeCutoff(0)
    vhat = THETA / np.linalg.norm(THETA)
    coeffs = np.zeros((1, 6), dtype=complex)
    coeffs[0, :3] = vhat
    coeffs[0, 3:] = 2.0 * vhat
    assert np.linalg.norm(apply_curl_block(cut, THETA, coeffs)) < 1e-15


def test_polarization_must_be_transverse():
    with pytest.raises(ConfigError):
        exact_constant_solution(THETA, (0, 0, 0), e_pol=[1.0, 0.0, 0.0])


def test_solver_cross_check_subspace_angle(identity_pipe):
    """Eigenvalues to 1e-10 and subspace angle <= 1e-9 against the closed form."""
    pipe = identity_pipe
    cut = pipe.cutoff
    computed = np.sort(np.concatenate([[b.omega] * b.kappa for b in
                                       solve_bands(pipe.op, 4 * cut.num_modes)]))
    exact = np.sort(constant_spectrum(cut, THETA))
    assert np.max(np.abs(computed - exact)) < 1e-10
    # subspace angle of the omega = +0.3 eigenplane
    closed = np.stack([
        constant_eigenfield(cut, THETA, (0, 0, 0), [0, 1, 0], +1),
        constant_eigenfield(cut, THETA, (0, 0, 0), [0, 0, 1], +1),
    ], axis=1)
    overlap = np.linalg.svd(pipe.band.eigvecs.conj().T @ closed, compute_uv=False)
    assert np.all(np.abs(overlap - 1.0) < 1e-9)


# ---------------------------------------------------------------------------
# Packet synthesis
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def packet_setup(identity_pipe):
    h = 1 / 16
    weights = np.array([1.0, 0.5j])
    weights /= np.linalg.norm(weights)
    packet = ExactPacketSpec(THETA, h, (1.0, 1.5, 1.0), weights, axes=(1,),
                             nodes=81, nodes_check=61)
    grid = EnvelopeGrid((16 * np.pi,) * 3, (1, 192, 1))
    return identity_pipe, packet, grid


def test_synthesis_initial_data_vs_uniform_rule(packet_setup):
    """Gauss-Legendre synthesis at t=0 against an independent uniform-grid
    (FFT-style trapezoid) quadrature of the same Bloch integral."""
    pipe, packet, grid = packet_setup
    res, _err = synthesize_exact_packet(packet, pipe.band, pipe.op, [0.0], grid,
                                        estimate_error=False)
    gl = res.data[(0, 0, 0)][0]

    # uniform-rule reconstruction with the closed-form eigenpair gauge chained
    # from the band basis, matching the synthesis convention
    from blochpacket.oracles import _node_bands

    r = packet.support_sigmas / packet.widths[1]
    zs = np.linspace(-r, r, 4001)
    zeta = np.zeros((len(zs), 3))
    zeta[:, 1] = zs
    _omegas, bases = _node_bands(pipe.band, pipe.op, packet.h, zeta)
    amp = packet.spectrum_amplitude(zeta) * (zs[1] - zs[0])
    amp[0] *= 0.5
    amp[-1] *= 0.5
    x2 = grid.axis_coords(1)
    acc = np.zeros((6, len(x2)), dtype=complex)
    i0 = pipe.cutoff.index_of((0, 0, 0))
    for q in range(len(zs)):
        vec = (bases[q] @ packet.weights).reshape(-1, 6)[i0]
        acc += amp[q] * vec[:, None] * np.exp(1j * x2 * zs[q])[None, :]
    got = gl[:, 0, :, 0]
    assert np.max(np.abs(got - acc)) < 1e-7 * np.max(np.abs(acc))


@pytest.mark.parametrize("axes", [(1,), (0, 1)])
def test_batched_vacuum_walk_matches_node_by_node_walk(axes, identity_pipe):
    """The vacuum closed form evaluated for the whole node set at once, then
    aligned node by node, gives the omega (to a few ulp: a stacked norm sums
    in another order than one vector's) and, to 1e-14, the eigenvectors of a
    walk that builds each node's constant_eigenfield vectors on its own: on
    a line of nodes and on a tensor set with tied distances."""
    from helpers import vacuum_walk_reference

    from blochpacket.oracles import _gl_nodes, _node_bands

    pipe = identity_pipe
    packet = ExactPacketSpec(THETA, 1 / 32, (2.0, 2.0, 1.0), [1.0, 0.0], axes=axes, nodes=11)
    zeta, _wts = _gl_nodes(packet, packet.nodes)
    omegas, bases = _node_bands(pipe.band, pipe.op, packet.h, zeta)
    ref = vacuum_walk_reference(pipe.band, pipe.cutoff, packet.h, zeta)
    assert len(omegas) == len(bases) == len(ref) == len(zeta)
    for omega, basis, (ref_omega, ref_basis) in zip(omegas, bases, ref):
        assert abs(omega - ref_omega) <= 4 * np.finfo(float).eps * abs(ref_omega)
        assert np.max(np.abs(basis - ref_basis)) <= 1e-14


def test_inward_neighbor_matches_reference_loop():
    """The vectorized inward-neighbour search, in row chunks, picks for every
    node the node a linear scan over the nodes before it picks, ties
    included (first minimum)."""
    from helpers import nearest_visited

    import blochpacket.oracles as oracles

    x, _w = np.polynomial.legendre.leggauss(9)
    grids = np.meshgrid(4 * x, 4 * x, [0.0], indexing="ij")
    keys = {tuple(np.round(z, 14)) for z in np.stack([g.ravel() for g in grids], axis=-1)}
    center = tuple(np.round(np.zeros(3), 14))
    order = [center] + sorted(keys - {center}, key=lambda z: (np.abs(z).max(), np.linalg.norm(z)))
    assert len(order) == 81
    ref = [order.index(nearest_visited(z, order[:i])) for i, z in enumerate(order[1:], start=1)]
    for entries in (oracles.NEIGHBOR_ENTRIES, 200):  # one chunk, and chunks of 2 rows
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracles, "NEIGHBOR_ENTRIES", entries)
            assert oracles._inward_neighbors(np.array(order)).tolist() == ref


def test_vacuum_walk_raises_for_the_reference_walks_first_failing_node(identity_pipe,
                                                                        monkeypatch):
    """With OVERLAP_TOL set between the smallest and largest node overlaps,
    the batched walk raises GaugeError naming the first node, in walk order,
    whose overlap with its inward neighbour falls below it, as a
    node-by-node walk finds it."""
    from helpers import _walk_order, nearest_visited

    import blochpacket.oracles as oracles
    from blochpacket.bands import procrustes_align
    from blochpacket.errors import GaugeError

    pipe = identity_pipe
    packet = ExactPacketSpec(THETA, 1 / 16, (2.0, 2.0, 1.0), [1.0, 0.0], axes=(0, 1), nodes=9)
    zeta, _wts = oracles._gl_nodes(packet, packet.nodes)
    order, _keys = _walk_order(zeta)
    visited, bases, overlaps = [np.zeros(3)], {(0.0, 0.0, 0.0): pipe.band.eigvecs}, []
    for z in order:
        prev = bases[tuple(nearest_visited(z, visited))]
        theta = pipe.band.theta + packet.h * np.asarray(z)
        basis = np.stack([constant_eigenfield(pipe.cutoff, theta, (0, 0, 0), u, 1)
                          for u in oracles.transverse_pair(theta)], axis=1)
        bases[z], s = procrustes_align(basis, prev)
        overlaps.append(s.min())
        visited.append(np.asarray(z))
    tol = 0.5 * (min(overlaps) + max(overlaps))
    first = order[int(np.argmax(np.array(overlaps) < tol))]
    monkeypatch.setattr(oracles, "OVERLAP_TOL", tol)
    with pytest.raises(GaugeError, match=rf"at zeta={re.escape(str(tuple(map(float, first))))}"):
        oracles._node_bands(pipe.band, pipe.op, packet.h, zeta)


def test_vacuum_walk_runs_on_a_two_axis_set_of_89_squared_nodes(identity_pipe, monkeypatch):
    """The main rule's two-axis node set at 89 nodes per axis (7921 nodes)
    walks with one batched SVD: every node gets its closed-form omega and an
    orthonormal basis."""
    from blochpacket.oracles import _gl_nodes, _node_bands

    pipe = identity_pipe
    packet = ExactPacketSpec(THETA, 1 / 32, (2.0, 2.0, 1.0), [1.0, 0.0], axes=(0, 1), nodes=89)
    zeta, _wts = _gl_nodes(packet, packet.nodes)
    svds, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    omegas, bases = _node_bands(pipe.band, pipe.op, packet.h, zeta)
    assert len(svds) == 1
    assert omegas.shape == (89 * 89,) and bases.shape == (89 * 89,) + pipe.band.eigvecs.shape
    exact = np.linalg.norm(pipe.band.theta + packet.h * zeta, axis=1)
    assert np.max(np.abs(omegas - exact)) <= 1e-14
    gram = np.conj(np.swapaxes(bases, -1, -2)) @ bases
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-13


def test_synthesis_quadrature_estimate(identity_pipe):
    """On a box the 41-node rule resolves, synthesis with 41 nodes agrees with
    a dense 101-node reference to 1e-8."""
    pipe = identity_pipe
    h = 1 / 16
    weights = np.array([1.0, 0.5j])
    weights /= np.linalg.norm(weights)
    grid = EnvelopeGrid((6 * np.pi,) * 3, (1, 96, 1))
    fields = {}
    for n in (41, 101):
        packet = ExactPacketSpec(THETA, h, (1.0, 1.5, 1.0), weights, axes=(1,),
                                 nodes=n, nodes_check=n - 10)
        fields[n], _err = synthesize_exact_packet(packet, pipe.band, pipe.op, [2.0], grid,
                                                  estimate_error=False)
    diff = seminorm(difference(fields[41], fields[101]), [L2])[L2]
    assert diff < 1e-8 * seminorm(fields[101], [L2])[L2]


def test_synthesis_center_moves_at_group_velocity(identity_pipe):
    """Center of energy drifts at V to O(h): fitted speed within 1e-2 at
    h = 1/32.  Spectrum along the propagation axis so transport is visible."""
    pipe = identity_pipe
    h = 1 / 32
    weights = np.array([1.0, 0.0])
    packet = ExactPacketSpec(THETA, h, (1.5, 1.0, 1.0), weights, axes=(0,),
                             nodes=81, nodes_check=61)
    grid = EnvelopeGrid((16 * np.pi,) * 3, (192, 1, 1))
    x1 = grid.axis_coords(0)

    def center(res, j):
        dens = sum(np.sum(np.abs(d[j]) ** 2, axis=0)[:, 0, 0] for d in res.data.values())
        return float(np.sum(x1 * dens) / np.sum(dens))

    t1 = 2.0
    res, _err = synthesize_exact_packet(packet, pipe.band, pipe.op, [0.0, t1], grid,
                                        estimate_error=False)
    speed = (center(res, 1) - center(res, 0)) / t1
    assert abs(speed - pipe.dispersion.V[0]) < 1e-2


def test_synthesis_nodes_cross_cell_boundary():
    """Non-vacuum nodes follow the band on the unwrapped theta lattice: the
    spectrum support h*R = 0.25 around theta_1 = 0.95 crosses theta_1 = 1,
    and every node's omega matches the medium's closed form
    |theta + h*zeta - e_1| / 2 (eps = 4, band 1 sits on the mode n = -e_1)."""
    from blochpacket.oracles import _gl_nodes, _node_bands

    op = BlochOperator.build(scaled_identity(4.0), LatticeCutoff(1), np.array([0.95, 0.3, 0.0]))
    theta = op.theta
    band = next(b for b in solve_bands(op, 8) if b.band_index == 1)
    packet = ExactPacketSpec(theta, 1 / 8, (3.0, 1.0, 1.0), [1.0, 0.0], axes=(0,),
                             nodes=61)
    zeta, _wts = _gl_nodes(packet, packet.nodes)
    omegas, _bases = _node_bands(band, op, packet.h, zeta)
    e1 = np.array([1.0, 0.0, 0.0])
    for z, omega in zip(zeta, omegas):
        assert abs(omega - np.linalg.norm(theta + packet.h * z - e1) / 2) < 1e-12


def test_multi_time_synthesis_matches_single_times(monkeypatch):
    """One call for several output times prepares the quadrature nodes once
    (the node eigenpairs do not depend on t) and returns, per time, exactly
    the harmonics and quadrature error of a single-time call."""
    import blochpacket.oracles as oracles

    prepares, solves = [], []
    node_bands, continue_bands = oracles._node_bands, oracles.continue_bands

    def counted_node_bands(band, op, h, zeta):
        prepares.append(len(zeta))
        return node_bands(band, op, h, zeta)

    def counted_continue(*args, **kwargs):
        solves.extend(args[1])
        return continue_bands(*args, **kwargs)

    monkeypatch.setattr(oracles, "_node_bands", counted_node_bands)
    monkeypatch.setattr(oracles, "continue_bands", counted_continue)

    op = BlochOperator.build(scaled_identity(4.0), LatticeCutoff(1), THETA)
    band = next(b for b in solve_bands(op, 8) if b.band_index == 1)
    packet = ExactPacketSpec(THETA, 1 / 16, (1.0, 1.5, 1.0), [1.0, 0.0], axes=(1,),
                             nodes=21, nodes_check=15)
    grid = EnvelopeGrid((16 * np.pi,) * 3, (1, 32, 1))
    times = [0.0, 1.5, 4.0]
    multi, multi_err = synthesize_exact_packet(packet, band, op, times, grid)
    assert len(prepares) == 1
    node_solves = len(solves)
    assert node_solves > 0

    for j, t in enumerate(times):
        prepares.clear()
        solves.clear()
        single, single_err = synthesize_exact_packet(packet, band, op, [t], grid)
        assert len(prepares) == 1 and len(solves) == node_solves
        assert multi.t[j] == single.t[0] == t
        assert multi_err[j] == single_err[0]
        assert multi.data.keys() == single.data.keys()
        for n in multi.data:
            assert np.array_equal(multi.data[n][j], single.data[n][0])


def test_legendre_rule_is_computed_once_and_read_only():
    """A second call for the same node count returns the first call's rule:
    the leggauss arrays, which no caller can write."""
    from blochpacket.oracles import _legendre

    first, second = _legendre(7), _legendre(7)
    for got, again, ref in zip(first, second, np.polynomial.legendre.leggauss(7)):
        assert np.array_equal(got, ref) and np.array_equal(again, ref)
        assert not got.flags.writeable and not again.flags.writeable
    with pytest.raises(ValueError):
        second[0][0] = 0.0


def test_check_rule_is_built_only_to_estimate_the_error(identity_pipe, monkeypatch):
    """The lower-order rule (nodes_check) is built, and its nodes prepared,
    only when the quadrature error is estimated."""
    import blochpacket.oracles as oracles

    rules = []
    gl_nodes = oracles._gl_nodes
    monkeypatch.setattr(oracles, "_gl_nodes",
                        lambda packet, n: rules.append(n) or gl_nodes(packet, n))
    packet = ExactPacketSpec(THETA, 1 / 16, (1.0, 1.5, 1.0), [1.0, 0.0], axes=(1,),
                             nodes=21, nodes_check=15)
    grid = EnvelopeGrid((16 * np.pi,) * 3, (1, 32, 1))
    _field, err = synthesize_exact_packet(packet, identity_pipe.band, identity_pipe.op,
                                          [0.0, 1.0], grid, estimate_error=False)
    assert rules == [21] and np.all(err == 0.0)
    _field, err = synthesize_exact_packet(packet, identity_pipe.band, identity_pipe.op,
                                          [0.0, 1.0], grid)
    assert rules == [21, 21, 15] and np.all(err > 0.0)


def test_stacked_sweep_matches_per_time_loop(identity_pipe):
    """validate's sup errors, every output time of an h in one stack, equal
    those of a loop that synthesizes, assembles and measures one time at a
    time, bit for bit, for every seminorm pair and h."""
    from helpers import sup_errors_reference

    from blochpacket.cli import sup_errors
    from blochpacket.harmonics import weighted_indices

    grid = EnvelopeGrid((16 * np.pi,) * 3, (1, 96, 1))
    widths, weights = (1.0, 1.5, 1.0), np.array([1.0, 0.5j]) / np.sqrt(1.25)
    profs = identity_pipe.profiles(identity_pipe.envelope(grid, widths, weights))
    pairs = weighted_indices(2, (1,))
    for h in (1 / 8, 1 / 16):
        packet = ExactPacketSpec(THETA, h, widths, weights, axes=(1,), nodes=31)
        times = np.linspace(0.0, 0.5 / h, 5)
        got = sup_errors(profs, packet, times, grid, pairs)
        assert got == sup_errors_reference(profs, packet, times, grid, pairs)
        assert got[L2] > 0.0


def test_layered_node_walk_matches_per_node_walk(offaxis_layered_pipe, monkeypatch):
    """On a layered medium the node set is one stacked continuation: each
    node's omega, band index and basis are those of continuing its inward
    neighbour one node at a time."""
    from helpers import node_walk_reference

    import blochpacket.oracles as oracles

    walked, continue_bands = [], oracles.continue_bands

    def recorded_continue(*args, **kwargs):
        for cont in continue_bands(*args, **kwargs):
            walked.append(cont.band)
            yield cont

    monkeypatch.setattr(oracles, "continue_bands", recorded_continue)
    pipe = offaxis_layered_pipe
    packet = ExactPacketSpec(pipe.theta, 1 / 32, (3.0, 2.0, 1.0), [1.0], axes=(0, 1), nodes=5)
    zeta, _wts = oracles._gl_nodes(packet, packet.nodes)
    omegas, bases = oracles._node_bands(pipe.band, pipe.op, packet.h, zeta)
    ref = node_walk_reference(pipe.band, pipe.op, packet.h, zeta)
    assert len(omegas) == len(bases) == len(ref) == len(zeta)
    for omega, basis, (want, _gap) in zip(omegas, bases, ref):
        assert abs(omega - want.omega) <= 1e-13
        assert np.linalg.norm(basis.conj().T @ want.eigvecs - np.eye(want.kappa)) <= 1e-10
    # every node but the center is walked once, with the reference's band index
    index_at = {tuple(want.theta): want.band_index for want, _gap in ref}
    assert len(walked) == len(zeta) - 1
    assert all(index_at[tuple(got.theta)] == got.band_index for got in walked)


@pytest.mark.parametrize("which", ["identity", "layered"])
def test_synthesize_matches_node_loop(which, identity_pipe, offaxis_layered_pipe):
    """One matrix product over the nodes per output time gives the node-by-node
    quadrature sum on the grid to 1e-12 relative; the harmonics held are the
    modes of the band's class."""
    from helpers import band_class_modes, synthesize_reference

    from blochpacket.oracles import _gl_nodes, _node_bands, _synthesize

    pipe = identity_pipe if which == "identity" else offaxis_layered_pipe
    weights = np.ones(pipe.band.kappa) / np.sqrt(pipe.band.kappa)
    packet = ExactPacketSpec(pipe.theta, 1 / 32, (3.0, 1.0, 1.0), weights, axes=(0,),
                             nodes=21)
    zeta, wts = _gl_nodes(packet, packet.nodes)
    omegas, bases = _node_bands(pipe.band, pipe.op, packet.h, zeta)
    grid = EnvelopeGrid((16 * np.pi, 2 * np.pi, 2 * np.pi), (48, 1, 1))
    times = np.array([0.0, 1.5, 4.0])
    field = _synthesize(packet, pipe.cutoff, omegas, bases, zeta, wts, times, grid)
    for j, t in enumerate(times):
        harmonics = {n: d[j] for n, d in field.data.items()}
        ref_harmonics = synthesize_reference(packet, pipe.cutoff, omegas, bases, zeta, wts, t,
                                             grid)
        # a harmonic is held, or absent and exactly zero in the reference
        assert set(harmonics) <= set(ref_harmonics)
        assert all(not np.any(d) for n, d in ref_harmonics.items() if n not in harmonics)
        got = np.stack([harmonics[n] for n in harmonics])
        ref = np.stack([ref_harmonics[n] for n in harmonics])
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    assert set(harmonics) == band_class_modes(pipe)


def test_synthesis_requires_static_medium(identity_pipe):
    """A modulated medium is refused."""
    from blochpacket.presets import with_ohmic_loss

    spec = with_ohmic_loss(identity_material(), 0.1)
    packet = ExactPacketSpec(THETA, 1 / 8, (1.0, 1.5, 1.0), [1.0, 0.0], axes=(1,))
    grid = EnvelopeGrid((16 * np.pi,) * 3, (1, 32, 1))
    with pytest.raises(ConfigError):
        synthesize_exact_packet(packet, identity_pipe.band,
                                BlochOperator.build(spec, identity_pipe.cutoff, THETA), [0.0],
                                grid)


def test_synthesis_satisfies_time_domain_equations(identity_pipe):
    """P^h applied to the synthesized field (time derivative via fourth-order
    differences of the synthesis, spatial derivatives spectral) vanishes
    within the quadrature and stencil error."""
    pipe = identity_pipe
    h = 1 / 16
    weights = np.array([1.0, 0.5j])
    weights /= np.linalg.norm(weights)
    # spectrum radius 6/2.0 = 3 keeps theta + h*zeta well inside the band's
    # validity ball (h R = 0.1875 < 0.3, the distance to the excluded point)
    # node count resolves the zeta-oscillation out to the box edge
    # ((L/2)*R = 47 rad, GL-61 margin ~ 22), so the synthesized field is clean
    # through the periodic seam
    packet = ExactPacketSpec(THETA, h, (2.0, 1.0, 1.0), weights, axes=(0,),
                             nodes=61, nodes_check=41)
    grid = EnvelopeGrid((10 * np.pi, 2 * np.pi, 2 * np.pi), (640, 1, 1))

    t0 = 0.5
    s = 1e-3
    c4 = np.array([1.0, -8.0, 8.0, -1.0]) / (12 * s)
    times = t0 + np.array([-2, -1, 1, 2, 0]) * s
    # the carriers exp(i (theta + n).x / h) are periodic on this box
    synth, _err = synthesize_exact_packet(packet, pipe.band, pipe.op, times, grid,
                                          estimate_error=False)
    fields = physical_field(synth)
    dudt = sum(c * f for c, f in zip(c4, fields[:4]))
    u = fields[4]
    from helpers import planned_curl_pair

    residual = dudt - planned_curl_pair(u, grid)  # vacuum: d/dt u - (curl B, -curl E) = 0
    scale = np.max(np.abs(u))
    assert np.max(np.abs(residual)) < 1e-7 * scale


# ---------------------------------------------------------------------------
# Time domain
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(64, 1, 1), (16, 1, 8), (8, 8, 8)])
def test_spectral_curl_div_match_3axis_reference(shape, rng):
    """The planned curl pair (curl B, -curl E) of the RK4 right-hand side,
    zero in the rows it does not write, equals two 3-axis reference curls,
    and the divergence its reference."""
    from helpers import planned_curl_pair, spectral_curl_reference, spectral_div_reference

    from blochpacket.oracles import _spectral_div

    grid = EnvelopeGrid((9.0, 7.0, 5.0), shape)
    ks = grid.wavenumbers
    field3 = rng.standard_normal((3,) + shape) + 1j * rng.standard_normal((3,) + shape)
    field6 = np.concatenate([field3, np.roll(field3.conj(), 1, axis=0)])  # (E, B), B != E
    pair = np.concatenate([spectral_curl_reference(field6[3:], ks),
                           -spectral_curl_reference(field6[:3], ks)])
    for got, ref in ((planned_curl_pair(field6, grid), pair),
                     (_spectral_div(field3, grid), spectral_div_reference(field3, ks))):
        assert got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("lossy", [False, True], ids=["static", "ohmic"])
@pytest.mark.parametrize("shape", [(64, 1, 1), (16, 1, 8)])
def test_rk4_rhs_matches_6x6_reference(shape, lossy, rng):
    """The planned RK4 right-hand side, from the rows of the 3x3 inverse
    blocks the curl reads and the curl of the components its varying axes
    reach, equals the stage with a 6x6 inverse applied by einsum and all six
    components transformed.  Without M the rows it does not return are
    exactly zero in the reference; with M it returns all six."""
    from helpers import rk4_rhs_reference

    from blochpacket.oracles import _curl_plan, _grid_major, _GridMaterial, _rhs
    from blochpacket.presets import with_ohmic_loss

    spec = layered_anisotropic()
    if lossy:
        spec = with_ohmic_loss(spec, 0.3)
    grid = EnvelopeGrid((9.0, 7.0, 5.0), shape)
    mat = _GridMaterial(spec, 1 / 4, grid)
    ks = grid.wavenumbers
    plan = _curl_plan(grid)
    read, rows = (plan.read, plan.write) if not lossy else (list(range(6)),) * 2
    d = rng.standard_normal((6,) + shape) + 1j * rng.standard_normal((6,) + shape)
    inv_a0 = _grid_major([np.linalg.inv(b) for b in mat.a0_at(0.0)])
    inv_rows = np.stack([b[[r for r in read if r < 3]] for b in inv_a0])
    got = np.zeros(d.shape, dtype=complex)
    got[rows] = _rhs(plan, d, inv_rows, mat.m_at(0.0))
    ref = rk4_rhs_reference(mat, 0.0, d, ks)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    assert not np.any(np.delete(ref, rows, axis=0))


@pytest.mark.parametrize("case", ["static_layered", "grid_16_1_8", "ohmic", "modulated"])
def test_planned_step_matches_six_row_stepping(case, rng):
    """time_domain_solve's planned step (the inverse-block rows the curl
    reads, the rows it writes stepped and the others held) gives, bit for
    bit, the final field of stepping all six rows with the unplanned
    right-hand side: one varying axis, two varying axes, a lossy medium
    (all six rows step) and a t-modulated medium."""
    from helpers import six_row_rk4_reference

    from blochpacket.presets import with_cos_modulation, with_ohmic_loss

    spec = {"static_layered": layered_anisotropic(), "grid_16_1_8": layered_anisotropic(),
            "ohmic": with_ohmic_loss(layered_anisotropic(), 0.3),
            "modulated": with_cos_modulation(layered(amplitude=0.2), (1.3, 0.25, 0.0, 0.0),
                                             amplitude=0.2)}[case]
    grid = (EnvelopeGrid((3.0, 7.0, 1.5), (16, 1, 8)) if case == "grid_16_1_8"
            else EnvelopeGrid((9.0, 7.0, 5.0), (64, 1, 1)))
    u0 = rng.standard_normal((6,) + grid.shape) + 1j * rng.standard_normal((6,) + grid.shape)
    res = time_domain_solve(spec, 1 / 4, u0, grid, 0.2, dt=0.01)
    assert np.array_equal(res.field, six_row_rk4_reference(spec, 1 / 4, u0, grid, 0.2, 0.01))


def _material_calls(spec, monkeypatch):
    """Step spec for 100 RK4 steps on a 640-point grid; return the times of
    the a0_at calls and whether the field is bit-identical to stepping that
    evaluates the material afresh at every stage."""
    from helpers import rk4_per_stage_reference

    from blochpacket.oracles import _GridMaterial

    h, t_final, dt = 1 / 4, 0.3, 3e-3
    grid = EnvelopeGrid((10 * np.pi, 2 * np.pi, 2 * np.pi), (640, 1, 1))
    u0, _omega = _plane_wave_initial(grid, THETA, (0, 0, 0), h)
    ref = rk4_per_stage_reference(spec, h, u0, grid, t_final, dt)
    calls = []
    original = _GridMaterial.a0_at
    monkeypatch.setattr(_GridMaterial, "a0_at",
                        lambda self, t: calls.append(t) or original(self, t))
    res = time_domain_solve(spec, h, u0, grid, t_final, dt=dt)
    assert round(t_final / res.dt) == 100
    return calls, np.array_equal(res.field, ref)


def test_modulated_rk4_evaluates_material_once_per_stage_time(monkeypatch):
    """A modulated medium is evaluated twice at t = 0 (A0 for the initial flux,
    then its inverse) and twice per step: at the midpoint, shared by k2 and
    k3, and at the end, shared by k4, the trace and the next step's k1.  The
    result is bit-identical to stepping that evaluates it afresh at every
    stage."""
    from blochpacket.presets import with_cos_modulation

    spec = with_cos_modulation(layered(amplitude=0.2), (1.3, 0.25, 0.0, 0.0), amplitude=0.2)
    calls, exact = _material_calls(spec, monkeypatch)
    assert len(calls) == 2 * 100 + 2  # 2 nsteps + 2
    assert exact


@pytest.mark.parametrize("which", ["ohmic", "eps1_along_x"])
def test_time_independent_medium_evaluates_material_at_start_only(which, monkeypatch):
    """A medium whose modulations all have eta_0 = 0 (constant Ohmic loss, or
    an eps1 that varies along x only) is evaluated at t = 0 only, and every
    step reuses that inverse, bit-identically."""
    from blochpacket.presets import with_cos_modulation, with_ohmic_loss

    base = layered(amplitude=0.2)
    spec = (with_ohmic_loss(base, 0.1) if which == "ohmic"
            else with_cos_modulation(base, (0.0, 0.25, 0.0, 0.0), amplitude=0.2))
    calls, exact = _material_calls(spec, monkeypatch)
    assert calls == [0.0, 0.0]
    assert exact


def _plane_wave_initial(grid, theta, k, h):
    omega, e, b = exact_constant_solution(theta, k)
    xs = grid.meshgrid()
    phase = np.exp(1j * ((theta[0] + k[0]) * xs[0] + (theta[1] + k[1]) * xs[1]
                         + (theta[2] + k[2]) * xs[2]) / h)
    u = np.zeros((6,) + grid.shape, dtype=complex)
    u[:3] = e[:, None, None, None] * phase[None]
    u[3:] = b[:, None, None, None] * phase[None]
    return u, omega


def test_time_domain_plane_wave_phase():
    """Vacuum plane wave: the numerical phase rotation over one period matches
    the closed-form frequency to 1e-6."""
    h = 1 / 4
    # theta_1/h * L/(2 pi) = 6: the carrier is periodic on the box
    grid = EnvelopeGrid((10 * np.pi, 2 * np.pi, 2 * np.pi), (640, 1, 1))
    u0, omega = _plane_wave_initial(grid, THETA, (0, 0, 0), h)
    # u(t) = exp(i omega t / h) u(0) for the h-scaled carrier
    omega_h = omega / h
    period = 2 * np.pi / omega_h
    res = time_domain_solve(identity_material(), h, u0, grid, period, dt=2e-3)
    ratio = res.field[np.abs(u0) > 0.5] / u0[np.abs(u0) > 0.5]
    phase = np.angle(np.mean(ratio))
    omega_fit = phase / period if abs(phase) < np.pi else None
    # full turn: the residual angle measures the frequency error
    assert abs(np.mean(np.abs(ratio)) - 1.0) < 1e-6
    assert abs(phase) * (omega_h / (2 * np.pi)) < 1e-6 * omega_h


def test_time_domain_energy_and_divergence_conservation():
    """Static layered medium: energy constant and divergence invariants pinned
    at their initial values."""
    h = 1 / 4
    spec = layered(amplitude=0.2)
    grid = EnvelopeGrid((10 * np.pi, 2 * np.pi, 2 * np.pi), (640, 1, 1))
    u0, _omega = _plane_wave_initial(grid, THETA, (0, 0, 0), h)
    res = time_domain_solve(spec, h, u0, grid, 2.0, dt=2e-3)
    energy = res.trace[:, 1]
    assert np.max(np.abs(energy - energy[0])) < 1e-8 * energy[0]
    div_e = res.trace[:, 2]
    assert np.max(np.abs(div_e - div_e[0])) < 1e-8 * max(div_e[0], 1.0)


def test_time_domain_stationary_gradients_fixed():
    """Gradient data (curl-free E and B) is a stationary solution: the field
    stays put to 1e-9 over t = 1."""
    h = 1 / 4
    spec = layered_anisotropic()
    grid = EnvelopeGrid((8 * np.pi, 2 * np.pi, 2 * np.pi), (256, 1, 1))
    xs = grid.meshgrid()
    kx = 2 * np.pi / grid.lengths[0]
    u0 = np.zeros((6,) + grid.shape, dtype=complex)
    u0[0] = np.cos(3 * kx * xs[0])          # E = grad phi, phi ~ sin(3 kx x)/3kx
    u0[3] = 0.5 * np.sin(5 * kx * xs[0])    # B = grad psi
    res = time_domain_solve(spec, h, u0, grid, 1.0, dt=2e-3)
    assert np.max(np.abs(res.field - u0)) < 1e-9


def test_dynamic_stationary_weighted_orthogonality(offaxis_layered_pipe):
    """Eigenvectors of the dynamic problem are orthogonal to curl-free data in
    the material-weighted product."""
    from helpers import block_diagonal, dense_operator, longitudinal_field_blocks

    pipe = offaxis_layered_pipe
    a0, _g = dense_operator(pipe.spec, pipe.cutoff, pipe.theta)
    ell = block_diagonal(longitudinal_field_blocks(pipe.cutoff, pipe.theta))
    for b in pipe.bands[:4]:
        val = np.abs(ell.conj().T @ (a0 @ b.eigvecs)).max()
        assert val < 1e-10


def test_time_domain_rejects_cfl_violation():
    grid = EnvelopeGrid((8 * np.pi, 2 * np.pi, 2 * np.pi), (256, 1, 1))
    u0 = np.zeros((6,) + grid.shape, dtype=complex)
    with pytest.raises(ConfigError):
        time_domain_solve(identity_material(), 1 / 4, u0, grid, 1.0, dt=1.0)


@pytest.mark.parametrize("eta0", [0.0, 1.3], ids=["static", "time_modulated"])
def test_cfl_bound_counts_the_modulation(eta0):
    """layered(0.2) plus a cos eps1 of amplitude 0.4 at h = 1/4: the base
    part alone gives the speed bound 1.118, so dt 0.02195 at CFL 0.5 on this
    grid; the whole A0 (static), or the static part lowered by h^2 * 0.4 at
    every t (time-modulated), gives 1.136, so dt 0.02161.  A dt between the
    two is refused, and one just below the second runs."""
    from blochpacket.presets import with_cos_modulation

    spec = with_cos_modulation(layered(0.2), (eta0, 0.25, 0.0, 0.0), amplitude=0.4)
    grid = EnvelopeGrid((16 * np.pi, 2 * np.pi, 2 * np.pi), (1024, 1, 1))
    u0 = np.zeros((6,) + grid.shape, dtype=complex)
    with pytest.raises(ConfigError, match="CFL"):
        time_domain_solve(spec, 1 / 4, u0, grid, 0.0218, dt=0.0218)
    assert time_domain_solve(spec, 1 / 4, u0, grid, 0.0216, dt=0.0216).dt == 0.0216


def test_time_domain_rejects_unresolved_grid():
    grid = EnvelopeGrid((8 * np.pi, 2 * np.pi, 2 * np.pi), (32, 1, 1))
    u0 = np.zeros((6,) + grid.shape, dtype=complex)
    with pytest.raises(ConfigError):
        time_domain_solve(identity_material(), 1 / 32, u0, grid, 1.0)


# ---------------------------------------------------------------------------
# Chebyshev propagation (static media without M)
# ---------------------------------------------------------------------------

def _packet_initial(grid, h, width=3.0):
    """A Gaussian packet on the THETA carrier, E along y and B along z."""
    x = grid.meshgrid()[0]
    u0 = np.zeros((6,) + grid.shape, dtype=complex)
    u0[1] = np.exp(-0.5 * (x / width) ** 2 + 1j * THETA[0] * x / h)
    u0[5] = 0.7 * u0[1]
    return u0


def test_rk4_approaches_chebyshev_at_fourth_order():
    """On the anisotropic layered medium (1024 points on the 16 pi box, t =
    0.5) RK4's distance to the Chebyshev field falls by at least 12 per
    halving of dt: the Chebyshev field is the exact-in-time limit."""
    from blochpacket.oracles import chebyshev_solve

    h = 1 / 4
    spec = layered_anisotropic()
    grid = EnvelopeGrid((16 * np.pi, 2 * np.pi, 2 * np.pi), (1024, 1, 1))
    u0 = _packet_initial(grid, h)
    exact = chebyshev_solve(spec, h, u0, grid, 0.5, dt=0.01).field
    dist = [np.linalg.norm(time_domain_solve(spec, h, u0, grid, 0.5, dt=dt).field - exact)
            / np.linalg.norm(exact) for dt in (0.01, 0.005, 0.0025)]
    assert dist[0] < 1e-8
    assert dist[0] / dist[1] >= 12 and dist[1] / dist[2] >= 12


@pytest.mark.parametrize("shape, theta", [((640, 1, 1), (0.3, 0.0, 0.0)),
                                          ((32, 1, 32), (0.25, 0.0, 0.5))],
                         ids=["one_axis", "two_axes"])
def test_chebyshev_vacuum_plane_wave(shape, theta):
    """Vacuum plane wave: the propagated field is exp(i omega t / h) u(0) to
    1e-12, with one varying axis (4 rows written) and two (all six), and
    the trace holds the RK4 schedule's times with constant energy."""
    from blochpacket.oracles import chebyshev_solve

    h, t_final = 1 / 4, 1.0
    lengths = (10 * np.pi, 2 * np.pi, 2 * np.pi) if shape[2] == 1 else (2 * np.pi,) * 3
    grid = EnvelopeGrid(lengths, shape)
    u0, omega = _plane_wave_initial(grid, np.array(theta), (0, 0, 0), h)
    res = chebyshev_solve(identity_material(), h, u0, grid, t_final, dt=0.01)
    exact = np.exp(1j * omega * t_final / h) * u0
    assert np.linalg.norm(res.field - exact) <= 1e-12 * np.linalg.norm(exact)
    rk4 = time_domain_solve(identity_material(), h, u0, grid, t_final, dt=0.01)
    assert np.array_equal(res.trace[:, 0], rk4.trace[:, 0]) and res.dt == rk4.dt
    energy = res.trace[:, 1]
    assert np.max(np.abs(energy - energy[0])) <= 1e-13 * energy[0]


def test_chebyshev_refuses_time_dependent_or_lossy_medium():
    """Only a static medium without M has one skew generator: a lower-order
    term or a modulation with eta_0 != 0 is refused; a static eps1 is not."""
    from blochpacket.oracles import chebyshev_applies, chebyshev_solve
    from blochpacket.presets import with_cos_modulation, with_ohmic_loss

    base = layered(amplitude=0.2)
    grid = EnvelopeGrid((10 * np.pi, 2 * np.pi, 2 * np.pi), (640, 1, 1))
    u0 = _packet_initial(grid, 1 / 4)
    for spec in (with_ohmic_loss(base, 0.1),
                 with_cos_modulation(base, (1.3, 0.25, 0.0, 0.0), amplitude=0.2)):
        assert not chebyshev_applies(spec)
        with pytest.raises(ConfigError):
            chebyshev_solve(spec, 1 / 4, u0, grid, 0.1, dt=0.01)
    static = with_cos_modulation(base, (0.0, 0.25, 0.0, 0.0), amplitude=0.2)
    assert chebyshev_applies(static)
    ref = time_domain_solve(static, 1 / 4, u0, grid, 0.2, dt=2.5e-3).field
    got = chebyshev_solve(static, 1 / 4, u0, grid, 0.2, dt=2.5e-3).field
    assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("shape", [(48, 1, 1), (1, 48, 1), (1, 1, 48), (16, 1, 8), (8, 8, 8)])
def test_planned_curl_and_held_rows_keep_the_bits(shape, rng):
    """The gathered curl terms and the held rows' products formed once give
    the bits of the term-by-term route: _rhs (with and without M) equals the
    right-hand side that accumulates each curl term into a zeroed array, and
    the Chebyshev L on the written rows equals that right-hand side of the
    whole flux with the held rows set to d0 (even k) or 0 (odd k), on one-,
    two- and three-axis grids (one axis along each direction)."""
    from helpers import rows_rhs_reference

    from blochpacket.oracles import _comps, _curl_plan, _held_row_operator, _rhs, _row_view

    def rand(*lead):
        return rng.standard_normal(lead + shape) + 1j * rng.standard_normal(lead + shape)

    grid = EnvelopeGrid((9.0, 7.0, 5.0), shape)
    ks = grid.wavenumbers
    plan = _curl_plan(grid)
    inv_a0 = rand(2, 3, 3)
    inv_rows = inv_a0[:, _comps([r for r in plan.read if r < 3])]
    d = rand(6)
    assert np.array_equal(_bits(_rhs(plan, d, inv_rows, None)),
                          _bits(rows_rhs_reference(plan, d, inv_rows, None, ks)))
    m = np.moveaxis(rand(6, 6), (0, 1), (-2, -1))
    assert np.array_equal(_bits(_rhs(plan, d, inv_a0, m)),
                          _bits(rows_rhs_reference(plan, d, inv_a0, m, ks)))

    comps = [r for r in plan.write if r < 3]
    fixed = [r for r in range(6) if r not in plan.write]
    l_of = _held_row_operator(plan, inv_a0, d)
    for k in (2, 3):
        sk = _row_view(rand(6), comps).ravel()
        full = d.copy()
        _row_view(full, comps)[...] = sk.reshape(_row_view(full, comps).shape)
        full[fixed] = d[fixed] if k % 2 == 0 else 0.0
        assert np.array_equal(_bits(l_of(k, sk)),
                              _bits(rows_rhs_reference(plan, full, inv_rows, None, ks).ravel()))


def test_chebyshev_solve_takes_the_runs_speed_bound(monkeypatch):
    """The wave-speed bound of the CFL check is the one rho is built from:
    _speed_bound runs once per chebyshev_solve."""
    import blochpacket.oracles as oracles

    calls, bound = [], oracles._speed_bound
    monkeypatch.setattr(oracles, "_speed_bound", lambda *a: calls.append(1) or bound(*a))
    grid = EnvelopeGrid((10 * np.pi, 2 * np.pi, 2 * np.pi), (640, 1, 1))
    oracles.chebyshev_solve(layered(amplitude=0.2), 1 / 4, _packet_initial(grid, 1 / 4), grid, 0.1)
    assert len(calls) == 1


@pytest.mark.parametrize("which", ["layered", "layered_anisotropic"])
def test_chebyshev_radius_bounds_the_spectrum(which, rng):
    """A power iteration on Y = L / (i rho) in the inv(A0)-weighted norm
    stays at or below 1, and comes within 10% of it: rho bounds the spectrum
    of L on the grid and is not loose."""
    from blochpacket.oracles import (_apply_blocks, _chebyshev_radius, _comps, _grid_major,
                                     _rhs, _Run)

    spec = layered(amplitude=0.2) if which == "layered" else layered_anisotropic()
    grid = EnvelopeGrid((16 * np.pi, 2 * np.pi, 2 * np.pi), (1024, 1, 1))
    u0 = rng.standard_normal((6,) + grid.shape) + 1j * rng.standard_normal((6,) + grid.shape)
    run = _Run(spec, 1 / 4, u0, grid, 1.0, None, 0.5)
    rho = _chebyshev_radius(run)
    inv_a0 = _grid_major([np.linalg.inv(b) for b in run.a0])
    inv_rows = inv_a0[:, _comps([r for r in run.plan.read if r < 3])]

    def norm(v):
        return np.sqrt(np.real(np.vdot(v, _apply_blocks(inv_a0, v))))

    v = run.d0 / norm(run.d0)
    ratios = []
    for _ in range(60):
        yv = np.zeros_like(v)
        yv[run.plan.write] = _rhs(run.plan, v, inv_rows, None) / (1j * rho)
        ratios.append(norm(yv))
        v = yv / ratios[-1]
    assert max(ratios) <= 1.0
    assert ratios[-1] >= 0.9


def test_chebyshev_coefficients_match_bessel():
    """The FFT coefficients equal (2 - delta_k0) i^k J_k(z) to 1e-14, and
    each row stops where |c_k| falls to CHEB_TOL for good."""
    from scipy.special import jv

    from blochpacket.oracles import CHEB_TOL, _chebyshev_coefficients

    z = np.array([0.0, 0.5, 10.0, 161.3])
    coefs, counts = _chebyshev_coefficients(z)
    k = np.arange(coefs.shape[1])
    ref = np.where(k == 0, 1, 2) * 1j ** k * jv(k[None, :], z[:, None])
    kept = k[None, :] < counts[:, None]
    assert np.max(np.abs(np.where(kept, coefs, 0) - np.where(kept, ref, 0))) <= 1e-14
    assert np.all(coefs[~kept] == 0) and np.max(np.abs(ref[~kept])) <= CHEB_TOL
    assert counts[0] == 1 and np.all(np.diff(counts) > 0)


@pytest.mark.parametrize("shape", [(256, 1, 1), (32, 1, 32)], ids=["one_axis", "two_axes"])
@pytest.mark.parametrize("propagator", ["chebyshev", "rk4", "rk4_lossy"])
def test_held_divergences_equal_each_rows_own(propagator, shape, monkeypatch):
    """Every trace row's div_eps_E and div_mu_B are the floats that row's own
    flux gives.  On one axis the divergences read only E_x and B_x, which
    neither propagator changes without a lower-order term, so they are
    computed once, from d0 (two _spectral_div calls for the whole trace);
    with M (Ohmic loss) RK4 steps all six rows and they are computed per
    row, as they are on two axes."""
    import blochpacket.oracles as oracles
    from blochpacket.presets import with_ohmic_loss

    fluxes, divs = [], []
    record, spectral_div = oracles._Run.record, oracles._spectral_div

    def captured(self, t, d, inv_a0):
        fluxes.append(d.copy())
        return record(self, t, d, inv_a0)

    monkeypatch.setattr(oracles._Run, "record", captured)
    monkeypatch.setattr(oracles, "_spectral_div",
                        lambda f, grid: divs.append(1) or spectral_div(f, grid))
    h = 1 / 4
    lengths = (10 * np.pi, 2 * np.pi, 2 * np.pi) if shape[2] == 1 else (2 * np.pi,) * 3
    grid = EnvelopeGrid(lengths, shape)
    x, _y, z = grid.meshgrid()
    envelope = np.exp(-0.5 * ((x / 3.0) ** 2 + (z / 2.0) ** 2) + 1j * THETA[0] * x / h)
    u0 = np.array([0.4, 1.0, 0.2j, -0.3, 0.1, 0.7])[:, None, None, None] * envelope
    spec = layered(amplitude=0.2)
    if propagator == "rk4_lossy":
        spec = with_ohmic_loss(spec, 0.1)
    solve = oracles.chebyshev_solve if propagator == "chebyshev" else time_domain_solve
    res = solve(spec, h, u0, grid, 0.1, dt=0.01)
    held = shape[2] == 1 and propagator != "rk4_lossy"
    assert len(divs) == (2 if held else 2 * len(fluxes))
    scale = np.sqrt(grid.cell_volume)
    for row, d in zip(res.trace, fluxes):
        own = [float(np.linalg.norm(spectral_div(f, grid)) * scale) for f in (d[:3], d[3:])]
        assert list(row[2:]) == own and min(own) > 0.0
