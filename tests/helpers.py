"""Shared pipeline builders for the test suite."""

import numpy as np

from blochpacket import bands
from blochpacket.bands import BlochOperator, build_projectors, mode_classes, solve_bands
from blochpacket.dispersion import hessian
from blochpacket.envelope import EnvelopeGrid, EnvelopeSolution, gaussian_state, varying_axes
from blochpacket.fourier import (LatticeCutoff, MaterialSpec, _check_theta, conv_apply,
                                 cross_matrix, transverse_field_blocks, transverse_pair, trig_sum,
                                 wavevectors)
from blochpacket.harmonics import difference, seminorm
from blochpacket.oracles import (_curl_plan, _curl_rows, _inward_neighbor,
                                 exact_constant_solution, synthesize_exact_packet)
from blochpacket.presets import identity_material, with_cos_modulation
from blochpacket.rays import (BETA_RAY_ORIGINS, BETA_STEPS_PER_PERIOD, build_gamma,
                              ray_average)
from blochpacket.wkb import assemble_harmonics, build_profiles, evaluate_table, residual_orders


# the (beta, delta) pair of harmonics.seminorm that is the plain L2 norm
L2 = ((0, 0, 0), (0, 0, 0))


class BandPipeline:
    """Band -> projectors -> dispersion -> coupling for one configuration."""

    def __init__(self, spec, cutoff, theta, band_index=1, num_bands=8):
        self.spec = spec
        self.cutoff = LatticeCutoff(cutoff) if not isinstance(cutoff, LatticeCutoff) else cutoff
        self.theta = np.asarray(theta, dtype=float)
        self.op = BlochOperator.build(spec, self.cutoff, self.theta)
        self.bands = solve_bands(self.op, num_bands)
        self.band = next(b for b in self.bands if b.band_index == band_index)
        self.projectors = build_projectors(self.band, self.op)
        self.dispersion = hessian(self.band, self.projectors, self.op)
        self.gamma = build_gamma(self.band, self.op)
        self.ray = ray_average(self.gamma, self.dispersion.V)

    def envelope(self, grid: EnvelopeGrid, widths, weights, dT=1e-3) -> EnvelopeSolution:
        w = np.asarray(weights, dtype=complex)
        init = gaussian_state(grid, widths, w / np.linalg.norm(w))
        return EnvelopeSolution(init, self.dispersion.hessian, self.ray.mean_modes, dT=dT)

    def profiles(self, envelope):
        return build_profiles(self.band, self.projectors, self.dispersion, self.ray,
                              envelope, self.op)


def band_class_modes(pipe) -> set:
    """The modes, as tuples, of the mode class that carries the pipeline's
    band eigenvectors."""
    vecs = pipe.band.eigvecs.reshape(pipe.cutoff.num_modes, -1)
    (modes,) = [c for c in mode_classes(pipe.spec, pipe.cutoff) if np.any(vecs[c])]
    return {tuple(pipe.cutoff.modes[i]) for i in modes}


def cosine_3d(amplitude=0.2):
    """eps0(y) = 1 + amplitude * (cos y1 + cos y2 + cos y3), mu0 = 1."""
    eye = np.eye(3, dtype=complex)
    eps0 = {(0, 0, 0): eye}
    for a in range(3):
        n = [0, 0, 0]
        for sign in (1, -1):
            n[a] = sign
            eps0[tuple(n)] = 0.5 * amplitude * eye
    return MaterialSpec(eps0=eps0, mu0={(0, 0, 0): eye}).validate()


def mixed_modulations():
    """Vacuum with every kind of modulation: eps1 on a traveling mode, mu1 on
    cell harmonic (1, 0, 0) at eta = (0.5, 0, 0.3, 0), and an x-dependent
    lower-order term at eta = (0, 0.2, 0, 0)."""
    spec = with_cos_modulation(identity_material(), (0.7, -0.4, 0.0, 0.0), amplitude=0.15)
    spec = with_cos_modulation(spec, (0.5, 0.0, 0.3, 0.0), amplitude=0.1, cell_mode=(1, 0, 0),
                               target="mu1")
    return with_cos_modulation(spec, (0.0, 0.2, 0.0, 0.0), amplitude=0.05, target="lower_order")


def parity_layered():
    """eps0(y) = 1 + 0.2 cos(2 y1): even and odd n1 form separate classes, of
    two sizes at cutoff 2."""
    eye = np.eye(3, dtype=complex)
    return MaterialSpec(eps0={(0, 0, 0): eye, (2, 0, 0): 0.1 * eye, (-2, 0, 0): 0.1 * eye},
                        mu0={(0, 0, 0): eye}).validate()


def block_diagonal(blocks: np.ndarray) -> np.ndarray:
    """Dense block-diagonal matrix of a (..., k, r, c) stack of blocks; shape
    (..., k*r, k*c), one matrix per leading index."""
    *lead, k, r, c = blocks.shape
    out = np.zeros((*lead, k, r, k, c), dtype=blocks.dtype)
    i = np.arange(k)
    # the paired index moves to the front of the indexed view
    out[..., i, :, i, :] = np.moveaxis(blocks, -3, 0)
    return out.reshape(*lead, k * r, k * c)


def longitudinal_unit(cutoff: LatticeCutoff, theta) -> np.ndarray:
    """(K, 3) unit vectors along theta + n (the per-mode curl kernel direction)."""
    theta = _check_theta(theta)
    v = wavevectors(cutoff, theta)
    return v / np.linalg.norm(v, axis=1)[:, None]


def longitudinal_field_blocks(cutoff: LatticeCutoff, theta) -> np.ndarray:
    """(K, 6, 2) per-mode curl-kernel fields: E and B along theta + n."""
    vhat = longitudinal_unit(cutoff, theta)
    blocks = np.zeros((cutoff.num_modes, 6, 2), dtype=complex)
    blocks[:, :3, 0] = vhat
    blocks[:, 3:, 1] = vhat
    return blocks


def constant_eigenfield(cutoff: LatticeCutoff, theta, k, e_pol, sign: int = +1) -> np.ndarray:
    """Single-mode closed-form vacuum eigenvector as flat (6K,) coefficients."""
    _omega, e, b = exact_constant_solution(theta, k, e_pol, sign)
    i = cutoff.index_of(k)
    vec = np.zeros(6 * cutoff.num_modes, dtype=complex)
    vec[6 * i : 6 * i + 6] = np.concatenate([e, b])
    return vec


def random_coeffs(cutoff: LatticeCutoff, rng) -> np.ndarray:
    """Random complex (K, 6) coefficients of a field."""
    shape = (cutoff.num_modes, 6)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def apply_curl_block(cutoff: LatticeCutoff, theta, coeffs: np.ndarray) -> np.ndarray:
    """Curl block on (K, 6) coefficients by cross products: per mode n,
    (E, B)(n) -> (i(theta+n)^B(n), -i(theta+n)^E(n))."""
    v = wavevectors(cutoff, theta)
    out = np.empty_like(coeffs, dtype=complex)
    out[:, :3] = 1j * np.cross(v, coeffs[:, 3:])
    out[:, 3:] = -1j * np.cross(v, coeffs[:, :3])
    return out


def curl_direction(j: int, v: np.ndarray) -> np.ndarray:
    """The coefficient of d/dx_j in the curl block on coefficients of shape
    (6K,) or (6K, m), by cross products: per mode, (E, B) -> (e_j ^ B, -e_j ^ E)."""
    arr = v.reshape(len(v) // 6, 6, -1)
    e_j = np.eye(3)[j]
    out = np.concatenate([np.cross(e_j, arr[:, 3:], axisb=1, axisc=1),
                          -np.cross(e_j, arr[:, :3], axisb=1, axisc=1)], axis=1)
    return out.reshape(v.shape)


def apply_material(spec: MaterialSpec, cutoff: LatticeCutoff, coeffs: np.ndarray) -> np.ndarray:
    """Base material A0 on (K, 6) coefficients by convolution: eps0 on the E
    block, mu0 on the B block."""
    out = np.empty_like(coeffs, dtype=complex)
    out[:, :3] = conv_apply(spec.eps0, cutoff, coeffs[:, :3])
    out[:, 3:] = conv_apply(spec.mu0, cutoff, coeffs[:, 3:])
    return out


def grid_values(cutoff: LatticeCutoff, theta, coeffs: np.ndarray, samples: int) -> np.ndarray:
    """The theta-quasi-periodic field of (K, 6) coefficients on an S^3 cell
    grid, shape (S, S, S, 6, 1)."""
    y = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    terms = {tuple(k): c[:, None] for k, c in zip(wavevectors(cutoff, theta), coeffs)}
    return trig_sum(terms, np.stack(np.meshgrid(y, y, y, indexing="ij"), axis=-1))


def dense_modulation(spec, cutoff: LatticeCutoff, eta):
    """Dense (6K, 6K) A0^1(eta, .) and M(eta, .), entry by entry from the
    coefficients at eta: the block of mode m against mode m - n holds the
    coefficient of cell harmonic n (eps1 on E, mu1 on B, lower_order on all six
    components)."""
    k6 = 6 * cutoff.num_modes
    a01 = np.zeros((k6, k6), dtype=complex)
    low = np.zeros((k6, k6), dtype=complex)
    for out, coefs, comps in ((a01, spec.eps1, slice(0, 3)), (a01, spec.mu1, slice(3, 6)),
                              (low, spec.lower_order, slice(0, 6))):
        for (e, n), coef in coefs.items():
            if e != tuple(eta):
                continue
            for i, m in enumerate(cutoff.modes):
                src = m - np.asarray(n)
                if cutoff.contains(src):
                    j = cutoff.index_of(src)
                    out[6 * i : 6 * i + 6, 6 * j : 6 * j + 6][comps, comps] += coef
    return a01, low


def dense_operator(spec, cutoff, theta):
    """Dense (6K, 6K) A0 and G, one column per unit field through
    apply_material and apply_curl_block: a reference that does not depend on
    how BlochOperator stores them.  Meant for small cutoffs."""
    cutoff = LatticeCutoff(cutoff) if not isinstance(cutoff, LatticeCutoff) else cutoff
    k6 = 6 * cutoff.num_modes
    a0 = np.empty((k6, k6), dtype=complex)
    g = np.empty((k6, k6), dtype=complex)
    for j in range(k6):
        unit = np.zeros((cutoff.num_modes, 6), dtype=complex)
        unit.flat[j] = 1.0
        a0[:, j] = apply_material(spec, cutoff, unit).ravel()
        g[:, j] = apply_curl_block(cutoff, theta, unit).ravel()
    return a0, g


# ---------------------------------------------------------------------------
# Loop references for the batched transforms and products in src/
# ---------------------------------------------------------------------------

def seminorm_reference(field, beta, delta) -> np.ndarray:
    """|| x^beta (h d_x)^delta u ||_{L2} for one pair at each time, (J,),
    harmonic by harmonic and time by time, each derivative by its own
    forward and inverse 3-axis FFT."""
    grid = field.grid
    ks = grid.wave_meshgrid()
    xs = grid.meshgrid()
    weight = np.ones(grid.shape)
    for a in range(3):
        for _ in range(int(beta[a])):
            weight = weight * xs[a]
    total = np.zeros(len(field.t))
    for n, per_time in field.data.items():
        carrier = field.theta + np.asarray(n, dtype=float)
        for j, d in enumerate(per_time):
            cur = d
            for a in range(3):
                for _ in range(int(delta[a])):
                    hat = np.fft.fftn(cur, axes=(1, 2, 3))
                    dcur = np.fft.ifftn(1j * ks[a][None] * hat, axes=(1, 2, 3))
                    cur = 1j * carrier[a] * cur + field.h * dcur
            total[j] += float(np.sum(np.abs(weight[None] * cur) ** 2))
    return np.sqrt(total * grid.cell_volume)


def spectral_curl_reference(field3, ks):
    """curl of a (3, M1, M2, M3) field: one 3-axis forward FFT and one 3-axis
    inverse FFT per derivative direction."""
    hats = np.fft.fftn(field3, axes=(1, 2, 3))
    dfield = [np.fft.ifftn(1j * ks[a][None] * hats, axes=(1, 2, 3)) for a in range(3)]
    curl = np.empty_like(field3, dtype=complex)
    curl[0] = dfield[1][2] - dfield[2][1]
    curl[1] = dfield[2][0] - dfield[0][2]
    curl[2] = dfield[0][1] - dfield[1][0]
    return curl


def spectral_div_reference(field3, ks):
    hats = np.fft.fftn(field3, axes=(1, 2, 3))
    return np.fft.ifftn(1j * (ks[0] * hats[0] + ks[1] * hats[1] + ks[2] * hats[2]))


def assemble_harmonics_reference(profiles, h, t, grid, orders=(0, 1, 2)):
    """assemble_harmonics with every table entry added mode by mode."""
    T = h * t
    env = profiles.envelope
    tables = profiles.tables()
    xs = grid.meshgrid()
    ks = grid.wave_meshgrid()
    vt = profiles.dispersion.V * t
    shift = np.exp(-1j * (ks[0] * vt[0] + ks[1] * vt[1] + ks[2] * vt[2]))
    carrier_t = np.exp(1j * profiles.band.omega * t / h)
    modes = profiles.op.cutoff.modes
    harm = {tuple(n): np.zeros((6,) + grid.shape, dtype=complex) for n in modes}
    for j in orders:
        for (eta, key), vec in tables[j].items():
            a, m, alpha = key
            vals = np.fft.ifftn(env.field_hat(a, m, alpha, T) * shift)
            phase = np.exp(1j * (eta[0] * t + eta[1] * xs[0] + eta[2] * xs[1] + eta[3] * xs[2]))
            coef = (h ** j) * carrier_t * phase * vals
            v6 = vec.reshape(-1, 6)
            for i, n in enumerate(modes):
                if np.any(v6[i]):
                    harm[tuple(n)] += v6[i][:, None, None, None] * coef[None, ...]
    return harm


def evaluate_table_reference(profiles, table, T, t, x_comoving):
    """wkb.evaluate_table entry by entry: each table entry adds its (P, 6K)
    outer product to the values and |coef| * |vec| to the magnitude."""
    pts = np.asarray(x_comoving, dtype=float).reshape(-1, 3)
    x_phys = pts + profiles.dispersion.V[None, :] * t
    env = profiles.envelope
    vals = np.zeros((len(pts), profiles.band.eigvecs.shape[0]), dtype=complex)
    mag = np.zeros(len(pts))
    for (eta, key), vec in table.items():
        (field,) = env.eval_hats_at([env.field_hat(*key, T)], pts)
        coef = np.exp(1j * (eta[0] * t + x_phys @ np.asarray(eta[1:]))) * field
        vals += coef[:, None] * vec[None, :]
        mag += np.abs(coef) * np.linalg.norm(vec)
    return vals, mag


def sup_errors_reference(profiles, packet, times, grid, pairs, orders=(0, 1, 2)):
    """cli.sup_errors time by time: one synthesis, assembly and seminorm call
    per output time, each at that one time, the largest value kept per pair."""
    sup = {bd: 0.0 for bd in pairs}
    for t in times:
        synth, _err = synthesize_exact_packet(packet, profiles.band, profiles.op, [t], grid,
                                              estimate_error=False)
        assembled = assemble_harmonics(profiles, packet.h, [t], grid, orders=orders)
        for bd, value in seminorm(difference(synth, assembled), pairs).items():
            sup[bd] = max(sup[bd], float(value[0]))
    return sup


def residual_reference(profiles, h, t_max, num_t=5, num_x=5):
    """wkb.residual with each order evaluating its own envelope values."""
    orders = residual_orders(profiles)
    grid = profiles.envelope.grid
    axes = [np.zeros(1) if grid.shape[a] == 1
            else np.linspace(-grid.lengths[a] / 8, grid.lengths[a] / 8, num_x)
            for a in range(3)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    report = {}
    for name, table in orders.items():
        worst_abs = 0.0
        worst_scale = 0.0
        for t in np.linspace(0.0, t_max, num_t):
            vals, mag = evaluate_table(profiles, table, [h * t], [t], pts)
            worst_abs = max(worst_abs, float(np.linalg.norm(vals, axis=2).max()))
            worst_scale = max(worst_scale, float(mag.max()))
        report[name] = {"abs": worst_abs, "scale": worst_scale,
                        "rel": worst_abs / max(worst_scale, 1e-300)}
    return report


def class_blocks(op):
    """(modes, rows, A0 block) of each mode class, read out of the operator's
    per-size groups."""
    for modes, rows, a0, _li in op.groups:
        yield from zip(modes, rows, a0)


def solve_bands_reference(op, num_bands):
    """bands.solve_bands solving every class member in one pass: the
    clusters, their band indices and their gauge read the full spectrum."""
    p = bands._solve_pencil(op, op.theta)
    frame = transverse_field_blocks(op.cutoff, op.theta)
    indices = bands._band_indices(p.vals)
    out, count = [], 0
    for sel, omega in zip(*bands._cluster(p.vals)):
        if count >= num_bands:
            break
        count += len(sel)
        psi = bands._fix_gauge(bands._cluster_span(p, sel), frame)
        out.append(bands._band(p, sel, psi, omega, indices[sel[0]]))
    return out


def continue_band_reference(op, theta, prev):
    """bands.continue_band solving every class member at the new theta: the
    candidate clusters, the match by overlap, the band index and the gap all
    read the full spectrum."""
    p = bands._solve_pencil(op, theta, vectors=True)
    clusters, omegas = bands._cluster(p.vals)
    near = np.abs(omegas - prev.omega) < 0.2 * max(1.0, abs(prev.omega))
    window = np.flatnonzero(near) if near.any() else range(len(clusters))
    best, best_c, best_overlap = None, -1, -1.0
    for c in window:
        span = bands._cluster_span(p, clusters[c])
        s = np.linalg.svd(span.conj().T @ prev.eigvecs, compute_uv=False)
        overlap = s.min() if len(s) >= prev.kappa else 0.0
        if overlap > best_overlap:
            best, best_c, best_overlap = span, c, overlap
    assert best.shape[1] == prev.kappa
    omega = omegas[best_c]
    others = np.delete(omegas, best_c)
    gap = float(np.min(np.abs(others - omega))) if len(others) else np.inf
    psi, _s = bands.procrustes_align(best, prev.eigvecs)
    index = bands._band_indices(p.vals)[clusters[best_c][0]]
    return bands._band(p, clusters[best_c], psi, omega, index), gap


def apply_a0_reference(op, v):
    """BlochOperator.apply_a0 one class block at a time."""
    out = np.empty(v.shape, dtype=complex)
    for _modes, rows, a0 in class_blocks(op):
        out[rows] = a0 @ v[rows]
    return out


def synthesize_reference(packet, cutoff, omegas, bases, zeta, wts, t, grid):
    """The quadrature sum of oracles._synthesize at one time, node by node:
    each node adds its full (K, 6, M) product.  Returns {n: (6, shape)}."""
    amp = packet.spectrum_amplitude(zeta) * wts
    xs = grid.meshgrid()
    acc = np.zeros((cutoff.num_modes, 6) + grid.shape, dtype=complex)
    for q in range(len(zeta)):
        if amp[q] == 0.0:
            continue
        vec = (bases[q] @ packet.weights).reshape(cutoff.num_modes, 6)
        phase_t = np.exp(1j * t * omegas[q] / packet.h)
        ph = np.exp(1j * (zeta[q][0] * xs[0] + zeta[q][1] * xs[1] + zeta[q][2] * xs[2]))
        acc += (amp[q] * phase_t) * vec[..., None, None, None] * ph[None, None, ...]
    return {tuple(n): acc[i] for i, n in enumerate(cutoff.modes)}


def physical_field(field):
    """The field of a HarmonicField on its grid at its times, sum_n
    exp(i (theta + n).x / h) D_n, (J, 6, M1, M2, M3)."""
    xs = field.grid.meshgrid()
    out = 0.0
    for n, d in field.data.items():
        k = field.theta + np.asarray(n)
        out = out + np.exp(1j * (k[0] * xs[0] + k[1] * xs[1] + k[2] * xs[2]) / field.h) * d
    return out


def _walk_order(zeta_nodes):
    """oracles._node_bands' walk over the (Q, 3) nodes: the distinct nodes
    (to 14 decimals) other than the center, by max |zeta_a|, then |zeta|,
    then zeta, and each node's key."""
    keys = [tuple(np.round(z, 14)) for z in zeta_nodes]
    center = tuple(np.round(np.zeros(3), 14))
    order = sorted(set(keys) - {center},
                   key=lambda z: (np.abs(z).max(), np.linalg.norm(z), z))
    return order, keys


def vacuum_walk_reference(band, cutoff, h, zeta_nodes):
    """oracles._node_bands on the vacuum, one node at a time: in the same
    visit order, each node's two constant_eigenfield vectors aligned to its
    inward neighbour's basis.  Returns the (omega, basis) of each node, in
    zeta_nodes' row order."""
    sign = 1 if band.omega > 0 else -1
    order, keys = _walk_order(zeta_nodes)
    done = {tuple(np.round(np.zeros(3), 14)): (band.omega, band.eigvecs)}
    visited = [np.zeros(3)]
    for z in order:
        _omega, prev = done[tuple(visited[_inward_neighbor(z, np.array(visited))])]
        theta = band.theta + h * np.asarray(z)
        basis = np.stack([constant_eigenfield(cutoff, theta, (0, 0, 0), u, sign)
                          for u in transverse_pair(theta)], axis=1)
        done[z] = (sign * np.linalg.norm(theta), bands.procrustes_align(basis, prev)[0])
        visited.append(np.asarray(z))
    return [done[k] for k in keys]


def node_walk_reference(band, op, h, zeta_nodes):
    """oracles._node_bands on a non-vacuum medium, one node at a time: in the
    same visit order, each node continue_band_reference of its inward
    neighbour's band.  Returns the (band, gap) of each node, in zeta_nodes'
    row order."""
    order, keys = _walk_order(zeta_nodes)
    done = {tuple(np.round(np.zeros(3), 14)): (band, np.inf)}
    visited = [np.zeros(3)]
    for z in order:
        prev, _gap = done[tuple(visited[_inward_neighbor(z, np.array(visited))])]
        done[z] = continue_band_reference(op, band.theta + h * np.asarray(z), prev)
        visited.append(np.asarray(z))
    return [done[k] for k in keys]


def eval_hat_at_reference(grid, hat, points):
    """One field's Fourier coefficients at points (P, 3), contracted axis by
    axis with einsum."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    e = [np.exp(1j * np.outer(pts[:, a] - grid.axis_coords(a)[0], grid.axis_wavenumbers(a)))
         for a in range(3)]
    tmp = np.einsum("abc,pc->abp", hat, e[2], optimize=True)
    tmp = np.einsum("abp,pb->ap", tmp, e[1], optimize=True)
    return np.einsum("ap,pa->p", tmp, e[0], optimize=True) / grid.num_points


def speed_limit_reference(spec, V, num_samples, seed):
    """speed_limit_check's worst (margin, xi), one direction at a time: per
    direction the symbol matrices eps^{-1/2} cx(xi)^H mu^{-1} cx(xi)
    eps^{-1/2} over the y-sample grid by einsum, their Hermitian part and one
    eigvalsh, on a grid of 17 points along each axis the medium varies on."""
    modes = list(spec.eps0) + list(spec.mu0)
    ys = [np.linspace(0.0, 2 * np.pi, 17 if any(n[a] != 0 for n in modes) else 1,
                      endpoint=False) for a in range(3)]
    pts = np.stack(np.meshgrid(*ys, indexing="ij"), axis=-1)
    eps = trig_sum(spec.eps0, pts).reshape(-1, 3, 3)
    mu = trig_sum(spec.mu0, pts).reshape(-1, 3, 3)
    eps = 0.5 * (eps + np.conj(np.swapaxes(eps, -1, -2)))
    mu = 0.5 * (mu + np.conj(np.swapaxes(mu, -1, -2)))
    w, u = np.linalg.eigh(eps)
    eps_inv_sqrt = np.einsum("nij,nj,nkj->nik", u, 1.0 / np.sqrt(w), u.conj())
    inv_mu = np.linalg.inv(mu)
    rng = np.random.default_rng(seed)
    v = np.asarray(V, dtype=float)
    worst, worst_xi = np.inf, None
    for _ in range(num_samples):
        xi = rng.standard_normal(3)
        xi /= np.linalg.norm(xi)
        cx = cross_matrix(-xi)
        k = np.einsum("ij,njk,kl->nil", cx.conj().T, inv_mu, cx)
        m = np.einsum("nij,njk,nkl->nil", eps_inv_sqrt, k, eps_inv_sqrt)
        m = 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))
        tau = float(np.sqrt(max(np.linalg.eigvalsh(m)[:, -1].max(), 0.0)))
        margin = tau - float(np.dot(xi, v))
        if margin < worst:
            worst, worst_xi = margin, xi
    return worst, worst_xi


def rk4_rhs_reference(mat, t, d, ks):
    """The RK4 right-hand side d/dt (eps E, mu B) = (curl B, -curl E) - M u at
    time t of a grid material (oracles._GridMaterial): u = inv(A0) d with one
    6x6 inverse per grid point applied by einsum, and all six components of
    u transformed by one FFT pair over the varying axes."""
    eps, mu = mat.a0_at(t)
    a0 = np.zeros(eps.shape[:3] + (6, 6), dtype=complex)
    a0[..., :3, :3] = eps
    a0[..., 3:, 3:] = mu
    u = np.einsum("xyzab,bxyz->axyz", np.linalg.inv(a0), d)
    axes = varying_axes(u)
    hat = np.fft.fftn(u, axes=axes)
    out = np.empty_like(hat)
    out[0] = 1j * (ks[1] * hat[5] - ks[2] * hat[4])
    out[1] = 1j * (ks[2] * hat[3] - ks[0] * hat[5])
    out[2] = 1j * (ks[0] * hat[4] - ks[1] * hat[3])
    out[3] = 1j * (ks[2] * hat[1] - ks[1] * hat[2])
    out[4] = 1j * (ks[0] * hat[2] - ks[2] * hat[0])
    out[5] = 1j * (ks[1] * hat[0] - ks[0] * hat[1])
    out = np.fft.ifftn(out, axes=axes)
    m = mat.m_at(t)
    if m is not None:
        out -= np.einsum("xyzab,bxyz->axyz", m, u)
    return out


def planned_curl_pair(u, ks):
    """The six rows of (curl B, -curl E) from oracles' planned curl: the rows
    the plan writes, zero elsewhere."""
    plan = _curl_plan(u.shape[1:], ks)
    out = np.zeros(u.shape, dtype=complex)
    out[plan.write] = _curl_rows(plan, u[plan.read])
    return out


def apply_blocks_reference(blocks, v):
    """diag(b_E, b_B) applied to a (6, M1, M2, M3) field, each block a
    (3, 3, M1, M2, M3) array, by multiply-sums over the block columns."""
    return np.concatenate([(b * w).sum(axis=1) for b, w in zip(blocks, (v[:3], v[3:]))])


def curl_pair_reference(u, ks):
    """(curl B, -curl E) of a (6, M1, M2, M3) grid field (E, B) as six rows:
    one forward FFT of the components some varying axis reads, the terms
    accumulated axis by axis into a zeroed array, and one inverse FFT."""
    axes = varying_axes(u)
    dirs = [a + 3 for a in axes]
    comps = [c for c in range(3) if any(d != c for d in dirs)]
    rows = comps + [3 + c for c in comps]
    at = {r: i for i, r in enumerate(rows)}
    hat = np.fft.fftn(u[rows], axes=axes)
    out_hat = np.zeros_like(hat)
    for d in dirs:
        e1, e2 = (d + 1) % 3, (d + 2) % 3
        ik = 1j * ks[d]
        out_hat[at[e1]] -= ik * hat[at[3 + e2]]
        out_hat[at[e2]] += ik * hat[at[3 + e1]]
        out_hat[at[3 + e1]] += ik * hat[at[e2]]
        out_hat[at[3 + e2]] -= ik * hat[at[e1]]
    out = np.zeros(u.shape, dtype=complex)
    out[rows] = np.fft.ifftn(out_hat, axes=axes)
    return out


def rhs_reference(d, inv_a0, m, ks):
    """The RK4 right-hand side on all six rows: u = inv(A0) d from every row
    of the _grid_major inverse blocks, curl_pair_reference, minus M u."""
    u = apply_blocks_reference(inv_a0, d)
    out = curl_pair_reference(u, ks)
    if m is not None:
        out -= np.einsum("xyzab,bxyz->axyz", m, u)
    return out


def six_row_rk4_reference(spec, h, u0, grid, t_final, dt):
    """The final field of time_domain_solve's RK4 stepping as it was before
    the step was planned: all six rows stepped by rhs_reference, and the
    material evaluated once per distinct stage time (the step's midpoint and
    end; once in all for a static medium)."""
    from blochpacket.oracles import _grid_major, _GridMaterial

    mat = _GridMaterial(spec, h, grid)
    ks = grid.wave_meshgrid()

    def material(t):
        return _grid_major([np.linalg.inv(b) for b in mat.a0_at(t)]), mat.m_at(t)

    d = apply_blocks_reference(_grid_major(mat.a0_at(0.0)), np.asarray(u0, dtype=complex))
    now = material(0.0)
    nsteps = max(1, int(np.ceil(t_final / dt)))
    dt = t_final / nsteps
    t = 0.0
    for step in range(1, nsteps + 1):
        mid, end = (now, now) if mat.static else (material(t + dt / 2), material(step * dt))
        t = step * dt
        k1 = rhs_reference(d, *now, ks)
        k2 = rhs_reference(d + dt / 2 * k1, *mid, ks)
        k3 = rhs_reference(d + dt / 2 * k2, *mid, ks)
        k4 = rhs_reference(d + dt * k3, *end, ks)
        d = d + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        now = end
    return apply_blocks_reference(now[0], d)


def rk4_per_stage_reference(spec, h, u0, grid, t_final, dt):
    """The final field of six-row RK4 stepping (rhs_reference) with the
    material evaluated and inverted afresh at every stage: k1 at the step's
    start, k2 and k3 at its midpoint, k4 at its end."""
    from blochpacket.oracles import _grid_major, _GridMaterial

    mat = _GridMaterial(spec, h, grid)
    ks = grid.wave_meshgrid()

    def material(t):
        return _grid_major([np.linalg.inv(b) for b in mat.a0_at(t)]), mat.m_at(t)

    d = apply_blocks_reference(_grid_major(mat.a0_at(0.0)), np.asarray(u0, dtype=complex))
    nsteps = max(1, int(np.ceil(t_final / dt)))
    dt = t_final / nsteps
    t = 0.0
    for step in range(1, nsteps + 1):
        k1 = rhs_reference(d, *material(t), ks)
        k2 = rhs_reference(d + dt / 2 * k1, *material(t + dt / 2), ks)
        k3 = rhs_reference(d + dt / 2 * k2, *material(t + dt / 2), ks)
        t = step * dt
        k4 = rhs_reference(d + dt * k3, *material(t), ks)
        d = d + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return apply_blocks_reference(material(t)[0], d)


def fluctuation_values(data, points) -> np.ndarray:
    """g at (t, x) points (..., 4) from RayAverageData.fluctuation_terms, as
    build_profiles uses them: sum c (exp(i eta.(t, x)) - exp(i eta_x.(x - V t)))."""
    full, comoving = {}, {}
    for eta, c in data.fluctuation_terms():
        full[eta] = c
        key = (-float(np.dot(eta[1:], data.V)), *eta[1:])
        comoving[key] = comoving.get(key, 0.0) + c
    return trig_sum(full, points) - trig_sum(comoving, points)


def transport_defect(pipe, rng, num_samples) -> float:
    """max |(d_t + V.d_x) g - (gamma - mean(x - V t))| over random (t, x),
    derivatives taken by fourth-order finite differences of the closed-form
    g; every stencil point is evaluated in one trig_sum per sum."""
    data = pipe.ray
    s = 1e-3
    c4 = np.array([1.0, -8.0, 8.0, -1.0]) / (12.0 * s)
    base = np.column_stack([rng.uniform(0.2, 5.0, num_samples),
                            rng.uniform(-2, 2, size=(num_samples, 3))])
    # stencil points (sample, direction of (t, x), offset, coordinate)
    stencil = base[:, None, None] + s * np.array([-2.0, -1.0, 1.0, 2.0])[:, None] * np.eye(4)[:, None]
    deriv = np.einsum("o,sdoij->sdij", c4, fluctuation_values(data, stencil))
    lhs = np.einsum("d,sdij->sij", np.concatenate([[1.0], data.V]), deriv)
    rhs = (trig_sum(pipe.gamma.modes, base)
           - trig_sum(data.mean_modes, base[:, 1:] - data.V * base[:, :1]))
    return float(np.max(np.abs(lhs - rhs)))


def partition_is_exact(gamma, data) -> bool:
    """Every coupling mode lands in exactly one part of the ray-average
    split, unchanged: the non-resonant ones in fluctuation_modes, the
    resonant ones summed into mean_modes by spatial frequency."""
    fluct, sums = {}, {}
    for eta, a in gamma.modes.items():
        part, key = (fluct, eta) if eta in data.fluctuation_modes else (sums, eta[1:])
        part[key] = part.get(key, 0.0) + a
    return all(set(got) == set(want) and all(np.array_equal(got[k], want[k]) for k in want)
               for got, want in ((data.fluctuation_modes, fluct), (data.mean_modes, sums)))


def empirical_beta_reference(gamma, V, T_list) -> float:
    """rays.empirical_beta with the coupling summed mode by mode at one ray
    point at a time: the same quadrature, sup windows and fit."""
    V = np.asarray(V, dtype=float)
    data = ray_average(gamma, V)
    T_list = sorted(float(t) for t in T_list)
    divisors = [abs(eta[0] + np.dot(eta[1:], V)) for eta in gamma.modes] + [1.0]
    dt = 2 * np.pi / (BETA_STEPS_PER_PERIOD * max(divisors))
    ts = np.linspace(0.0, T_list[-1], int(np.ceil(T_list[-1] / dt)) + 1)
    zero = np.zeros((gamma.kappa, gamma.kappa), dtype=complex)
    norms = []
    for x0 in BETA_RAY_ORIGINS:
        mean_x0 = sum((a * np.exp(1j * np.dot(k, x0)) for k, a in data.mean_modes.items()), zero)
        vals = np.stack([sum((a * np.exp(1j * (eta[0] * t + np.dot(eta[1:], x0 + V * t)))
                              for eta, a in gamma.modes.items()), zero) - mean_x0 for t in ts])
        inc = 0.5 * (vals[1:] + vals[:-1]) * (ts[1] - ts[0])
        prefix = np.concatenate([zero[None], np.cumsum(inc, axis=0)])
        norms.append(np.linalg.norm(prefix, axis=(1, 2)))
    gnorm = np.max(norms, axis=0)
    sups = np.array([gnorm[(ts >= T / 2) & (ts <= T)].max() for T in T_list])
    if np.all(sups < 1e-12):
        return 0.0
    return float(max(np.polyfit(np.log(T_list), np.log(np.maximum(sups, 1e-300)), 1)[0], 0.0))
