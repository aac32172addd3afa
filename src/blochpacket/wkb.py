"""Three-scale wave-packet assembly and the residual hierarchy.

The approximate solution is

    v(t, x) = exp(i (omega t + theta.x) / h) *
              [ w0 + h w1 + h^2 w2 ](h t, t, x, x/h),

with profiles built from the tracked band.  Every profile is stored as a sum
of separated terms

    exp(i eta.(t, x)) * D(x - V t) * phi(y),

where eta is a (t, x) frequency carried by the modulations or by the
fluctuation integral, D is a derivative field of the envelope solution
(component a, slow-time derivative order m, spatial multi-index alpha,
evaluated spectrally in the comoving frame), and phi is a cell profile in
plane-wave coefficients.  The residual orders are then evaluated by applying
the exact cell / envelope-scale / slow-scale operators to the term tables,
each operator once per table on its vectors stacked as columns; no
numerical differentiation of sampled data occurs anywhere.

Hierarchy: the leading profile lives in the eigenspace, the first corrector
is fixed by the partial inverse acting on the envelope-scale operator (its
eigenspace part is the fluctuation integral times the leading profile, with
a minus sign; see the decisions ledger), the second corrector absorbs what
remains at the next order.  After construction the residual orders
r_{-1}, r_0, r_1 vanish identically up to solver tolerances, which is the
package's main correctness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bands import BlochBand, BlochOperator, ProjectorPair
from .dispersion import DispersionData
from .envelope import EnvelopeSolution
from .errors import CutoffMismatch
from .fourier import apply_mode_blocks, modulation_apply, symbol_matrix
from .harmonics import HarmonicField
from .rays import Eta, RayAverageData

FieldKey = Tuple[int, int, Tuple[int, int, int]]
TermTable = Dict[Tuple[Eta, FieldKey], np.ndarray]

_ZETA: Eta = (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Term-table algebra
# ---------------------------------------------------------------------------

def _add(table: TermTable, eta: Eta, key: FieldKey, vec: np.ndarray):
    idx = (eta, key)
    if idx in table:
        table[idx] = table[idx] + vec
    else:
        table[idx] = vec.copy()


def _merge(*tables: TermTable) -> TermTable:
    out: TermTable = {}
    for t in tables:
        for (eta, key), vec in t.items():
            _add(out, eta, key, vec)
    return out


def _bump_alpha(key: FieldKey, j: int) -> FieldKey:
    a, m, alpha = key
    alpha = list(alpha)
    alpha[j] += 1
    return (a, m, tuple(alpha))


def _bump_tder(key: FieldKey) -> FieldKey:
    a, m, alpha = key
    return (a, m + 1, alpha)


def _columns(table: TermTable, op: BlochOperator) -> Tuple[List[Tuple[Eta, FieldKey]], np.ndarray]:
    """The table's entries (eta, key) and its vectors as the columns of one
    (6K, E) array, in table order: the form every operator below applies
    to once per table."""
    entries = list(table)
    vecs = np.array([table[idx] for idx in entries], dtype=complex)
    return entries, vecs.reshape(len(entries), 6 * op.cutoff.num_modes).T


def _map(table: TermTable, op: BlochOperator, apply) -> TermTable:
    """The table with its vectors replaced by the columns of `apply` on its
    stacked columns, each copied out so that the table holds its own vectors
    rather than views that keep the whole stacked result alive."""
    entries, vecs = _columns(table, op)
    return {idx: col.copy() for idx, col in zip(entries, apply(vecs).T)}


def _modulation_terms(table: TermTable, op: BlochOperator):
    """The modulations' action on the table, one modulation_apply over its
    stacked columns per modulation frequency eta': for each entry (eta, key),
    (eta + eta', key, A0^1(eta') vec, M(eta') vec)."""
    entries, vecs = _columns(table, op)
    for eta_mod in op.spec.modulation_frequencies():
        a01, low = modulation_apply(op.spec, eta_mod, op.cutoff, vecs)
        for e, (eta, key) in enumerate(entries):
            yield tuple(float(a + b) for a, b in zip(eta, eta_mod)), key, a01[:, e], low[:, e]


def op_cell(table: TermTable, op: BlochOperator, omega: float) -> TermTable:
    """Bloch pencil i*omega*A0 - G at the carrier."""
    return _map(table, op, lambda vecs: op.pencil(omega, vecs))


def op_envelope(table: TermTable, op: BlochOperator, V: np.ndarray) -> TermTable:
    """Envelope-scale operator A0 d_t - curl_x on exp(i eta.(t,x)) D(x - Vt) phi.

    d_t hits the phase (i eta_0) and transports D (-V.grad); each d_{x_j}
    hits the phase (i eta_j) and D directly.  The coefficient C_j of d_{x_j}
    in the curl block is minus the symbol at e_j.
    """
    entries, vecs = _columns(table, op)
    a0v = op.apply_a0(vecs)
    cv = [-apply_mode_blocks(symbol, vecs) for symbol in symbol_matrix(np.eye(3))]
    out: TermTable = {}
    for e, (eta, key) in enumerate(entries):
        if eta[0] != 0.0:
            _add(out, eta, key, 1j * eta[0] * a0v[:, e])
        for j in range(3):
            if eta[1 + j] != 0.0:
                _add(out, eta, key, -1j * eta[1 + j] * cv[j][:, e])
            _add(out, eta, _bump_alpha(key, j), -V[j] * a0v[:, e] - cv[j][:, e])
    return out


def op_slow(table: TermTable, op: BlochOperator, omega: float) -> TermTable:
    """Slow-scale operator A0 d_T + sum_eta' exp(i eta'.(t,x)) (i w A0^1 + M)."""
    out = {(eta, _bump_tder(key)): vec
           for (eta, key), vec in _map(table, op, op.apply_a0).items()}
    for eta, key, a01, low in _modulation_terms(table, op):
        mv = 1j * omega * a01 + low
        if np.any(mv):
            _add(out, eta, key, mv)
    return out


def op_dt_modulation(table: TermTable, op: BlochOperator, V: np.ndarray) -> TermTable:
    """d_t (A0^1 .) -- the order-h^2 leftover of the slow material derivative."""
    out: TermTable = {}
    for eta, key, a01, _low in _modulation_terms(table, op):
        if not np.any(a01):
            continue
        if eta[0] != 0.0:
            _add(out, eta, key, 1j * eta[0] * a01)
        for j in range(3):
            _add(out, eta, _bump_alpha(key, j), -V[j] * a01)
    return out


def op_dT_modulation(table: TermTable, op: BlochOperator) -> TermTable:
    """A0^1 d_T -- the order-h^3 leftover of the slow material derivative."""
    out: TermTable = {}
    for eta, key, a01, _low in _modulation_terms(table, op):
        if np.any(a01):
            _add(out, eta, _bump_tder(key), a01)
    return out


# ---------------------------------------------------------------------------
# Profile set
# ---------------------------------------------------------------------------

@dataclass
class ProfileSet:
    """Leading profile and the two correctors as term tables, together with
    everything needed to evaluate them."""

    band: BlochBand
    projectors: ProjectorPair
    dispersion: DispersionData
    ray_data: Optional[RayAverageData]
    envelope: EnvelopeSolution
    op: BlochOperator
    w0: TermTable
    w1: TermTable
    w2: TermTable

    def with_ablation(self, drop_w1: bool = False, drop_w2: bool = False) -> "ProfileSet":
        return replace(self, w1={} if drop_w1 else self.w1,
                       w2={} if drop_w2 else self.w2)

    def tables(self) -> List[TermTable]:
        return [self.w0, self.w1, self.w2]

    @cached_property
    def residual_tables(self) -> Dict[str, TermTable]:
        """residual_orders(self), built on first use and kept: the tables do
        not depend on h or on the sample times."""
        return residual_orders(self)

    @cached_property
    def residual_stacks(self) -> Dict[str, tuple]:
        """_stack of every table of residual_tables, kept beside them."""
        return {name: _stack(table, self.op.cutoff.num_modes)
                for name, table in self.residual_tables.items()}


def build_profiles(band: BlochBand, projectors: ProjectorPair,
                   dispersion: DispersionData, ray_data: Optional[RayAverageData],
                   envelope_solution: EnvelopeSolution, op: BlochOperator) -> ProfileSet:
    """Construct the three profiles.

    * w0: envelope components times the band eigenvectors.
    * w1: complement part = -(partial inverse)(envelope operator applied to
      w0), paired with first envelope derivatives; eigenspace part =
      -(fluctuation integral) * w0.
    * w2: complement part = (partial inverse)(envelope operator on w1 +
      slow operator on w0); eigenspace part zero.
    """
    if not np.allclose(band.theta, projectors.theta) or band.omega != projectors.omega:
        raise CutoffMismatch("projectors built for a different band")
    if not np.allclose(band.theta, dispersion.theta):
        raise CutoffMismatch("dispersion data built for a different theta")
    if envelope_solution.kappa != band.kappa:
        raise CutoffMismatch("envelope component count does not match the band multiplicity")
    if ray_data is not None and ray_data.kappa != band.kappa:
        raise CutoffMismatch("ray-average data does not match the band multiplicity")
    op.check_band(band)

    psi = band.eigvecs
    kappa = band.kappa
    V = dispersion.V

    w0: TermTable = {}
    for a in range(kappa):
        _add(w0, _ZETA, (a, 0, (0, 0, 0)), psi[:, a])

    # complement part of the first corrector: -Q (envelope operator) w0
    w1 = _map(op_envelope(w0, op, V), op, lambda vecs: -projectors.apply_q(vecs))

    # eigenspace part: -(fluctuation integral) w0
    if ray_data is not None:
        for eta, coef in ray_data.fluctuation_terms():
            eta_comoving = (-float(np.dot(eta[1:], V)), *eta[1:])
            for a in range(kappa):
                for b in range(kappa):
                    c = coef[a, b]
                    if c == 0.0:
                        continue
                    _add(w1, eta, (b, 0, (0, 0, 0)), -c * psi[:, a])
                    _add(w1, eta_comoving, (b, 0, (0, 0, 0)), c * psi[:, a])

    # second corrector solves (cell pencil) w2 = -(what w1 and w0 leave at the
    # next order), complement part only
    w2 = _map(_merge(op_envelope(w1, op, V), op_slow(w0, op, band.omega)), op,
              lambda vecs: -projectors.apply_q(vecs))

    return ProfileSet(band=band, projectors=projectors, dispersion=dispersion,
                      ray_data=ray_data, envelope=envelope_solution, op=op,
                      w0=w0, w1=w1, w2=w2)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _field_values(profiles: ProfileSet, keys, T, pts: np.ndarray) -> Dict[FieldKey, np.ndarray]:
    """The envelope values D_key at the slow times T (J,) and points pts
    (P, 3), {key: (J, P)}, from one evaluation of every (T, key) spectrum;
    the times are walked in order, as the envelope's spectra are kept for
    the latest one."""
    env = profiles.envelope
    keys = list(keys)
    hats = [env.field_hat(*key, T_j) for T_j in T for key in keys]
    vals = env.eval_hats_at(hats, pts).reshape(len(T), len(keys), len(pts))
    return {key: vals[:, i] for i, key in enumerate(keys)}


def _stack(table: TermTable, num_modes: int) -> Tuple[List[Tuple[Eta, FieldKey]], np.ndarray, np.ndarray]:
    """The table as arrays: its entries (eta, key) whose vector is not
    exactly zero, in table order; the held modes (sorted indices), on which
    some kept vector has a nonzero row and so the only harmonics the table
    can fill; and the kept vectors on the held modes, (E, 6 |held|)."""
    entries = [idx for idx, vec in table.items() if np.any(vec)]
    vecs = np.array([table[idx] for idx in entries], dtype=complex).reshape(len(entries), num_modes, 6)
    held = np.flatnonzero(np.any(vecs, axis=(0, 2)))
    return entries, held, vecs[:, held].reshape(len(entries), 6 * len(held))


def _product(stack, fields: Dict[FieldKey, np.ndarray], t: np.ndarray, x: np.ndarray):
    """A stacked table at the times t (J,) and points x, (J, P, 3) or (P, 3)
    at every time, with `fields` the envelope values D_key there, (J, P):
    the (J P, E) entry coefficients exp(i eta.(t_j, x)) D_key and their
    product with the stacked vectors, (J P, 6 |held|), one row per (time,
    point) pair, time major."""
    entries, _held, vecs = stack
    t = np.asarray(t, dtype=float)[:, None]
    phases = {eta: np.exp(1j * (eta[0] * t + x @ np.asarray(eta[1:])))
              for eta in {eta for (eta, _key) in entries}}
    shape = np.broadcast_shapes(t.shape, x.shape[:-1])  # (J, P)
    coef = np.empty((len(entries),) + shape, dtype=complex)
    for row, (eta, key) in zip(coef, entries):
        np.multiply(phases[eta], fields[key], out=row)
    coef = coef.reshape(len(entries), shape[0] * shape[1]).T
    return coef, coef @ vecs


def _weighted_stack(profiles: ProfileSet, h: float):
    """_stack of the three profiles merged into one table, order j weighted
    by h^j."""
    merged = _merge(*({idx: (h ** j) * vec for idx, vec in table.items()}
                      for j, table in enumerate(profiles.tables())))
    return _stack(merged, profiles.op.cutoff.num_modes)


def evaluate_table(profiles: ProfileSet, table: TermTable, T, t, x_comoving: np.ndarray,
                   fields: Optional[Dict[FieldKey, np.ndarray]] = None,
                   stack=None):
    """Evaluate a term table at the slow times T and times t, both (J,), and
    comoving points (P, 3).

    Physical positions are x = x_comoving + V t_j; the envelope is evaluated
    at x_comoving directly.  `fields` (the envelope values at these points
    for at least the keys of the table's nonzero entries, (J, P) each) and
    `stack` (the table's _stack) come from a caller that computed them once,
    or are computed here.  Returns (values (J, P, 6K), magnitude (J, P))
    where magnitude is the triangle-inequality bound sum |coef| * |phi| used
    as the cancellation scale; each is one product of the (J P, E) entry
    coefficients.
    """
    pts = np.asarray(x_comoving, dtype=float).reshape(-1, 3)
    t = np.asarray(t, dtype=float)
    num_modes = profiles.op.cutoff.num_modes
    if stack is None:
        stack = _stack(table, num_modes)
    entries, held, vecs = stack
    if fields is None:
        fields = _field_values(profiles, {key for (_eta, key) in entries}, T, pts)
    x = pts[None] + t[:, None, None] * profiles.dispersion.V
    coef, per_mode = _product(stack, fields, t, x)
    vals = np.zeros((len(coef), num_modes, 6), dtype=complex)
    vals[:, held] = per_mode.reshape(len(coef), len(held), 6)
    mag = np.abs(coef) @ np.linalg.norm(vecs, axis=1)
    return vals.reshape(len(t), len(pts), -1), mag.reshape(len(t), len(pts))


def residual_orders(profiles: ProfileSet) -> Dict[str, TermTable]:
    """Term tables of the residual orders r_{-1} .. r_3."""
    op = profiles.op
    omega = profiles.band.omega
    V = profiles.dispersion.V
    return {
        "r-1": op_cell(profiles.w0, op, omega),
        "r0": _merge(op_cell(profiles.w1, op, omega), op_envelope(profiles.w0, op, V)),
        "r1": _merge(op_cell(profiles.w2, op, omega), op_envelope(profiles.w1, op, V),
                     op_slow(profiles.w0, op, omega)),
        "r2": _merge(op_envelope(profiles.w2, op, V), op_slow(profiles.w1, op, omega),
                     op_dt_modulation(profiles.w0, op, V)),
        "r3": _merge(op_slow(profiles.w2, op, omega), op_dt_modulation(profiles.w1, op, V),
                     op_dT_modulation(profiles.w0, op)),
    }


def residual(profiles: ProfileSet, hs, horizon: float, num_t: int = 5,
             num_x: int = 5) -> Dict[float, Dict[str, Dict[str, float]]]:
    """Evaluate the residual hierarchy at every scale h in `hs` on a sample
    set tied to the solution; returns {h: report}.

    Samples follow rays: comoving points on a tensor grid in the packet core
    (central quarter of the envelope box per varying axis), slow times T in
    [0, horizon] with t = T/h.  The envelope values depend on T alone, so
    one walk over T serves every h, and each order is evaluated at every
    (h, T) sample by one product (evaluate_table with one time axis).  Per
    order the report carries the max cell-L2 norm over samples ('abs'), the
    triangle-inequality magnitude of the terms before cancellation
    ('scale'), and their ratio ('rel').

    Orders r_{-1}, r_0, r_1 vanish by construction; 'r2' and 'r3' are the
    leading surviving terms of the error budget.
    """
    orders = profiles.residual_tables

    grid = profiles.envelope.grid
    axes = []
    for a in range(3):
        if grid.shape[a] == 1:
            axes.append(np.zeros(1))
        else:
            L = grid.lengths[a]
            axes.append(np.linspace(-L / 8, L / 8, num_x))
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)

    keys = {key for (entries, _held, _vecs) in profiles.residual_stacks.values()
            for (_eta, key) in entries}
    Ts = np.linspace(0.0, horizon, num_t)
    fields = _field_values(profiles, keys, Ts, pts)
    # every (h, T) sample as one time axis, h major: t = T/h
    hs = list(hs)
    fields = {key: np.tile(f, (len(hs), 1)) for key, f in fields.items()}
    t_all = np.concatenate([Ts / h for h in hs])
    report = {h: {} for h in hs}
    for name, table in orders.items():
        vals, mag = evaluate_table(profiles, table, np.tile(Ts, len(hs)), t_all, pts,
                                   fields=fields, stack=profiles.residual_stacks[name])
        worst_abs = np.linalg.norm(vals, axis=2).reshape(len(hs), -1).max(axis=1)
        worst_scale = mag.reshape(len(hs), -1).max(axis=1)
        for h, w_abs, w_scale in zip(hs, worst_abs.tolist(), worst_scale.tolist()):
            report[h][name] = {"abs": w_abs, "scale": w_scale,
                               "rel": w_abs / max(w_scale, 1e-300)}
    return report


# ---------------------------------------------------------------------------
# Assembly at physical points
# ---------------------------------------------------------------------------

def assemble(profiles: ProfileSet, h: float, t: float, points) -> np.ndarray:
    """The triple-scale field at scale h and time t at the physical points
    (P, 3), as (P, 6) samples.

    The three orders are merged into one table (order j weighted by h^j) and
    evaluated by one product (_product): envelope factors spectrally
    interpolated at x - V t (periodic box), one value per held mode.  The
    carrier exp(i (omega t + (theta + n).x)/h) of each held mode n is then
    applied exactly, in one contraction over the held modes.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    band = profiles.band
    stack = _weighted_stack(profiles, h)
    entries, held, _vecs = stack
    fields = _field_values(profiles, {key for (_eta, key) in entries}, [h * t],
                           pts - profiles.dispersion.V[None, :] * t)
    _coef, per_mode = _product(stack, fields, [t], pts)
    carrier = np.exp(1j * ((pts / h) @ (band.theta[:, None] + profiles.op.cutoff.modes[held].T)
                           + band.omega * t / h))
    return np.einsum("pk,pkc->pc", carrier, per_mode.reshape(len(pts), len(held), 6))


def assemble_harmonics(profiles: ProfileSet, h: float, times, grid) -> HarmonicField:
    """Harmonic-resolved assembly on an envelope grid at the times (J,).

    Returns the HarmonicField whose harmonics {n: (J, 6, M1, M2, M3)} give
    the field at t_j as sum_n exp(i (theta + n).x / h) D_n(t_j, x), each D_n
    carrying exp(i omega t_j / h), holding only the modes on which some cell
    profile is nonzero (every other harmonic is zero).  The table is the one
    assemble evaluates, built once for all times and evaluated by the same
    product (_product) at every (time, grid point) pair; the envelope
    factors of every (time, key) pair are transformed by one inverse FFT of
    the grid.  Requires every (t, x) frequency carried by the profiles
    to be commensurate with the box (guaranteed for purely periodic media,
    where no such frequencies occur).
    """
    env = profiles.envelope
    stack = _weighted_stack(profiles, h)
    entries, held, _vecs = stack
    times = np.asarray(times, dtype=float)
    ks = grid.wavenumbers
    keys = sorted({key for (_eta, key) in entries})
    hats = np.empty((len(times), len(keys)) + grid.shape, dtype=complex)
    for j, t in enumerate(times):
        vt = profiles.dispersion.V * t
        shift = np.exp(-1j * (ks[0] * vt[0] + ks[1] * vt[1] + ks[2] * vt[2]))
        for i, key in enumerate(keys):
            hats[j, i] = env.field_hat(*key, h * t) * shift
    on_grid = grid.ifft(hats).reshape(len(times), len(keys), -1)
    del hats  # before the product's arrays, each as large
    envelope_on_grid = {key: on_grid[:, i] for i, key in enumerate(keys)}
    _coef, per_mode = _product(stack, envelope_on_grid, times, grid.points().reshape(-1, 3))
    per_mode = per_mode.reshape(len(times), -1, len(held), 6)
    harm = np.exp(1j * profiles.band.omega * times / h)[:, None, None, None] * per_mode
    harm = np.moveaxis(harm, (2, 3, 1), (1, 2, 3)).reshape((len(times), len(held), 6) + grid.shape)
    return HarmonicField(profiles.band.theta, h, times, grid,
                         {tuple(n): harm[:, i] for i, n in enumerate(profiles.op.cutoff.modes[held])})
