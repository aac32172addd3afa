"""Tests of the benchmark's references and checks: `python3 -m pytest benchmark`.

The references are tested against closed forms.  Each workload check is run
on artifacts the CLI writes for smaller variants of the workload configs
(cutoff 1, short horizons): it must pass on them as written and fail on every
corrupted copy listed in CORRUPTIONS.
"""

import contextlib
import io
import json
import shutil
import struct

import numpy as np
import pytest

import checks
from reference import Layered1D, field_energy, read_field_dump
from run import CONFIGS, WORKLOADS


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta1,theta2", [(0.3, 0.2), (0.3, 0.0), (0.75, 0.4)])
def test_layered_1d_zero_ripple_closed_form(theta1, theta2):
    eps, n = 1.7, np.arange(-3, 4)
    ref = Layered1D({0: eps}, 3)
    want = np.sort(np.sqrt((n + theta1) ** 2 + theta2 ** 2) / np.sqrt(eps))
    np.testing.assert_allclose(ref.omegas(theta1, theta2), want, rtol=1e-14)


def test_layered_1d_derivatives_zero_ripple():
    eps, theta = 1.5, np.array([0.3, 0.2])
    ref = Layered1D({0: eps}, 2)
    k = np.linalg.norm(theta)
    v = -theta / (k * np.sqrt(eps))
    hess = (np.eye(2) - np.outer(theta, theta) / k ** 2) / (k * np.sqrt(eps))
    np.testing.assert_allclose(ref.velocity(*theta), v, atol=1e-10)
    np.testing.assert_allclose(ref.hessian(*theta), hess, atol=1e-8)


def test_layered_1d_ripple_is_hermitian_definite():
    ref = Layered1D({0: 1.0, 1: 0.1, -1: 0.1}, 2)
    np.testing.assert_array_equal(ref.toeplitz, ref.toeplitz.conj().T)
    assert np.linalg.eigvalsh(ref.toeplitz).min() > 0


def test_field_dump_reader_matches_writer(tmp_path):
    from blochpacket.envelope import EnvelopeGrid
    from blochpacket.fieldio import dump_field

    grid = EnvelopeGrid([4.0, 5.0, 6.0], [3, 2, 1])
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((6, 3, 2, 1)) + 1j * rng.standard_normal((6, 3, 2, 1))
    path = tmp_path / "f.bwpk"
    dump_field(path, vals, grid, time=1.5, h=0.25, theta=(0.3, 0.1, 0.0), omega=0.7)
    d = read_field_dump(path)
    np.testing.assert_array_equal(d["values"], vals.astype(np.complex64))
    assert (d["shape"], d["lengths"], d["time"], d["h"], d["omega"]) == ((3, 2, 1), (4.0, 5.0, 6.0), 1.5, 0.25, 0.7)
    np.testing.assert_array_equal(d["theta"], [0.3, 0.1, 0.0])

    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_field_dump(path)
    path.write_bytes(b"X" + raw[1:])
    with pytest.raises(ValueError, match="magic"):
        read_field_dump(path)


def test_field_energy_of_uniform_field():
    # E = e_y on a layered grid: energy = sum eps_yy(x/h) dV
    shape, lengths, h = (16, 1, 1), (4 * np.pi, 1.0, 1.0), 0.5
    vals = np.zeros((6,) + shape, dtype=complex)
    vals[1] = 1.0
    vals[5] = 2.0
    dump = {"values": vals, "shape": shape, "lengths": lengths}
    x = -lengths[0] / 2 + lengths[0] / 16 * np.arange(16)
    want = (np.sum(1.5 + 0.1 * np.cos(x / h)) + 16 * 4.0) * lengths[0] / 16
    eps = lambda y: np.array([2 + 0 * y, 1.5 + 0.1 * np.cos(y), 1 + 0 * y])  # noqa: E731
    assert field_energy(dump, eps, h) == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# workload checks on real artifacts, clean and corrupted
# ---------------------------------------------------------------------------

# smaller variants of the workload configs, so the commands take seconds
SHRINK = {
    "bands_layered": {"cutoff": 1},
    "validate_identity": {"workers": 1, "h_list": [0.125, 0.0625]},
    "wkb_modulated": {},
    "oracle_layered": {"time_domain": {"grid": {"lengths": [50.26548245743669, 6.283185307179586,
                                                            6.283185307179586],
                                                "shape": [1024, 1, 1]},
                                       "t_final": 0.2, "dt": 0.01}},
}


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    import blochpacket.cli as cli

    base = tmp_path_factory.mktemp("artifacts")
    docs = {}
    for name, change in SHRINK.items():
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        doc.update(change)
        (base / f"{name}.json").write_text(json.dumps(doc))
        docs[name] = doc
    for workload, (commands, _check) in WORKLOADS.items():
        for label, command, cfg in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([command, "--config", str(base / f"{cfg}.json"),
                               "--out", str(base / workload / label)])
            assert rc == 0, (workload, label)
    return base, docs


def _edit_json(rel, edit):
    def apply(rnd):
        doc = json.loads((rnd / rel).read_text())
        edit(doc)
        (rnd / rel).write_text(json.dumps(doc))
    return apply


def _edit_csv(rel, row, col, edit):
    def apply(rnd):
        lines = (rnd / rel).read_text().splitlines()
        idx = row if row >= 0 else len(lines) + row
        cells = lines[idx].split(",")
        cells[col] = repr(edit(float(cells[col])))
        lines[idx] = ",".join(cells)
        (rnd / rel).write_text("\n".join(lines) + "\n")
    return apply


def _edit_band1_omega(rel, edit):
    """Edit omega on the last bands.csv row of band 1."""
    def apply(rnd):
        lines = (rnd / rel).read_text().splitlines()
        row = max(i for i, line in enumerate(lines) if line.split(",")[3] == "1")
        _edit_csv(rel, row, 4, edit)(rnd)
    return apply


def _drop_last_line(rel):
    def apply(rnd):
        lines = (rnd / rel).read_text().splitlines()
        (rnd / rel).write_text("\n".join(lines[:-1]) + "\n")
    return apply


def _edit_bytes(rel, edit):
    def apply(rnd):
        (rnd / rel).write_bytes(edit((rnd / rel).read_bytes()))
    return apply


def _scale_payload(raw):
    head = 16 + struct.calcsize("<II3I3ddd3dd")
    payload = np.frombuffer(raw[head:], dtype="<c8") * np.complex64(1.001)
    return raw[:head] + payload.astype("<c8").tobytes()


def _bump(key, delta):
    return lambda d: d.__setitem__(key, d[key] + delta)


def _bump2(key, i, j, delta, sym=True):
    def edit(d):
        d[key][i][j] += delta
        if sym and i != j:
            d[key][j][i] += delta
    return edit


def _set_residual(order, field, value, per_h=False):
    def edit(d):
        for res in ([v["residual"] for v in d["per_h"].values()] if per_h else [d]):
            res[order][field] = value(res)
    return edit


def _swap_sup(d):
    hs = sorted(d["sup_errors"])
    d["sup_errors"][hs[0]], d["sup_errors"][hs[1]] = d["sup_errors"][hs[1]], d["sup_errors"][hs[0]]


def _raise_bound(d):
    smallest = min(d["per_h"], key=float)
    d["per_h"][smallest]["order_bound"] *= 1e3


# (workload, corrupted artifact, corruption, expected failure text)
CORRUPTIONS = [
    ("layered_dispersion", "bands/bands.csv", _edit_band1_omega("bands/bands.csv", lambda w: w + 1e-9),
     "bands.csv omega"),
    ("layered_dispersion", "bands/bands.csv", _drop_last_line("bands/bands.csv"), "configured path"),
    ("layered_dispersion", "bands/dispersion.json",
     _edit_json("bands/dispersion.json", lambda d: d["V"].__setitem__(1, d["V"][1] + 1e-6)), "V[:2]"),
    ("layered_dispersion", "bands/dispersion.json",
     _edit_json("bands/dispersion.json", _bump("speed_margin", -10.0)), "speed margin"),
    ("layered_dispersion", "dispersion/dispersion.json",
     _edit_json("dispersion/dispersion.json", _bump2("hessian", 0, 1, 1e-5)), "in-plane Hessian"),
    ("layered_dispersion", "dispersion/dispersion.json",
     _edit_json("dispersion/dispersion.json", _bump("omega", 1e-9)), "dispersion.json omega"),
    ("layered_dispersion", "dispersion/dispersion_fd_check.json",
     _edit_json("dispersion/dispersion_fd_check.json", _bump2("hessian_fd", 2, 2, 1e-5)),
     "finite-difference vs perturbative"),
    ("layered_dispersion", "dispersion/dispersion_fd_check.json",
     _edit_json("dispersion/dispersion_fd_check.json", _bump("max_abs_deviation", 1e-9)),
     "max_abs_deviation"),
    ("oracle_checks", "validate_identity/convergence_summary.json",
     _edit_json("validate_identity/convergence_summary.json", _bump("slope", -1.5)), "slope"),
    ("oracle_checks", "validate_identity/convergence_summary.json",
     _edit_json("validate_identity/convergence_summary.json", _swap_sup), "does not fall"),
    ("oracle_checks", "validate_modulated/convergence_summary.json",
     _edit_json("validate_modulated/convergence_summary.json", _raise_bound), "certificate bounds"),
    ("oracle_checks", "validate_modulated/convergence_summary.json",
     _edit_json("validate_modulated/convergence_summary.json",
                _set_residual("r1", "abs", lambda r: 1e-3 * r["r1"]["scale"], per_h=True)),
     "is not cancelled"),
    ("oracle_checks", "oracle/energy.csv", _edit_csv("oracle/energy.csv", -1, 1, lambda e: e * (1 + 1e-7)),
     "energy drift"),
    ("oracle_checks", "oracle/energy.csv", _edit_csv("oracle/energy.csv", 3, 2, lambda v: v + 1e-3),
     "div_eps_E"),
    ("oracle_checks", "oracle/time_domain_final.bwpk",
     _edit_bytes("oracle/time_domain_final.bwpk", _scale_payload), "energy vs trace"),
    ("oracle_checks", "oracle/time_domain_final.bwpk",
     _edit_bytes("oracle/time_domain_final.bwpk", lambda b: b[:-8]), "payload"),
    ("oracle_checks", "oracle/time_domain_final.bwpk",
     _edit_bytes("oracle/time_domain_final.bwpk", lambda b: b"\0" + b[1:]), "bad magic"),
    ("oracle_checks", "oracle/time_domain_final.bwpk",
     _edit_bytes("oracle/time_domain_final.bwpk", lambda b: b[:16 + 44] + struct.pack("<d", 1.0) + b[16 + 52:]),
     "header time/h"),
]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checks_pass_on_clean_artifacts(artifacts, workload):
    base, docs = artifacts
    assert WORKLOADS[workload][1](base / workload, docs) == []


def test_setup_check(tmp_path):
    import blochpacket.cli as cli

    doc = json.loads((CONFIGS / "setup_vacuum.json").read_text())
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["bands", "--config", str(CONFIGS / "setup_vacuum.json"),
                         "--out", str(tmp_path)]) == 0
    assert checks.check_setup(tmp_path, doc) == []
    _edit_json("dispersion.json", _bump("omega", 1e-9))(tmp_path)
    assert any("setup omega" in f for f in checks.check_setup(tmp_path, doc))


def test_tracer_counts_calls_and_reports_absent_functions(tmp_path, monkeypatch):
    import blochpacket.bands
    import blochpacket.cli as cli
    import tracing

    # a span whose function is gone while another feeds the same metric, and a
    # metric all of whose functions are gone
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + [
        ("wkb.residual", "blochpacket.wkb", "residual_removed", ()),
        ("gone", "blochpacket.gone", "f", ()),
    ])
    monkeypatch.setattr(tracing, "METRICS", {**tracing.METRICS, "gone_s": ("s", "gone")})
    original = blochpacket.bands.solve_bands
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["bands", "--config", str(CONFIGS / "setup_vacuum.json"),
                             "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert blochpacket.bands.solve_bands is original and cli.solve_bands is original
    m = tracer.metrics()
    assert m["bands.solve_calls"]["value"] == 1
    assert m["fourier.assembly_calls"]["value"] >= 2
    assert m["fieldio.bytes_written"]["value"] == sum(p.stat().st_size for p in tmp_path.iterdir())
    assert tracer.absent_metrics() == ["gone_s"]
    assert 0 < tracer.overhead_s() < 0.1
    assert m["gone_s"]["value"] == 0.0


@pytest.mark.parametrize("workload,target,corrupt,expect", CORRUPTIONS,
                         ids=[f"{w}:{t}:{e}" for w, t, _c, e in CORRUPTIONS])
def test_checks_fail_on_corrupted_artifact(artifacts, tmp_path, workload, target, corrupt, expect):
    base, docs = artifacts
    rnd = tmp_path / workload
    shutil.copytree(base / workload, rnd)
    corrupt(rnd)
    fails = WORKLOADS[workload][1](rnd, docs)
    assert any(expect in f for f in fails), fails
