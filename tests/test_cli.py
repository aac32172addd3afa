"""CLI: config validation, artifact schemas, determinism, exit codes."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from blochpacket.cli import main
from blochpacket.envelope import EnvelopeGrid
from blochpacket.fieldio import dump_field, load_field, material_from_dict, material_to_dict
from blochpacket.presets import layered_anisotropic

L = 16 * np.pi

BASE = {
    "material": {"preset": "identity"},
    "cutoff": 1,
    "theta": [0.3, 0.0, 0.0],
    "band": {"index": 1},
    "num_bands": 8,
    "packet": {"widths": [1.0, 1.5, 1.0], "weights": [[1.0, 0.0], [0.0, 0.5]], "axes": [1]},
    "h_list": [0.125, 0.0625],
    "horizon": 0.5,
    "grid": {"lengths": [L, L, L], "shape": [1, 128, 1]},
    "envelope_dT": 1e-3,
    "seeding": "full_profile",
    "seed": 0,
}


def write_config(tmp_path, overrides=None, name="config.json"):
    doc = json.loads(json.dumps(BASE))
    if overrides:
        doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_invalid_theta_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"theta": [0.0, 0.0, 0.0]})
    assert main(["bands", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_nonmonotone_h_list_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"h_list": [0.125, 0.25]})
    assert main(["bands", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_negative_tolerance_exits_2(tmp_path):
    cfg = write_config(tmp_path, {"tolerances": {"gap_tol": -1.0}})
    assert main(["bands", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_unknown_tolerance_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tolerances": {"cluster_tol": 1e-6}})
    assert main(["bands", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "cluster_tol" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["packet", "band", "grid", "time_domain",
                                     "time_domain.grid", "theta_path", "material"])
def test_unknown_section_key_exits_2(tmp_path, capsys, section):
    """A misspelt key in any config section exits 2 with a message that names
    it and lists the section's settable keys."""
    outer, _, inner = section.partition(".")
    typo = {inner: {"misspelt": 1}} if inner else {"misspelt": 1}
    cfg = write_config(tmp_path, {outer: typo})
    assert main(["bands", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert f"unknown {section} keys ['misspelt']; settable: [" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert main(["bands", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_config_not_an_object_exits_2(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[1, 2]")
    assert main(["bands", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("overrides", [
    {"grid": {"shape": [1, 128, 1]}},
    {"grid": {"lengths": [L, L], "shape": [1, 128, 1]}},
    {"grid": {"lengths": [L, L, L], "shape": [1, 0, 1]}},
    {"time_domain": {"grid": {"shape": [64, 1, 1]}}},
    {"cutoff": -1},
    {"packet": {"widths": [1.0, 1.5], "axes": [1]},
     "grid": {"lengths": [L, L, L], "shape": [1, 128, 16]}},
], ids=["grid_without_lengths", "two_grid_lengths", "zero_grid_size",
        "time_domain_grid_without_lengths", "negative_cutoff", "two_packet_widths"])
def test_malformed_config_value_exits_2(tmp_path, overrides):
    cfg = write_config(tmp_path, overrides)
    assert main(["envelope", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("overrides,key", [
    ({"h_list": ["a"]}, "h_list"),
    ({"packet": {"widths": [1.0, 1.5, 1.0], "weights": [[1.0]], "axes": [1]}}, "packet.weights"),
    ({"envelope_dT": -0.001}, "envelope_dT"),
    ({"theta_path": {"to": [0.3, 0.1, 0.0], "steps": "x"}}, "theta_path.steps"),
    ({"theta_path": {"to": [0.3, 0.1], "steps": 3}}, "theta_path.to"),
    ({"theta_path": {"to": [0.3, 0.1, 0.0], "steps": 0}}, "theta_path.steps"),
    ({"theta_path": {"to": [0.3, 0.6, 0.0], "steps": 2}}, "theta_path.steps"),
    ({"time_domain": {"t_final": -1}}, "time_domain.t_final"),
    ({"time_domain": {"t_final": "x"}}, "time_domain.t_final"),
    ({"time_domain": {"t_final": "inf"}}, "time_domain.t_final"),
    ({"time_domain": {"dt": -0.01}}, "time_domain.dt"),
    ({"time_domain": {"dt": "x"}}, "time_domain.dt"),
    ({"time_domain": {"cfl": -0.5}}, "time_domain.cfl"),
    ({"packet": {"widths": [1.0, 1.5, 1.0], "axes": [1], "support_sigmas": "x"}},
     "packet.support_sigmas"),
    ({"packet": {"widths": [1.0, 1.5, 1.0], "axes": [1], "support_sigmas": -6}},
     "packet.support_sigmas"),
    ({"packet": {"widths": ["a", 1, 1], "axes": [1]}}, "packet.widths"),
    ({"packet": {"widths": [1.0, 1.5, 1.0], "axes": ["a"]}}, "packet.axes"),
    ({"packet": {"widths": [1.0, 1.5, 1.0], "axes": [3]}}, "packet.axes"),
    ({"packet": {"widths": [1.0, 1.5, 1.0], "axes": []}}, "packet.axes"),
    ({"packet": {"widths": [1.0, 1.5, 1.0], "axes": [1, 1]}}, "packet.axes"),
    ({"num_bands": "x"}, "num_bands"),
    ({"num_bands": 0}, "num_bands"),
    ({"seed": "x"}, "seed"),
    ({"band": {"index": "x"}}, "band.index"),
    ({"packet": {"weights": [[0.0, 0.0], [0.0, 0.0]]}}, "packet.weights"),
    ({"packet": {"weights": [[float("nan"), 0.0], [0.0, 0.0]]}}, "packet.weights"),
    ({"h_list": 0.125}, "h_list"),
    ({"theta": [0.3, "a", 0]}, "theta"),
    ({"num_bands": 10**6}, "num_bands"),
    ({"cutoff": 1.5}, "cutoff"),
    ({"grid": {"lengths": [L, L, L], "shape": [1, 19.5, 1]}}, "grid.shape"),
    ({"material": {"preset": "identity", "modulatons": []}}, "material keys ['modulatons']"),
    ({"material": {"preset": "identity", "params": {"amp": 0.2}}},
     "material.params keys ['amp']"),
    ({"material": {"preset": "layered", "params": {"axis": 5}}}, "material.params.axis"),
    ({"material": {"preset": "identity", "modulations": 5}}, "material.modulations"),
    ({"material": {"preset": "identity", "modulations": [{"eta": [0.7, -0.4, 0, 0],
                                                          "amplitud": 0.2}]}},
     "material.modulations[0] keys ['amplitud']"),
    ({"material": {"preset": "identity", "modulations": [{"kind": "ohmic"}]}},
     "material.modulations[0].sigma"),
    ({"material": {"preset": "identity", "modulations": [{"kind": "ohmic", "sigma": "x"}]}},
     "material.modulations[0].sigma"),
    ({"material": {"preset": "identity", "modulations": [{"kind": "sine"}]}},
     "material.modulations[0].kind"),
    ({"material": {"preset": "identity", "modulations": [{"amplitude": 0.1}]}},
     "material.modulations[0].eta"),
    ({"material": {"preset": "identity", "modulations": [{"eta": [0.7, -0.4]}]}},
     "material.modulations[0].eta"),
    ({"material": {"preset": "identity", "modulations": [{"eta": [0.7, -0.4, 0, 0, 1]}]}},
     "material.modulations[0].eta"),
    ({"material": {"preset": "identity", "modulations": [{"eta": [0.7, "a", 0, 0]}]}},
     "material.modulations[0].eta"),
    ({"material": {"preset": "identity", "modulations": [{"eta": [0.7, -0.4, 0, 0],
                                                          "amplitude": "x"}]}},
     "material.modulations[0].amplitude"),
    ({"material": {"preset": "identity", "modulations": [{"eta": [0.7, -0.4, 0, 0],
                                                          "cell_mode": [0.5, 0, 0]}]}},
     "material.modulations[0].cell_mode"),
    ({"material": {"preset": "identity", "modulations": [{"eta": [0.7, -0.4, 0, 0],
                                                          "target": "eps2"}]}},
     "material.modulations[0].target"),
    ({"material": {"eps0": [{"n": [0, 0, 0], "matrix": [[[1, 0]] * 3] * 3}],
                   "mu0": [{"n": [0, 0, 0], "matrix": [[[1, 0]] * 3] * 3}],
                   "eps1": [{"eta": [0.7, -0.4, 0, 0], "n": [0.5, 0, 0],
                             "matrix": [[[0.1, 0]] * 3] * 3}]}}, "eps1"),
    ({"material": {"eps0": [{"n": [0, 0, 0], "matrix": [[[1, 0]] * 3] * 3, "weight": 3}],
                   "mu0": [{"n": [0, 0, 0], "matrix": [[[1, 0]] * 3] * 3}]}},
     "material.eps0[0].weight"),
    ({"material": {"eps0": [{"n": [0, 0, 0], "matrix": [[[1, 0]] * 3] * 3}],
                   "mu0": [{"n": [0, 0, 0], "matrix": [[[1, 0]] * 3] * 3}],
                   "eps1": [{"eat": [0.7, -0.4, 0, 0], "n": [0, 0, 0],
                             "matrix": [[[0.1, 0]] * 3] * 3}]}}, "material.eps1[0].eat"),
    ({"material": {"eps0": [{"n": [0, 0, 0], "matrix": [[[1, 0]] * 3] * 3}],
                   "mu0": [{"matrix": [[[1, 0]] * 3] * 3}]}}, "material.mu0[0].n"),
    ({"material": {"mu0": [{"n": [0, 0, 0], "matrix": [[[1, 0]] * 3] * 3}]}},
     "eps0 has no coefficients"),
    ({"horizon": True}, "horizon"),
    ({"cutoff": True}, "cutoff"),
    ({"tolerances": {"gap_tol": True}}, "tolerances.gap_tol"),
    ({"tolerances": {"gap_tol": float("inf")}}, "tolerances.gap_tol"),
    ({"output": 5}, "output"),
    ({"horizon": "0.5"}, "horizon"),
    ({"cutoff": "1"}, "cutoff"),
    ({"tolerances": {"gap_tol": "1e-6"}}, "tolerances.gap_tol"),
], ids=["non_numeric_h", "weight_not_a_pair", "negative_envelope_dT",
        "non_numeric_path_steps", "two_entry_path_end", "zero_path_steps",
        "path_step_over_tracking_bound", "negative_t_final", "non_numeric_t_final",
        "infinite_t_final", "negative_dt", "non_numeric_dt", "negative_cfl",
        "non_numeric_support_sigmas", "negative_support_sigmas", "non_numeric_width",
        "non_numeric_axis", "axis_out_of_range", "no_axes", "duplicate_axes",
        "non_numeric_num_bands",
        "zero_num_bands", "non_numeric_seed", "non_numeric_band_index",
        "zero_weights", "nan_weight", "scalar_h_list", "non_numeric_theta",
        "num_bands_over_dynamic_dimension", "fractional_cutoff", "fractional_grid_size",
        "misspelt_modulations", "unknown_preset_param", "preset_axis_out_of_range",
        "modulations_not_a_list", "misspelt_amplitude", "ohmic_without_sigma",
        "non_numeric_sigma", "unknown_modulation_kind", "modulation_without_eta",
        "two_entry_eta", "five_entry_eta", "non_numeric_eta", "non_numeric_amplitude",
        "fractional_cell_mode", "unknown_target", "fractional_coefficient_mode",
        "extra_coefficient_key", "misspelt_coefficient_eta", "missing_coefficient_n",
        "material_without_eps0",
        "boolean_horizon", "boolean_cutoff", "boolean_tolerance", "infinite_tolerance",
        "non_string_output", "string_horizon", "string_cutoff", "string_tolerance"])
def test_malformed_value_names_its_key(tmp_path, capsys, overrides, key):
    cfg = write_config(tmp_path, overrides)
    assert main(["envelope", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert key in capsys.readouterr().err


def test_readme_lists_every_config_key():
    """The README's configuration list names every key of the table."""
    from blochpacket.config import SCHEMA

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
    assert [key for key in SCHEMA if f"`{key}`" not in section] == []


def _band_run(tmp_path, name, band):
    """bands on BASE with `band` as its band section (None: without one):
    the exit code and the tracked cluster's omega."""
    doc = json.loads(json.dumps(BASE))
    if band is None:
        del doc["band"]
    else:
        doc["band"] = band
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / name
    code = main(["bands", "--config", str(cfg), "--out", str(out)])
    return code, json.loads((out / "dispersion.json").read_text())["omega"] if code == 0 else None


def test_band_selection(tmp_path, monkeypatch, capsys):
    """The vacuum clusters at theta = 0.3 are +-0.3 and +-0.7, each of
    multiplicity 2.  band.omega_target tracks the nearest one, band.kappa
    must match its multiplicity, band.index is 1 when the section is absent,
    and an empty section selects nothing: it is refused when the config is
    read, before any band solve."""
    import blochpacket.cli as cli

    assert _band_run(tmp_path, "target", {"omega_target": 0.65}) == (0, pytest.approx(0.7))
    assert (_band_run(tmp_path, "kappa", {"omega_target": -0.35, "kappa": 2})
            == (0, pytest.approx(-0.3)))
    assert _band_run(tmp_path, "mismatch", {"omega_target": 0.65, "kappa": 1}) == (2, None)
    assert _band_run(tmp_path, "absent", None) == (0, pytest.approx(0.3))
    solves = []
    solve_bands = cli.solve_bands
    monkeypatch.setattr(cli, "solve_bands", lambda *a, **k: solves.append(1) or solve_bands(*a, **k))
    capsys.readouterr()
    assert _band_run(tmp_path, "empty", {}) == (2, None)
    assert solves == []
    assert "band: band selector needs 'index' or 'omega_target'" in capsys.readouterr().err


def test_leading_only_seeding_drops_the_corrections(tmp_path):
    """`"seeding": "leading_only"` assembles the leading profile alone, so
    wkb's initial field differs from the full profile's."""
    fields = {}
    for seeding in ("full_profile", "leading_only"):
        cfg = write_config(tmp_path, {"seeding": seeding}, name=f"{seeding}.json")
        out = tmp_path / seeding
        assert main(["wkb", "--config", str(cfg), "--out", str(out)]) == 0
        fields[seeding] = (out / "wkb_initial.bwpk").read_bytes()
    assert fields["full_profile"] != fields["leading_only"]


def test_validate_identity_seminorm_stacks_one_harmonic(tmp_path, monkeypatch):
    """On the shipped identity config every harmonic but n = 0 is zero, so
    each seminorm call of validate holds that one harmonic, at all 9 output
    times of its h."""
    import blochpacket.cli as cli

    sizes = []
    original = cli.seminorm

    def counted(field, pairs):
        sizes.append((len(field.data), len(field.t)))
        return original(field, pairs)

    monkeypatch.setattr(cli, "seminorm", counted)
    cfg = Path(__file__).parents[1] / "configs" / "validate_identity.json"
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert sizes == [(1, 9)] * 3  # one call for the 9 output times of each of the 3 h


def test_gamma_and_wkb_share_the_divisor_tolerance(tmp_path):
    """A coupling mode with ray divisor 1e-10 passes a divisor_tol of 1e-12:
    wkb, which partitions the coupling once, and gamma, whose growth
    exponent reads that partition, both accept it."""
    doc = json.loads((Path(__file__).parents[1] / "configs" / "wkb_modulated.json").read_text())
    doc["material"]["modulations"].append(
        {"kind": "cos", "eta": [1.0, 1.0 + 1e-10, 0.0, 0.0], "amplitude": 0.1, "target": "eps1"})
    doc["tolerances"] = {"divisor_tol": 1e-12}
    cfg = tmp_path / "near_resonant.json"
    cfg.write_text(json.dumps(doc))
    for command in ("wkb", "gamma"):
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / command)]) == 0


def test_validate_refuses_packet_carried_to_box_edge(tmp_path, capsys):
    """The along-V layered packet: V_0 = -0.78 carries it 0.78 * 64 = 50 along
    axis 0 by t = 1/h at h = 1/64, plus a support of 6 * 3 = 18, against a
    half-box of 50.25.  The synthesis does not wrap, so this run once gave a
    slope of -3.92; validate refuses it up front."""
    doc = json.loads((Path(__file__).parents[1] / "configs" / "bands_layered.json").read_text())
    doc.update({"theta": [0.25, 0.2, 0.0], "h_list": [1 / 16, 1 / 32, 1 / 64],
                "packet": {"widths": [3.0, 1.0, 1.0], "weights": [[1.0, 0.0]], "axes": [0]},
                "grid": {"lengths": [100.5, 2 * np.pi, 2 * np.pi], "shape": [192, 1, 1]}})
    cfg = tmp_path / "along_v.json"
    cfg.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "box edge on axis 0 at h=0.015625" in err and "half-box 50.25" in err


@pytest.mark.parametrize("packet, grid_shape", [
    ({"axes": [2]}, [1, 192, 1]),
    ({"axes": [1], "widths": [1.0, 1.5, 3.0]}, [1, 192, 64]),
], ids=["packet_axis_not_varying", "varying_axis_not_in_packet"])
def test_validate_refuses_packet_axes_other_than_grid_axes(tmp_path, capsys, monkeypatch,
                                                           packet, grid_shape):
    """The synthesis spreads its spectrum over the packet axes, the envelope
    over the grid's varying axes: validate refuses the run when the two sets
    differ, naming both, before any quadrature node is walked."""
    import blochpacket.oracles as oracles

    monkeypatch.setattr(oracles, "_node_bands", None)
    doc = json.loads((Path(__file__).parents[1] / "configs" / "validate_identity.json").read_text())
    doc["packet"].update(packet)
    doc["grid"]["shape"] = grid_shape
    cfg = tmp_path / "axes.json"
    cfg.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    grid_axes = [a for a in range(3) if grid_shape[a] > 1]
    assert f"packet.axes {packet['axes']}" in err and f"varying axes {grid_axes}" in err


SHIPPED = ("bands_layered", "oracle_layered", "wkb_modulated", "validate_identity")
COMMANDS = ("bands", "dispersion", "gamma", "envelope", "wkb", "validate", "oracle")
# the exit code of every command on every shipped config; all others exit 0
SHIPPED_EXITS = {("bands_layered", "validate"): 2, ("bands_layered", "oracle"): 2,
                 ("validate_identity", "oracle"): 2, ("wkb_modulated", "oracle"): 2,
                 ("oracle_layered", "validate"): 4}


@pytest.fixture(scope="module")
def shipped_table(tmp_path_factory):
    """Every command on every shipped config, the whole table run twice in
    this one process: {(name, command): [(exit code, stderr, {file: bytes})
    per pass]}."""
    import contextlib
    import io

    root = tmp_path_factory.mktemp("shipped")
    table = {}
    for run in range(2):
        for name in SHIPPED:
            cfg = Path(__file__).parents[1] / "configs" / f"{name}.json"
            for command in COMMANDS:
                out, err = root / f"{run}_{name}_{command}", io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([command, "--config", str(cfg), "--out", str(out)])
                files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
                table.setdefault((name, command), []).append((code, err.getvalue(), files))
    return table


@pytest.mark.parametrize("name, code", [("bands_layered", 2), ("oracle_layered", 4),
                                        ("wkb_modulated", 0), ("validate_identity", 0)])
def test_validate_exit_code_on_each_shipped_config(shipped_table, name, code):
    """Every command on each shipped config exits as pinned in SHIPPED_EXITS,
    and the second pass of the whole table writes the first pass's exit
    codes, messages and artifacts (manifest.json included) byte for byte, so
    no cache kept across runs changes a result.  validate: the layered packet
    spread along an axis its grid does not vary on is refused (2), the
    anisotropic layered walk loses the gauge between adjacent nodes (4, zeta
    printed as plain numbers), and the modulated and vacuum configs pass
    (0)."""
    for command in COMMANDS:
        first, second = shipped_table[name, command]
        assert first[0] == SHIPPED_EXITS.get((name, command), 0), (command, first[1])
        assert first[2] and first == second, command
    assert SHIPPED_EXITS.get((name, "validate"), 0) == code
    err = shipped_table[name, "validate"][0][1]
    if name == "bands_layered":
        assert "packet.axes [0] differ from the grid's varying axes [1]" in err
    if name == "oracle_layered":
        assert re.search(r"nodes at zeta=\(-?\d+\.\d+, -?\d+\.\d+, -?\d+\.\d+\)$",
                         err.strip()), err


@pytest.mark.parametrize("name", SHIPPED)
def test_bands_and_dispersion_write_one_speed_margin(shipped_table, name):
    """bands and dispersion run the same speed-limit check, so they write
    the same dispersion.json byte for byte."""
    (bands_run, _), (dispersion_run, _) = (shipped_table[name, c] for c in ("bands", "dispersion"))
    assert bands_run[0] == dispersion_run[0] == 0
    assert bands_run[2]["dispersion.json"] == dispersion_run[2]["dispersion.json"]


def test_band_residual_refusal_exits_4(tmp_path, monkeypatch, capsys):
    """A band whose residual exceeds bands.RESIDUAL_TOL is refused as a
    numerical failure."""
    from blochpacket import bands

    monkeypatch.setattr(bands, "RESIDUAL_TOL", 0.0)
    cfg = Path(__file__).parents[1] / "configs" / "bands_layered.json"
    assert main(["bands", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert re.search(r"^numerical failure: band residual \d\.\d{3}e-\d+ exceeds 0e\+00; "
                     r"refuse to build projectors$", capsys.readouterr().err.strip())


def test_hypothesis_violation_exits_3(tmp_path):
    """The on-axis layered kappa=2 cluster is not a constant-multiplicity band:
    the dispersion step must fail with exit code 3."""
    cfg = write_config(tmp_path, {
        "material": {"preset": "layered", "params": {"amplitude": 0.2}},
        "cutoff": 2,
        "theta": [0.3, 0.0, 0.0],
    })
    assert main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3


def test_dispersion_assembles_material_once(tmp_path, monkeypatch):
    """One operator per run: the dispersion command, including the 26 shifted
    band solves of its finite-difference Hessian, assembles A0 exactly once."""
    import sys

    import blochpacket.fourier as fourier

    original = fourier.base_material_matrix
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("blochpacket") and getattr(mod, "base_material_matrix", None) is original:
            monkeypatch.setattr(mod, "base_material_matrix", counted)
    cfg = write_config(tmp_path)
    assert main(["dispersion", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

def test_bands_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["bands", "--config", str(cfg), "--out", str(out)]) == 0
    rows = (out / "bands.csv").read_text().strip().splitlines()
    assert rows[0] == "theta1,theta2,theta3,band_index,omega,kappa"
    omegas = sorted(float(r.split(",")[4]) for r in rows[1:])
    assert np.allclose(omegas, [-0.7, -0.3, 0.3, 0.7], atol=1e-12)
    disp = json.loads((out / "dispersion.json").read_text())
    assert set(disp) == {"theta", "omega", "V", "hessian", "scalar_residual", "speed_margin"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "bands"
    assert "config_sha256" in manifest


def test_bands_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["bands", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "bands.csv").read_bytes()
                    + (out / "dispersion.json").read_bytes()
                    + (out / "manifest.json").read_bytes())
    assert outs[0] == outs[1]


def test_parser_built_once_serves_every_command(tmp_path, capsys):
    """In one process bands, then dispersion, then a malformed argv go
    through the parser built on first use: the artifacts are byte-identical
    to those of runs that each build a fresh parser, and the malformed call
    still exits with argparse's error."""
    import blochpacket.cli as cli

    cfg = write_config(tmp_path)
    commands = ("bands", "dispersion")

    def run(command, name):
        out = tmp_path / name
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    fresh = {}
    for command in commands:
        cli._parser.cache_clear()
        fresh[command] = run(command, f"fresh_{command}")
    cli._parser.cache_clear()
    parser = cli._parser()
    for command in commands:
        assert run(command, f"shared_{command}") == fresh[command]
    assert cli._parser() is parser
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["dispersion", "--out", str(tmp_path / "malformed")])
    assert exc.value.code == 2
    assert "the following arguments are required: --config" in capsys.readouterr().err
    assert cli._parser() is parser


def test_gamma_schema(tmp_path):
    cfg = write_config(tmp_path, {
        "material": {
            "preset": "identity",
            "modulations": [
                {"kind": "cos", "eta": [0.7, -0.4, 0.0, 0.0], "amplitude": 0.1},
                {"kind": "ohmic", "sigma": 0.02},
            ],
        }
    })
    out = tmp_path / "out"
    assert main(["gamma", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "coupling.json").read_text())
    assert doc["kappa"] == 2
    assert {"coupling", "ray_average", "fluctuation", "beta", "beta_empirical",
            "velocity"} <= set(doc)
    for rec in doc["coupling"]:
        assert len(rec["eta"]) == 4
        mat = rec["matrix"]
        assert len(mat) == 2 and len(mat[0]) == 2 and len(mat[0][0]) == 2


def test_envelope_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["envelope", "--config", str(cfg), "--out", str(out)]) == 0
    dumps = sorted(out.glob("envelope_*.bwpk"))
    assert len(dumps) == 9
    trace = (out / "conservation.csv").read_text().strip().splitlines()
    assert trace[0] == "T,weighted_norm"
    norms = [float(r.split(",")[1]) for r in trace[1:]]
    assert abs(norms[-1] - norms[0]) <= 1e-10 * norms[0]


def test_wkb_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["wkb", "--config", str(cfg), "--out", str(out)]) == 0
    rep = json.loads((out / "residual.json").read_text())
    assert rep["r1"]["rel"] <= 1e-9
    loaded = load_field(out / "wkb_initial.bwpk")
    assert loaded["values"].shape == (6, 1, 128, 1)


def test_validate_synthesis_mode(tmp_path):
    cfg = write_config(tmp_path, {"h_list": [0.25, 0.125], "horizon": 0.25,
                                  "grid": {"lengths": [L, L, L], "shape": [1, 96, 1]}})
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "convergence_summary.json").read_text())
    assert summary["mode"] == "synthesis_oracle"
    rows = (out / "convergence.csv").read_text().strip().splitlines()
    assert rows[0] == "h,alpha,error"
    assert summary["slope"] > 0.5


def test_validate_certificate_mode(tmp_path):
    cfg = write_config(tmp_path, {
        "material": {
            "preset": "identity",
            "modulations": [{"kind": "cos", "eta": [0.7, -0.4, 0.0, 0.0], "amplitude": 0.1}],
        },
        "grid": {"lengths": [L, L, L], "shape": [1, 96, 1]},
        "envelope_dT": 2e-3,
    })
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "convergence_summary.json").read_text())
    assert summary["mode"] == "residual_certificate"
    assert "residual" in summary["note"] or "residual" in json.dumps(summary)


def test_oracle_command(tmp_path):
    cfg = write_config(tmp_path, {
        "material": {"preset": "layered_anisotropic"},
        "cutoff": 2,
        "theta": [0.3, 0.0, 0.0],
        "packet": {"widths": [1.5, 1.0, 1.0], "weights": [[1.0, 0.0]], "axes": [0]},
        "h_list": [0.25],
        "grid": {"lengths": [L, 2 * np.pi, 2 * np.pi], "shape": [192, 1, 1]},
        "time_domain": {
            "grid": {"lengths": [L, 2 * np.pi, 2 * np.pi], "shape": [1024, 1, 1]},
            "t_final": 0.5,
            "dt": 0.01,
        },
    })
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    trace = (out / "energy.csv").read_text().strip().splitlines()
    assert trace[0] == "t,energy,div_eps_E,div_mu_B"
    e = [float(r.split(",")[1]) for r in trace[1:]]
    assert abs(e[-1] - e[0]) < 1e-6 * e[0]


@pytest.mark.parametrize("modulated", [False, True], ids=["static", "time_modulated"])
def test_oracle_propagator_follows_the_medium(tmp_path, monkeypatch, modulated):
    """oracle propagates a static medium without M by the Chebyshev sum and
    a time-modulated one by RK4; both write energy.csv up to t_final."""
    import blochpacket.cli as cli

    called = []
    for name in ("chebyshev_solve", "time_domain_solve"):
        original = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, _f=original, _n=name, **k:
                            called.append(_n) or _f(*a, **k))
    mods = [{"kind": "cos", "eta": [0.7, 0.25, 0.0, 0.0], "amplitude": 0.1}] if modulated else []
    td_grid = {"lengths": [L, 2 * np.pi, 2 * np.pi], "shape": [1024, 1, 1]}
    cfg = write_config(tmp_path, {
        "material": {"preset": "layered_anisotropic", "modulations": mods},
        "cutoff": 2,
        "theta": [0.3, 0.0, 0.0],
        "packet": {"widths": [1.5, 1.0, 1.0], "weights": [[1.0, 0.0]], "axes": [0]},
        "h_list": [0.25],
        "grid": {"lengths": [L, 2 * np.pi, 2 * np.pi], "shape": [192, 1, 1]},
        "time_domain": {"grid": td_grid, "t_final": 0.1, "dt": 0.01},
    })
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(cfg), "--out", str(out)]) == 0
    assert called == ["time_domain_solve" if modulated else "chebyshev_solve"]
    trace = np.loadtxt(out / "energy.csv", delimiter=",", skiprows=1)
    assert trace.shape == (11, 4) and trace[-1, 0] == pytest.approx(0.1, abs=1e-15)


# ---------------------------------------------------------------------------
# Field dump and material round trips
# ---------------------------------------------------------------------------

def test_field_dump_roundtrip(tmp_path):
    grid = EnvelopeGrid((4.0, 8.0, 1.0), (4, 8, 1))
    rng = np.random.default_rng(3)
    vals = (rng.standard_normal((6, 4, 8, 1)) + 1j * rng.standard_normal((6, 4, 8, 1)))
    vals = vals.astype(np.complex64).astype(complex)
    path = tmp_path / "f.bwpk"
    dump_field(path, vals, grid, time=1.5, h=0.25, theta=(0.3, 0.0, 0.0), omega=0.3)
    loaded = load_field(path)
    assert np.array_equal(loaded["values"], vals)
    assert loaded["grid"] == grid
    assert loaded["time"] == 1.5 and loaded["h"] == 0.25 and loaded["omega"] == 0.3
    # 16-byte magic guards the format
    assert path.read_bytes()[:16] == b"BWPK-FIELD-DUMP\x00"


def test_material_roundtrip():
    spec = layered_anisotropic()
    doc = material_to_dict(spec)
    back = material_from_dict(json.loads(json.dumps(doc)))
    assert set(back.eps0) == set(spec.eps0)
    for n in spec.eps0:
        assert np.allclose(back.eps0[n], spec.eps0[n])
