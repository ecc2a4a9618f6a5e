import ast
import concurrent.futures
import importlib
import importlib.resources
import json
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

import nearwave
from nearwave import cli, core, engine
from nearwave.cli import main
from nearwave.scenario import SCHEMA, SWEEPABLE, apply_sweep_value


def data_path(name):
    return str(importlib.resources.files("nearwave") / "data" / name)


TLI = data_path("c70_tli_velocity_sweep.cfg")
KDTLI = data_path("pfns8_kdtli_power_sweep.cfg")
OTIMA = data_path("otima_gold_clusters.cfg")

BROKEN = """\
name = broken
species = nobodium
grating1.type = material
grating1.period = 991
grating2.type = material
"""

DECOHERE = """\
name = gas_sweep
species = C70
mode = spatial
separation = 0.22 m
grating1.type = material
grating1.period = 991 nm
grating1.open_fraction = 0.475
grating2.type = material
grating2.period = 991 nm
grating2.open_fraction = 0.475
grating3.type = material
grating3.period = 991 nm
grating3.open_fraction = 0.475
beam.velocity = 100 m/s
gas.mass = 28 amu
gas.temperature = 300 K
gas.cross_section = 1e-17 m^2
sweep.parameter = gas.pressure
sweep.start = 1e-9 mbar
sweep.stop = 2e-7 mbar
sweep.points = 4
"""

DEFLECT = """\
name = stark
species = C70
mode = spatial
separation = 0.22 m
grating1.type = material
grating1.period = 991 nm
grating1.open_fraction = 0.475
grating2.type = material
grating2.period = 991 nm
grating2.open_fraction = 0.475
beam.velocity = 100 m/s
deflect.geometry_constant = 1.0
deflect.grad_e_squared = 1e13 V^2/m^3
"""


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def with_line(text, line):
    """Scenario text with the key of ``line`` set by ``line``."""
    key = line.split(" = ")[0]
    return "\n".join(line if row.startswith(key + " ") else row
                     for row in text.splitlines()) + "\n"


def read(path):
    return pathlib.Path(path).read_text()


def test_validate_ok(runner):
    result = invoke(runner, "validate", TLI)
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "scenario,status,seed"
    assert lines[1].startswith("c70_tli_velocity_sweep,ok,")


def test_validate_broken_exits_2(runner, tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text(BROKEN)
    result = invoke(runner, "validate", str(path))
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["validate", "visibility"])
def test_non_utf8_scenario_exits_2(runner, tmp_path, command):
    path = tmp_path / "latin1.cfg"
    text = read(TLI).replace("c70_tli", "caf\u00e9")
    path.write_bytes(text.encode("latin-1"))
    result = runner.invoke(main, [command, str(path)])
    assert result.exit_code == 2
    assert result.output.startswith("config error: 'utf-8' codec can't decode")
    assert "Traceback" not in result.output


def test_missing_file_exits_3(runner, tmp_path):
    result = invoke(runner, "validate", str(tmp_path / "nope.cfg"))
    assert result.exit_code == 3


def test_unwritable_output_exits_3(runner, tmp_path):
    result = invoke(runner, "validate", TLI,
                    "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"))
    assert result.exit_code == 3


def test_visibility_csv_json_agree(runner):
    csv_res = invoke(runner, "visibility", KDTLI, "--velocities", "4")
    json_res = invoke(runner, "visibility", KDTLI, "--velocities", "4",
                      "--format", "json")
    assert csv_res.exit_code == 0 and json_res.exit_code == 0
    header, row = csv_res.output.strip().splitlines()
    csv_vals = dict(zip(header.split(","), row.split(",")))
    json_vals = json.loads(json_res.output)[0]
    for key in ("quantum_visibility", "classical_visibility"):
        assert float(csv_vals[key]) == pytest.approx(json_vals[key],
                                                     abs=1e-12)
    # the bundled sweep scenario starts at zero laser power, where the
    # phase grating is absent and the fringe vanishes
    assert 0.0 <= float(csv_vals["quantum_visibility"]) <= 1.0


def test_outputs_byte_stable(runner, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        result = invoke(runner, "visibility", TLI, "--velocities", "4",
                        "--out", str(out))
        assert result.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_velocity_sweep_curve_family(runner, tmp_path):
    out = tmp_path / "sweep.csv"
    result = invoke(runner, "velocity-sweep", TLI, "--velocities", "2",
                    "--out", str(out))
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["velocity_m_per_s", "quantum_vdw_visibility",
                      "quantum_cp_visibility", "quantum_ideal_visibility",
                      "classical_visibility"]
    assert len(lines) == 1 + 57
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(80.0)
    assert all(0.0 <= v <= 1.0 for v in first[1:])


def test_sweep_commands_require_matching_sweep(runner):
    # the TLI scenario sweeps velocity, not power
    result = invoke(runner, "power-sweep", TLI)
    assert result.exit_code == 2
    result = invoke(runner, "velocity-sweep", KDTLI)
    assert result.exit_code == 2


def test_power_sweep_runs(runner, tmp_path):
    out = tmp_path / "power.csv"
    result = invoke(runner, "power-sweep", KDTLI, "--velocities", "1",
                    "--out", str(out))
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "power_w,quantum_visibility,classical_visibility"
    assert len(lines) == 1 + 90


def test_power_sweep_needs_laser_grating2(runner, tmp_path):
    # a material grating2 has no power to sweep: config error, no traceback
    text = with_line(read(KDTLI), "grating2.type = material") \
        + "grating2.open_fraction = 0.42\n"
    path = tmp_path / "material.cfg"
    path.write_text(text)
    for args in (["validate"], ["power-sweep", "--velocities", "1"]):
        result = runner.invoke(main, [args[0], str(path), *args[1:]])
        assert result.exit_code == 2
        assert "config error: sweep.parameter: 'grating2.power' needs a " \
            "laser grating2" in result.output


@pytest.mark.parametrize("path, line, family", [
    (TLI, "grating2.power = 1 W", "laser"),
    (TLI, "grating2.waist_y = 20 um", "laser"),
    (TLI, "grating2.laser_wavelength = 532 nm", "laser"),
    (TLI, "grating2.n0 = 1", "ionizing"),
    (TLI, "grating2.phi0 = 1 rad", "ionizing"),
    (KDTLI, "grating2.open_fraction = 0.42", "material"),
    (KDTLI, "grating2.thickness = 100 nm", "material"),
    (KDTLI, "grating2.interaction = vdw_r3", "material"),
    (KDTLI, "grating2.wall_cutoff = 1 nm", "material"),
    (KDTLI, "grating2.phi0 = 1 rad", "ionizing"),
    (OTIMA, "grating2.thickness = 100 nm", "material"),
    (OTIMA, "grating2.power = 1 W", "laser"),
])
def test_key_of_another_grating_family_rejected(runner, tmp_path, path, line,
                                                family):
    # a key that the grating's family does not read is an error, not a no-op
    scenario = tmp_path / "foreign.cfg"
    scenario.write_text(read(path) + line + "\n")
    result = runner.invoke(main, ["validate", str(scenario)])
    assert result.exit_code == 2
    key = line.split(" = ")[0]
    assert f"config error: {key}: applies only to a {family} grating" \
        in result.output


@pytest.mark.parametrize("power, code", [("0 W", 0), ("1 W", 2)])
def test_pure_phase_grating1_rejected_by_validate(runner, tmp_path, power,
                                                   code):
    # grating1 written as the KDTLI's laser grating2: a pure phase grating
    # at any nonzero power, which cannot prepare coherence; at 0 W it
    # transmits everything and is accepted
    text = read(KDTLI)
    laser = [line.replace("grating2.", "grating1.")
             for line in text.splitlines() if line.startswith("grating2.")]
    text = "\n".join(line for line in text.splitlines()
                     if not line.startswith("grating1.")) + "\n"
    text += "\n".join(laser) + "\n"
    path = tmp_path / "laser_g1.cfg"
    path.write_text(with_line(text, f"grating1.power = {power}"))
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == code
    if code:
        assert "config error: config: grating1 is a pure phase grating" \
            in result.output


def test_blocked_slit_rejected_by_validate(runner, tmp_path):
    # f d / 2 = 0.5 nm is inside the 1 nm wall cutoff: nothing transmits
    path = tmp_path / "blocked.cfg"
    path.write_text(with_line(read(TLI), "grating1.open_fraction = 0.001"))
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert "config error: grating1: wall_cutoff >= half the slit width" \
        in result.output


@pytest.mark.parametrize("workers", ["1", "2"])
def test_velocity_sweep_names_column_and_grating_of_blocked_slit(
        runner, tmp_path, monkeypatch, workers):
    # interaction-free masks with f d / 2 = 0.5 nm are open and pass
    # validate; the vdW column puts the 1 nm wall cutoff on them, which
    # leaves no slit. With two workers the error is raised in a worker
    # process and ends the run the same way.
    monkeypatch.setenv("NEARWAVE_WORKERS", workers)
    text = read(TLI)
    for n in (1, 2, 3):
        text = with_line(text, f"grating{n}.interaction = none")
        text = with_line(text, f"grating{n}.open_fraction = 0.001")
    path = tmp_path / "blocked.cfg"
    path.write_text(text)
    assert runner.invoke(main, ["validate", str(path)]).exit_code == 0
    result = runner.invoke(main, ["velocity-sweep", str(path),
                                  "--velocities", "1"])
    assert result.exit_code == 2
    assert ("config error: quantum_vdw_visibility: grating1 with interaction "
            "'vdw_r3': wall_cutoff >= half the slit width") in result.output


def _count_calls(monkeypatch, sites):
    """Wrap each "module.attribute" site with a call counter."""
    from nearwave import classical, engine, gratings
    calls = dict.fromkeys(sites, 0)
    for site in calls:
        module_name, attr = site.split(".")
        module = {"cli": cli, "engine": engine, "classical": classical,
                  "gratings": gratings}[module_name]

        def counted(*args, _site=site, _func=getattr(module, attr), **kw):
            calls[_site] += 1
            return _func(*args, **kw)
        monkeypatch.setattr(module, attr, counted)
    return calls


def _settings(path, count):
    """The configs of the first ``count`` points of a bundled sweep."""
    scenario = nearwave.load_scenario(path)
    return [apply_sweep_value(scenario, value)
            for value in scenario.sweep.values()[:count]]


# the sampled-profile FFT path, which no sweep takes
FFT_SITES = ["gratings.fourier_coefficients",
             "gratings.transmission_probability_coefficients",
             "engine.fourier_coefficients",
             "classical.transmission_probability_coefficients",
             "engine.material_transmission",
             "engine.laser_phase_transmission",
             "engine.ionizing_transmission"]


def test_block_builds_each_table_once(monkeypatch, fresh_memos):
    # one block of four TLI points with 12 nodes each: each quantum column
    # (vdW, Casimir-Polder, no interaction; g1 == g2 == g3 in each) builds
    # one coefficient table over all 48 rows in one even cosine sum, the
    # mask without a phase (a single row) included, and evaluates B_m once
    # for grating2 and once for the outer masks; the classical twin sums
    # one window for its outer masks. A second block rebuilds the vdW and
    # Casimir-Polder tables, which depend on the speed, and evaluates all
    # six B_m again. The phase-free mask's table, the twin's window and the
    # cosine weights are kept, one set of weights per order count and
    # number of open cells read (the ideal mask opens to the walls and
    # reads 974, the vdW and Casimir-Polder masks 970)
    assert set(fresh_memos) == {"engine._open_amplitude",
                                "engine._cosine_weights",
                                "engine._single_row_table",
                                "classical._central_grid",
                                "classical._mask_window", "core._unit_rule",
                                "core._bessel_rule"}
    weights = engine._cosine_weights
    calls = _count_calls(monkeypatch, [
        "engine._even_table", "engine.talbot_lau_coefficient",
        "classical._even_table", *FFT_SITES])
    settings = _settings(TLI, 4)
    records = cli._block(12, cli.INTERACTIONS, settings)
    assert len(records) == 4
    assert list(records[0]) == [name for name, _ in cli.INTERACTIONS] \
        + ["classical_visibility"]
    first = {"engine._even_table": 3,
             "engine.talbot_lau_coefficient": 6,
             "classical._even_table": 1, **dict.fromkeys(FFT_SITES, 0)}
    assert calls == first
    assert weights.cache_info().misses == 3
    assert cli._block(12, cli.INTERACTIONS, settings) == records
    assert calls == {**first, "engine._even_table": 3 + 2,
                     "engine.talbot_lau_coefficient": 6 + 6}
    assert weights.cache_info().misses == 3
    for memo in ("engine._single_row_table", "classical._mask_window"):
        assert fresh_memos[memo].cache_info().misses == 1


def test_velocity_sweep_builds_each_mask_amplitude_once(runner, tmp_path,
                                                        monkeypatch,
                                                        fresh_memos):
    # the TLI's three masks and its vdW and Casimir-Polder variants share
    # one slit geometry (the wall cutoff is the same), the ideal variant
    # opens to the walls: one velocity-sweep run builds and checks the |t|
    # of each geometry once, and its three points at two nodes form one
    # block, with one cosine-sum table per column. The ideal mask's table
    # is built once for all three of its roles, and kept for the process
    monkeypatch.delenv("NEARWAVE_WORKERS", raising=False)
    calls = _count_calls(monkeypatch, ["engine._cell_open_fraction",
                                       "engine._even_table",
                                       "engine.talbot_lau_coefficient"])
    path = tmp_path / "tli.cfg"
    path.write_text(with_line(read(TLI), "sweep.points = 3"))
    result = invoke(runner, "velocity-sweep", str(path), "--velocities", "2")
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 4
    assert calls == {"engine._cell_open_fraction": 2,
                     "engine._even_table": 3,
                     "engine.talbot_lau_coefficient": 6}
    speed_free = fresh_memos["engine._single_row_table"].cache_info()
    assert (speed_free.misses, speed_free.currsize) == (1, 1)
    memo = engine._open_amplitude
    assert (memo.cache_info().misses, memo.cache_info().currsize) == (2, 2)
    cfg = nearwave.load_scenario(TLI).config
    amplitude = memo(cfg.period_d, cfg.grating2.open_half_width)
    assert not amplitude.flags.writeable


def test_power_sweep_builds_the_outer_mask_once_per_process(monkeypatch,
                                                            fresh_memos):
    # the KDTLI's outer mask has no eikonal phase: over two power-sweep
    # blocks of four points its single-row table is summed once and its
    # twin window taken once. Each block builds the velocity rule of its
    # one beam once for the quantum column and once for the twin, its laser
    # tables, which differ in power, from one multi-order Bessel call over
    # all 48 rows, evaluates the outer factor and grating2 once each, and
    # takes its four classical twins from one more Bessel call
    calls = _count_calls(monkeypatch, [
        "engine._even_table", "engine.talbot_lau_coefficient",
        "engine.bessel_j", "engine.velocity_weights", "classical.bessel_j",
        "classical._even_table", *FFT_SITES])
    settings = _settings(KDTLI, 8)
    for cfg in settings:
        assert cfg.grating1 == cfg.grating3
    assert len({cfg.beam for cfg in settings}) == 1
    blocks = (settings[:4], settings[4:])
    for block in blocks:
        cli._block(12, cli.QUANTUM, block)
    assert calls == {"engine._even_table": 1,
                     "engine.talbot_lau_coefficient": 2 * len(blocks),
                     "engine.bessel_j": len(blocks),
                     "engine.velocity_weights": 2 * len(blocks),
                     "classical.bessel_j": len(blocks),
                     "classical._even_table": 1,
                     **dict.fromkeys(FFT_SITES, 0)}


@pytest.mark.parametrize("path, columns, first", [
    (KDTLI, cli.QUANTUM, 0.0), (TLI, cli.INTERACTIONS, None)],
    ids=["power-sweep", "velocity-sweep"])
def test_block_rows_equal_one_point_blocks(path, columns, first):
    # each record of a block of four points equals the block of its point
    # alone within 1e-13; a laser without power keeps its exact table
    # b_j = delta_j0 inside a block whose other points have power, so its
    # quantum visibility is exactly 0, and its twin's J_2(0) too
    settings = _settings(path, 4)
    if first is not None:
        scenario = nearwave.load_scenario(path)
        settings[0] = apply_sweep_value(scenario, first)
    block = cli._block(12, columns, settings)
    for record, setting in zip(block, settings):
        alone = cli._block(12, columns, [setting])[0]
        assert list(record) == list(alone)
        for name, value in record.items():
            assert value == pytest.approx(alone[name], rel=1e-13, abs=1e-16)
    if first is not None:
        assert block[0]["quantum_visibility"] == 0.0
        assert block[0]["classical_visibility"] == 0.0
        assert block[1]["quantum_visibility"] > 0.0


@pytest.mark.filterwarnings("default::nearwave.engine.TruncationWarning")
def test_carpet_matrix_shape(runner):
    # the C70 mask's 64-order table is cut before it decays: one warning
    # line, which names no path
    result = invoke(runner, "carpet", TLI, "--z-points", "5",
                    "--x-points", "16", "--format", "json")
    assert result.exit_code == 0
    assert result.stderr == ("warning: TruncationWarning: coefficient table "
                             "truncated before decay: |b_jmax|^2 = 1.07e-04\n")
    payload = json.loads(result.stdout)
    assert len(payload["rows"]) == 5
    assert len(payload["rows"][0]["values"]) == 16
    assert payload["rows"][0]["z_over_talbot_length"] == 0.0


def test_decohere_monotone_in_pressure(runner, tmp_path):
    path = tmp_path / "gas.cfg"
    path.write_text(DECOHERE)
    result = invoke(runner, "decohere", str(path), "--velocities", "1")
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    vis = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(vis) == 4
    assert all(a > b for a, b in zip(vis, vis[1:]))


def test_decohere_missing_gas_keys(runner, tmp_path):
    text = DECOHERE.replace("gas.mass = 28 amu\n", "")
    path = tmp_path / "gas.cfg"
    path.write_text(text)
    result = invoke(runner, "decohere", str(path))
    assert result.exit_code == 2


def test_validate_reports_every_gas_and_deflection_problem(runner,
                                                          tmp_path):
    # decohere and deflect rejected these values, and validate passed them
    path = tmp_path / "bad.cfg"
    path.write_text(with_line(DECOHERE, "gas.cross_section = -1e-17 m^2")
                    + "deflect.geometry_constant = -1\n")
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert result.output.splitlines() == [
        "config error: cross section must be positive",
        "config error: deflect needs keys ['deflect.grad_e_squared']",
        "config error: geometry_constant_K must be positive"]


def _without(text, *prefixes):
    """Scenario text without the rows of the keys starting with
    ``prefixes``."""
    return "".join(row + "\n" for row in text.splitlines()
                   if not row.startswith(prefixes))


@pytest.mark.parametrize("text, message", [
    (DECOHERE.replace("gas.mass = 28 amu\n", ""),
     "decohere needs keys ['gas.mass']"),
    (_without(DECOHERE, "gas."),
     "decohere needs keys ['gas.mass', 'gas.temperature', "
     "'gas.cross_section']"),
    (_without(DECOHERE, "gas.", "sweep.") + "gas.temperature = 4 K\n",
     "decohere needs keys ['gas.mass', 'gas.cross_section']"),
    (with_line(DECOHERE, "gas.temperature = -300 K"),
     "gas parameters must be positive"),
    (with_line(DECOHERE, "sweep.start = -1e-9 mbar"),
     "gas parameters must be positive"),
], ids=["partial", "pressure-sweep", "partial-no-sweep", "temperature",
        "negative-pressure"])
def test_validate_checks_the_gas_group(runner, tmp_path, text, message):
    # a scenario that sets a gas key, or sweeps the pressure, is checked as
    # decohere reads it
    path = tmp_path / "gas.cfg"
    path.write_text(text)
    result = runner.invoke(main, ["validate", str(path)])
    assert result.exit_code == 2
    assert result.output == f"config error: {message}\n"


@pytest.mark.parametrize("line", ["gas.cross_section = nan m^2",
                                  "gas.temperature = inf K"])
def test_decohere_non_finite_gas_exits_2(runner, tmp_path, line):
    text = with_line(DECOHERE, line)
    assert line in text
    path = tmp_path / "gas.cfg"
    path.write_text(text)
    result = invoke(runner, "decohere", str(path), "--velocities", "1")
    assert result.exit_code == 2
    assert "pressure_pa" not in result.output


@pytest.mark.parametrize("scenario, line", [
    ("c70_tli_velocity_sweep.cfg", "separation = nan m"),
    ("pfns8_kdtli_power_sweep.cfg", "grating2.power = nan W"),
    ("otima_gold_clusters.cfg", "grating2.n0 = nan"),
    ("otima_gold_clusters.cfg", "grating2.n0 = inf"),
])
def test_non_finite_scenario_value_exits_2(runner, tmp_path, scenario, line):
    text = with_line(read(data_path(scenario)), line)
    assert line in text
    path = tmp_path / "nonfinite.cfg"
    path.write_text(text)
    result = invoke(runner, "visibility", str(path), "--velocities", "1")
    assert result.exit_code == 2
    assert "quantum_visibility" not in result.output


def test_overflowing_velocity_rule_exits_4(runner):
    # the 400-node Gauss-Hermite weights are not finite: a numerical error,
    # not a row of NaN
    result = runner.invoke(main, ["visibility", TLI, "--velocities", "400"])
    assert result.exit_code == 4
    assert "numerical error" in result.output
    assert "nan" not in result.output.lower()


@pytest.mark.parametrize("command, path", [
    ("visibility", TLI), ("velocity-sweep", TLI), ("power-sweep", KDTLI),
    ("decohere", TLI)], ids=["visibility", "velocity-sweep", "power-sweep",
                             "decohere"])
@pytest.mark.parametrize("count", ["1001", "0"])
def test_velocities_out_of_range_exit_2(runner, monkeypatch, command, path,
                                        count):
    # a rule would build a count x count companion matrix before any
    # check: the option is refused before a rule is built
    built, rule = [], core._unit_rule
    monkeypatch.setattr(core, "_unit_rule",
                        lambda shape, n: built.append(n) or rule(shape, n))
    result = runner.invoke(main, [command, path, "--velocities", count])
    assert result.exit_code == 2
    assert "Invalid value for '--velocities'" in result.output
    assert built == []
    # the patched name is the one the velocity average builds its rule by
    core.velocity_weights(core.BeamState(100.0, 0.1), 2)
    assert built == [2]


# small grids per command, so that every command runs in well under a second
SMALL = {"validate": [], "visibility": ["--velocities", "2"],
         "velocity-sweep": ["--velocities", "2"],
         "power-sweep": ["--velocities", "2"],
         "carpet": ["--z-points", "3", "--x-points", "8"],
         "decohere": ["--velocities", "2"],
         "otima-map": ["--ratio-points", "3", "--n0-points", "2"],
         "deflect": [],
         "csl-map": ["--lambda-points", "2", "--rc-points", "2"]}


@pytest.mark.parametrize("command", list(SMALL))
@pytest.mark.parametrize("path", [TLI, KDTLI, OTIMA],
                         ids=["tli", "kdtli", "otima"])
def test_bundled_scenario_gives_finite_numbers_or_a_config_error(
        runner, path, command):
    # every command on every bundled scenario either writes only finite
    # numbers (csl-map's documented NaN cells aside) or exits 2 with a
    # config error and no data; never a traceback. Warnings are only
    # printed, as in a command-line run
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = runner.invoke(main, [command, path, *SMALL[command]])
    assert result.exit_code in (0, 2), result.exception
    if result.exit_code == 2:
        assert "config error: " in result.stderr
        assert result.stdout == ""
        return
    cells = [cell for line in result.stdout.splitlines()[1:]
             for cell in line.split(",")]
    numbers = []
    for cell in cells:
        try:
            numbers.append(float(cell))
        except ValueError:
            pass
    assert numbers
    if command != "csl-map":
        assert all(np.isfinite(numbers)), result.stdout


@pytest.mark.parametrize("args", [
    ["visibility", TLI, "--velocities", "2"],
    ["visibility", OTIMA],
    ["otima-map", OTIMA, "--ratio-points", "3", "--n0-points", "1"]],
    ids=["spatial", "time-domain", "otima-map"])
def test_vanishing_signal_offset_exits_4(runner, monkeypatch, args):
    # a zero S_0 is a numerical error, not a row of nan or of 0.0
    signals = engine.velocity_averaged_signal

    def dark_last(*block, **options):
        result = signals(*block, **options)
        result[-1, 0] = 0.0
        return result
    # every visibility command looks the evaluation up in the cli
    monkeypatch.setattr(cli, "velocity_averaged_signal", dark_last)
    result = invoke(runner, *args)
    assert result.exit_code == 4
    assert "numerical error: zeroth signal component S_0 vanishes" \
        in result.output
    assert "nan" not in result.output.lower()
    assert result.stdout == ""


@pytest.mark.parametrize("args", [
    ["carpet", TLI, "--z-max", "nan"],
    ["carpet", TLI, "--z-max", "inf"],
    ["carpet", TLI, "--z-points", "0"],
    ["carpet", TLI, "--x-points", "0"],
    ["otima-map", OTIMA, "--ratio-points", "0"],
    ["otima-map", OTIMA, "--n0-points", "0"],
    ["otima-map", OTIMA, "--ratio-max", "nan"],
    ["otima-map", OTIMA, "--n0-min", "-inf"],
    ["carpet", TLI, "--z-max", "-1"],
])
def test_empty_or_non_finite_grid_exits_2(runner, args):
    # a NaN range would write a matrix of nan, no points a header only, and
    # a negative distance a carpet in front of the first grating
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "Invalid value for" in result.output
    assert "\\" not in result.output


@pytest.mark.parametrize("command, n0, args", [
    ("validate", "1001", []), ("visibility", "1001", []),
    ("otima-map", "6", ["--n0-max", "1001", "--ratio-points", "2"])])
def test_more_than_1000_absorbed_photons_exit_2(runner, tmp_path, command,
                                                n0, args):
    # past n0 = 1,000 an ionizing grating is refused: its closed-form
    # tables overflow from 1,418 on, where visibility would write nan
    path = tmp_path / "otima.cfg"
    path.write_text(read(OTIMA).replace("n0 = 6\n", f"n0 = {n0}\n"))
    result = invoke(runner, command, str(path), *args)
    assert result.exit_code == 2
    assert "mean_absorbed_photons_n0 must be at most 1000" in result.output


@pytest.mark.parametrize("args, option", [
    (["csl-map", OTIMA, "--lambda-points", "-3"], "--lambda-points"),
    (["csl-map", OTIMA, "--rc-points", "1"], "--rc-points"),
    (["csl-map", OTIMA, "--lambda-min", "-1"], "--lambda-min"),
    (["csl-map", OTIMA, "--lambda-max", "0"], "--lambda-max"),
    (["csl-map", OTIMA, "--rc-min", "nan"], "--rc-min"),
    (["csl-map", OTIMA, "--rc-max", "-inf"], "--rc-max"),
    (["carpet", TLI, "--order", "-1"], "--order"),
])
def test_map_options_out_of_range_exit_2(runner, args, option):
    # a negative count made np.logspace raise outside the guard (exit 1),
    # a negative bound a numpy warning and "lambda0 must be finite", and a
    # negative order a message about odd table lengths
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"Invalid value for '{option}'" in result.output
    assert "Warning" not in result.output


@pytest.mark.parametrize("command", [
    "validate", "visibility", "velocity-sweep", "power-sweep", "carpet",
    "decohere", "otima-map", "deflect", "csl-map"])
def test_seed_option_rejected(runner, command):
    result = runner.invoke(main, [command, TLI, "--seed", "1"])
    assert result.exit_code == 2
    assert "No such option" in result.output


@pytest.mark.parametrize("lines", [
    ["emission.spectrum_file = spectrum.csv"],
    ["csl.lambda0 = 1e-10 Hz"],
    ["csl.r_c = 100 nm"],
    ["gas.pressure = 1e-3 mbar"],
    ["sweep.parameter = separation", "sweep.start = 0.1 m",
     "sweep.stop = 0.3 m"],
    ["sweep.parameter = pulse_delay", "sweep.start = 10 ms",
     "sweep.stop = 20 ms"],
], ids=["emission.spectrum_file", "csl.lambda0", "csl.r_c", "gas.pressure",
        "sweep-separation", "sweep-pulse_delay"])
def test_removed_scenario_keys_rejected(runner, tmp_path, lines):
    text = read(TLI)
    for line in lines:
        text = with_line(text, line) if line.startswith("sweep.") \
            else text + line + "\n"
    path = tmp_path / "removed.cfg"
    path.write_text(text)
    result = invoke(runner, "validate", str(path))
    assert result.exit_code == 2
    assert "status" not in result.output


@pytest.mark.parametrize("path, line, message", [
    (TLI, "pulse_delay = 10 ms",
     "pulse_delay: applies only to a time_domain scenario, not to a "
     "spatial one"),
    (OTIMA, "separation = 0.22 m",
     "separation: applies only to a spatial scenario, not to a "
     "time_domain one"),
    (OTIMA, "beam.spread = 0.1",
     "beam.spread: applies only to a spatial scenario, not to a "
     "time_domain one"),
    (OTIMA, "beam.shape = top_hat",
     "beam.shape: applies only to a spatial scenario, not to a "
     "time_domain one"),
], ids=["pulse_delay-spatial", "separation-time_domain",
        "beam.spread-time_domain", "beam.shape-time_domain"])
def test_key_of_the_other_mode_rejected(runner, tmp_path, path, line,
                                        message):
    # each mode reads only its own distance or delay, and the time domain
    # reads no beam spread or shape
    scenario = tmp_path / "other_mode.cfg"
    scenario.write_text(read(path) + line + "\n")
    result = invoke(runner, "validate", str(scenario))
    assert result.exit_code == 2
    assert f"config error: {message}" in result.output


@pytest.mark.parametrize("path, key, unit", [(TLI, "separation", "m"),
                                             (OTIMA, "pulse_delay", "ms")],
                         ids=["spatial", "time_domain"])
@pytest.mark.parametrize("number", [None, "0", "-1"],
                         ids=["missing", "zero", "negative"])
def test_flight_names_the_scenario_key(runner, tmp_path, path, key, unit,
                                       number):
    # a config holds one positive flight, and a scenario without one is
    # told the key that sets it
    mode = "spatial" if key == "separation" else "time_domain"
    text = "".join(line for line in read(path).splitlines(True)
                   if not line.startswith(key + " "))
    if number is not None:
        text += f"{key} = {number} {unit}\n"
    scenario = tmp_path / "flight.cfg"
    scenario.write_text(text)
    result = invoke(runner, "validate", str(scenario))
    assert result.exit_code == 2
    assert result.output == \
        f"config error: {key}: a {mode} scenario needs it positive\n"


def test_missing_grating_key_names_the_field(runner, tmp_path):
    path = tmp_path / "noperiod.cfg"
    path.write_text(read(TLI).replace("grating2.period = 991 nm\n", ""))
    result = invoke(runner, "validate", str(path))
    assert result.exit_code == 2
    assert "config error: grating2: " in result.output
    assert "missing 1 required positional argument: 'period_d'" \
        in result.output


# the sweep command that reads each sweep parameter
SWEEP_COMMANDS = {"beam.velocity": "velocity-sweep",
                  "grating2.power": "power-sweep", "gas.pressure": "decohere"}


def _other_value(key, value):
    """A value for ``key`` other than ``value``, of the kind its schema
    entry accepts (numbers scaled by 1.1, with their unit)."""
    kind = SCHEMA[key]
    if key == "name":
        return value + "_other"
    if key == "species":
        return "C60" if value != "C60" else "C70"
    if key == "sweep.parameter":
        return next(p for p in sorted(SWEEPABLE) if p != value)
    if kind.startswith("choice:"):
        return next(c for c in kind.split(":")[1].split("|") if c != value)
    if kind == "int":
        return str(int(value) + 1)
    number, *unit = value.split()
    return " ".join([repr(float(number) * 1.1 or 1.0), *unit])


# the command that reads a time-domain scenario without a sweep, small
OTIMA_MAP = ["otima-map", "--ratio-points", "3", "--n0-points", "2"]


@pytest.mark.parametrize("text, least_keys, unread_by_design", [
    (read(TLI), 21, []), (read(KDTLI), 21, []), (DECOHERE, 21, []),
    # the time domain takes the flight time from the pulse delay, so no
    # command reads the beam speed; beam.velocity stays accepted because
    # the bundled OTIMA scenario and its benchmark copy set it. Ionizing
    # gratings read only the mass of the species, which species.mass sets,
    # so another library name (C60 of 1e6 amu) changes no byte either
    (read(OTIMA), 15, ["species", "beam.velocity"]),
], ids=["tli", "kdtli", "decohere", "otima"])
def test_every_accepted_key_is_read(runner, tmp_path, monkeypatch, text,
                                    least_keys, unread_by_design):
    # each key set to another value either changes the bytes of a command
    # that reads the scenario, or validate rejects it
    monkeypatch.delenv("NEARWAVE_WORKERS", raising=False)
    text = with_line(text, "sweep.points = 2")
    pairs = dict(row.split(" = ", 1) for row in text.splitlines()
                 if row and not row.startswith("#"))
    path = tmp_path / "scenario.cfg"

    def outputs(scenario_text):
        path.write_text(scenario_text)
        commands = (["validate"], ["visibility", "--velocities", "2"],
                    [SWEEP_COMMANDS[pairs["sweep.parameter"]],
                     "--velocities", "2"] if "sweep.parameter" in pairs
                    else OTIMA_MAP)
        results = [runner.invoke(main, [args[0], str(path), *args[1:]])
                   for args in commands]
        return [(r.exit_code, r.output) for r in results]

    reference = outputs(text)
    assert [code for code, _ in reference] == [0, 0, 0]
    unread = []
    for key, value in pairs.items():
        changed = outputs(with_line(text, f"{key} = "
                                          f"{_other_value(key, value)}"))
        if changed[0][0] != 2 and changed == reference:
            unread.append(key)
    assert len(pairs) >= least_keys
    assert unread == unread_by_design


@pytest.mark.parametrize("path", [TLI, KDTLI], ids=["tli", "kdtli"])
def test_csl_map_needs_a_time_domain_ionizing_scenario(runner, path):
    # a spatial scenario is refused, not replaced by a default OTIMA one
    result = invoke(runner, "csl-map", path)
    assert result.exit_code == 2
    assert "config error: this map needs a time-domain scenario with " \
        "ionizing gratings" in result.output


@pytest.mark.parametrize("workers", ["4096", "3", "1", "0", "-5"])
def test_worker_count_clamped(monkeypatch, workers):
    requested = []

    class InProcessPool:
        # records the pool size and maps in this process: no process starts
        def __init__(self, max_workers, initializer=None):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return map(func, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    monkeypatch.setenv("NEARWAVE_WORKERS", workers)
    items = [-1, -2, -3, -4, -5]
    assert cli._pmap(abs, items) == [1, 2, 3, 4, 5]
    clamped = min(int(workers), len(items), os.cpu_count() or 1)
    assert requested == ([clamped] if clamped > 1 else [])


@pytest.mark.parametrize("workers", ["abc", "2.5", ""])
def test_worker_count_not_an_integer_names_the_variable(runner, monkeypatch,
                                                        workers):
    monkeypatch.setenv("NEARWAVE_WORKERS", workers)
    result = invoke(runner, "velocity-sweep", TLI, "--velocities", "1")
    assert result.exit_code == 2
    assert result.output == ("config error: NEARWAVE_WORKERS must be an "
                             f"integer, got {workers!r}\n")


@pytest.mark.parametrize("command, text, options", [
    ("velocity-sweep", read(TLI), ["--velocities", "2"]),
    ("power-sweep", read(KDTLI), ["--velocities", "2"]),
    ("decohere", with_line(DECOHERE, "sweep.points = 30"),
     ["--velocities", "2"]),
    ("otima-map", read(OTIMA), ["--ratio-points", "5", "--n0-points", "3"])],
    ids=["velocity-sweep", "power-sweep", "decohere", "otima-map"])
def test_worker_count_leaves_output_unchanged(runner, tmp_path, monkeypatch,
                                              command, text, options):
    # the same bytes from this process and from a pool of two workers,
    # which map the command's blocks: 24 sweep points of two nodes a
    # block, so each sweep has two blocks or more, and one block per
    # photon number of the OTIMA map. decohere's configs carry their
    # collisional channel to the workers
    path = tmp_path / "scenario.cfg"
    path.write_text(text)
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, initializer=None):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers, initializer=initializer)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    args = [command, str(path), *options, "--out"]
    monkeypatch.delenv("NEARWAVE_WORKERS", raising=False)
    serial = tmp_path / "serial.csv"
    assert invoke(runner, *args, str(serial)).exit_code == 0
    monkeypatch.setenv("NEARWAVE_WORKERS", "2")
    pooled = tmp_path / "pooled.csv"
    assert invoke(runner, *args, str(pooled)).exit_code == 0
    assert sizes == ([2] if (os.cpu_count() or 1) >= 2 else [])
    assert pooled.read_bytes() == serial.read_bytes()


def test_pool_workers_print_warnings_as_the_command_does(tmp_path):
    # a worker started by forkserver inherits none of the command's warning
    # state: each must print a warning as one line that names no path. Three
    # 0.1-open masks of 1 um period give non-sinusoidal fringes on a
    # 60-point sweep, three blocks for a pool of two workers
    path = tmp_path / "masks.cfg"
    path.write_text(with_line(
        read(TLI).replace("open_fraction = 0.475", "open_fraction = 0.1")
        .replace("period = 991 nm", "period = 1 um"), "sweep.points = 60"))
    code = "\n".join([
        "import multiprocessing, os",
        "multiprocessing.set_start_method('forkserver')",
        "os.environ['NEARWAVE_WORKERS'] = '2'",
        "from nearwave.cli import main",
        f"main(['velocity-sweep', {str(path)!r}, '--velocities', '2',",
        f"      '--out', {os.devnull!r}])"])
    run = _fresh_interpreter("-c", code, text=True)
    lines = run.stderr.splitlines()
    assert run.returncode == 0
    assert lines and all(line.startswith("warning: ") for line in lines)
    assert not any("engine.py" in line for line in lines)


def test_package_imports_no_test_code():
    # the package runs without the test extra: no module under src/nearwave
    # imports the oracles, the tests or a test-only dependency
    forbidden = {"oracles", "tests", "mpmath", "hypothesis", "scipy"}
    package = pathlib.Path(nearwave.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] in forbidden]
    assert len(modules) > 10
    assert found == []


REPO = pathlib.Path(__file__).resolve().parents[1]


def _trace_sites():
    """The "module:attribute" lookup sites that the benchmark's layer trace
    wraps: ``LAYERS`` and ``COUNTED`` of ``perfbench/spans.py``."""
    tables = {}
    for node in ast.parse((REPO / "perfbench" / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0],
                                                       ast.Name):
            name = node.targets[0].id
            if name in ("LAYERS", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    sites = [site for names in tables["LAYERS"].values() for site in names]
    return sites + list(tables["COUNTED"].values())


def test_trace_lookup_sites_resolve():
    # the benchmark's layer trace wraps these module attributes; one that
    # no longer exists would silently drop out of the trace
    sites = _trace_sites()
    assert len(sites) > 10
    for site in sites:
        module, attr = site.split(":")
        assert callable(getattr(importlib.import_module(f"nearwave.{module}"),
                                attr, None)), site


def _fresh_interpreter(*args, **kwargs):
    """``python *args`` run to completion in a new interpreter that imports
    nearwave and the oracles from this tree, with no worker pool; output
    captured."""
    src = str(pathlib.Path(nearwave.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, str(pathlib.Path(__file__).parent),
                    env.get("PYTHONPATH")) if p)
    env.pop("NEARWAVE_WORKERS", None)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, **kwargs)


def _loaded_in_fresh_interpreter(code, prefixes):
    """Sorted modules under any of ``prefixes`` that ``code`` leaves
    loaded in a new interpreter that imports nearwave from this tree."""
    code += ("\nimport sys\n"
             "print(sorted(m for m in sys.modules if any(\n"
             f"    m == p or m.startswith(p + '.') for p in {prefixes!r})))")
    return _fresh_interpreter("-c", code, text=True,
                              check=True).stdout.strip()


# package functions that no command runs and no trace site names, kept on
# purpose ("module:qualified name": reason)
UNCALLED_PINS = {
    "gratings:material_amplitude":
        "builds the t(x) of the traced material_transmission",
    "gratings:TransmissionProfile.__post_init__":
        "checks the profiles that the traced builders return",
    "gratings:TransmissionProfile.grid_size":
        "the trace's gratings.fft_points counter reads it",
    "decoherence:csl_channel":
        "the channel of the traced csl_reduction_factor, the tests' scalar "
        "reference of the critical-mass map",
    "decoherence:GaussianEta.__call__":
        "the eta whose mean GaussianEta.loss gives in closed form",
}


def _package_defs():
    """{(path, first line): "module:qualified name"} of every def under
    src/nearwave. A def's first line, its first decorator's if it has one,
    is the ``co_firstlineno`` of its code object: it names the def in its
    file on every supported Python (3.10 has no ``co_qualname``)."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                defs[(path, first)] = f"{path.stem}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    package = pathlib.Path(nearwave.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return defs


def test_every_package_function_runs_in_a_command(tmp_path):
    # a function stays in src/nearwave only if a command runs it (test
    # oracles live in tests/oracles.py), a trace site names it or it is
    # pinned above. A fresh interpreter imports the CLI and runs every
    # command on small grids on every scenario, and a failing validate,
    # under a profiler; the import counts, and warnings print as they do
    # on the command line
    gas, stark = tmp_path / "gas.cfg", tmp_path / "stark.cfg"
    gas.write_text(DECOHERE)
    stark.write_text(DEFLECT)
    runs = [[command, str(path), *SMALL[command]] for command in SMALL
            for path in (TLI, KDTLI, OTIMA, gas, stark)]
    runs.append(["validate", str(REPO / "pyproject.toml")])
    code = "\n".join([
        "import json, sys",
        "called = set()",
        "def profile(frame, event, arg):",
        "    if event == 'call':",
        "        code = frame.f_code",
        "        called.add((code.co_filename, code.co_firstlineno))",
        "sys.setprofile(profile)",
        "from nearwave import cli",
        f"for args in {runs!r}:",
        "    try:",
        f"        cli.main(args + ['--out', {os.devnull!r}],",
        "                 standalone_mode=False)",
        "    except SystemExit:",
        "        pass",
        "sys.setprofile(None)",
        "print(json.dumps(sorted(called)))"])
    run = _fresh_interpreter("-c", code, text=True, check=True)
    defs = _package_defs()
    ran = {defs.get((pathlib.Path(file).resolve(), line))
           for file, line in json.loads(run.stdout)}
    pinned = set(UNCALLED_PINS)
    for site in _trace_sites():
        module, attr = site.split(":")
        func = getattr(importlib.import_module(f"nearwave.{module}"), attr)
        pinned.add(f"{func.__module__.split('.')[-1]}:{func.__qualname__}")
    # every pin names a def that no command runs
    assert set(UNCALLED_PINS) <= set(defs.values()) - ran
    uncalled = sorted(set(defs.values()) - ran - pinned)
    assert not uncalled, f"no command runs {', '.join(uncalled)}"


def test_cli_freezes_collector_at_exit():
    # a handler registered before the command runs after the CLI's, so it
    # sees the import-time objects frozen out of the final collections;
    # the group registers the freeze once however often it runs
    code = "\n".join([
        "import atexit, gc",
        "freeze, runs = gc.freeze, []",
        "gc.freeze = lambda: runs.append(freeze())",
        "atexit.register(lambda: print(len(runs), gc.get_freeze_count() > 0))",
        "from nearwave.cli import main",
        "for _ in range(2):",
        f"    main(['validate', {OTIMA!r}, '--out', {os.devnull!r}],",
        "         standalone_mode=False)"])
    done = _fresh_interpreter("-c", code, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1 True\n", "")


def test_import_registers_no_exit_handler():
    code = "\n".join([
        "import atexit",
        "register, registered = atexit.register, []",
        "atexit.register = lambda f, *a, **k: (registered.append(f),",
        "                                      register(f, *a, **k))[1]",
        "import nearwave, nearwave.cli",
        "print(registered)"])
    done = _fresh_interpreter("-c", code, text=True, check=True)
    assert done.stdout == "[]\n"


def test_piped_csl_map_matches_file_output(tmp_path):
    # the std streams are still flushed when the collector is frozen
    path = tmp_path / "map.csv"
    base = ["-m", "nearwave.cli", "csl-map", OTIMA]
    to_file = _fresh_interpreter(*base, "--out", str(path))
    piped = _fresh_interpreter(*base, "--out", "-")
    assert (to_file.returncode, to_file.stdout, to_file.stderr) \
        == (0, b"", b"")
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert piped.stdout == path.read_bytes()
    assert piped.stdout.count(b"\n") == 4


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported nowhere, the process pool only where
    # NEARWAVE_WORKERS asks for one, and numpy.ma nowhere
    loaded = _loaded_in_fresh_interpreter(
        "import nearwave.cli", ("scipy", "multiprocessing", "numpy.ma"))
    assert loaded == "[]"


def test_decoherence_reductions_leave_scipy_unloaded(tmp_path):
    # every channel reduces through its eta's own loss: a thermal-emission
    # factor, the one block of the four-point decohere sweep and a csl-map
    # run in a fresh interpreter without importing scipy
    path = tmp_path / "decohere.cfg"
    path.write_text(DECOHERE)
    code = "\n".join([
        "from nearwave import cli",
        "from oracles import thermal_emission_channel",
        "from nearwave.decoherence import decoherence_factor",
        "channel = thermal_emission_channel([(5e-6, 75.0), (10e-6, 25.0)])",
        "decoherence_factor(channel, 2, period_d=991e-9, half_span=2.2e-3,",
        "                   talbot_scale=2.07e-3)",
        f"for args in (['decohere', {str(path)!r}],",
        f"             ['csl-map', {OTIMA!r}]):",
        f"    cli.main(args + ['--out', {os.devnull!r}], standalone_mode=False)"])
    assert _loaded_in_fresh_interpreter(code, ("scipy",)) == "[]"


def test_gaussian_rules_leave_numpy_polynomial_unloaded(tmp_path):
    # numpy.polynomial loads six polynomial families (~3.5 ms) for one
    # Gauss rule: a decohere and a Gaussian velocity-sweep build their
    # rules without it in a fresh interpreter
    gas = tmp_path / "decohere.cfg"
    gas.write_text(DECOHERE.replace("beam.velocity = 100 m/s\n",
                                    "beam.velocity = 100 m/s\n"
                                    "beam.spread = 0.2\n"))
    code = "\n".join([
        "from nearwave import cli",
        "from nearwave.core import _unit_rule",
        f"for args in (['decohere', {str(gas)!r}],",
        f"             ['velocity-sweep', {TLI!r}, '--velocities', '2']):",
        f"    cli.main(args + ['--out', {os.devnull!r}], standalone_mode=False)",
        "assert _unit_rule.cache_info().currsize == 2"])
    assert _loaded_in_fresh_interpreter(code, ("numpy.polynomial",)) == "[]"


def test_sweep_points_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call (~14 ms); one block of
    # four power-sweep and one of four velocity-sweep points in a fresh
    # interpreter must not need it
    code = "\n".join([
        "from nearwave import cli, load_scenario",
        "from nearwave.scenario import apply_sweep_value",
        f"for path, columns in (({KDTLI!r}, cli.QUANTUM),",
        f"                      ({TLI!r}, cli.INTERACTIONS)):",
        "    scenario = load_scenario(path)",
        "    values = scenario.sweep.values()[:4]",
        "    cli._block(12, columns, [apply_sweep_value(scenario, v)",
        "                             for v in values])"])
    assert _loaded_in_fresh_interpreter(code, ("numpy.ma",)) == "[]"


def test_otima_map(runner):
    result = invoke(runner, "otima-map", OTIMA, "--ratio-points", "5",
                    "--n0-points", "2", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    ratios = [row["delay_over_talbot_time"] for row in payload["rows"]]
    center = payload["rows"][2]["values"]
    edge = payload["rows"][0]["values"]
    assert ratios[2] == pytest.approx(1.0)
    assert all(c > e for c, e in zip(center, edge))


def test_otima_map_wrong_mode(runner):
    result = invoke(runner, "otima-map", TLI)
    assert result.exit_code == 2


def test_deflect(runner, tmp_path):
    path = tmp_path / "stark.cfg"
    path.write_text(DEFLECT)
    result = invoke(runner, "deflect", str(path))
    assert result.exit_code == 0
    header, row = result.output.strip().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    # C70 alpha volume 102e-30 m^3: 102/100 of the 3.99e-6 m reference
    assert float(vals["stark_shift_m"]) == pytest.approx(
        1.02 * 3.988413840978835e-6, rel=1e-6)
    missing = tmp_path / "nofield.cfg"
    missing.write_text(DEFLECT.replace(
        "deflect.geometry_constant = 1.0\n", ""))
    result = invoke(runner, "deflect", str(missing))
    assert result.exit_code == 2
    assert "config error: deflect needs keys ['deflect.geometry_constant']" \
        in result.output
    # the field is built inside the guarded evaluation: a bad geometry
    # constant is a config error, not a traceback
    negative = tmp_path / "negative.cfg"
    negative.write_text(with_line(DEFLECT, "deflect.geometry_constant = -1.0"))
    result = invoke(runner, "deflect", str(negative))
    assert result.exit_code == 2
    assert "config error: geometry_constant_K must be positive" \
        in result.output


def test_deflect_sweep_is_one_evaluation(runner, tmp_path):
    # a velocity sweep is one array evaluation with the bytes of the
    # scalar shift at each speed
    from nearwave.constants import VACUUM_PERMITTIVITY_EPS0
    from nearwave.metrology import DeflectionField, stark_fringe_shift
    path = tmp_path / "stark.cfg"
    path.write_text(DEFLECT + "sweep.parameter = beam.velocity\n"
                    "sweep.start = 80 m/s\nsweep.stop = 220 m/s\n"
                    "sweep.points = 5\n")
    result = invoke(runner, "deflect", str(path))
    assert result.exit_code == 0
    scenario = nearwave.load_scenario(str(path))
    species = scenario.config.species
    fld = DeflectionField(1.0, scenario.deflection.grad_E_squared)
    alpha = 4.0 * np.pi * VACUUM_PERMITTIVITY_EPS0 * species.alpha_stat_vol
    rows = result.output.strip().splitlines()[1:]
    assert len(rows) == 5
    for row, v in zip(rows, scenario.sweep.values()):
        shift = stark_fringe_shift(fld, alpha, species.mass, float(v))
        assert row == ",".join(repr(float(x)) for x in (
            v, shift, shift / scenario.config.period_d))


def test_csl_map(runner):
    result = invoke(runner, "csl-map", OTIMA, "--lambda-points", "2",
                    "--rc-points", "2", "--rc-min", "1e-7", "--rc-max", "2e-7",
                    "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    masses = payload["rows"][0]["values"]
    assert all(1e5 < m < 1e10 for m in masses)
    # higher rate row excludes lighter clusters
    assert payload["rows"][1]["values"][0] < masses[0]


# the rows of a default csl-map on the bundled OTIMA scenario: a correlation
# length far below x_max has the loss 1, so its column equals the next
TINY_RC_ROWS = """\
1e-12,3188159.4892459614,3188159.4892459614,39808479.14062525
1e-10,688285.3957961601,688285.3957961601,8594173.194211427
1e-08,147842.67255170556,147842.67255170556,1846015.5353648344
"""


@pytest.mark.parametrize("rc_min, header", [
    ("1e-300", "lambda0_hz\\r_c_m,1e-300,1e-153,1e-06"),
    ("5e-324", "lambda0_hz\\r_c_m,5e-324,2.2227587494850626e-165,1e-06")],
    ids=["tiny", "subnormal"])
def test_csl_map_at_a_tiny_correlation_length(runner, rc_min, header):
    # z = x_max / (2 r_c) overflows its square at r_c = 1e-300 and itself
    # at a subnormal r_c: the loss is 1 there, without a warning line
    result = invoke(runner, "csl-map", OTIMA, "--rc-min", rc_min)
    assert result.exit_code == 0
    assert result.stderr == ""
    assert result.stdout == header + "\n" + TINY_RC_ROWS


def test_csl_map_rejects_an_operating_point_without_contrast(runner,
                                                            tmp_path):
    # one photon per grating leaves the scenario's own interferometer below
    # the 0.1 quantum visibility that the map requires
    text = read(OTIMA)
    for n in (1, 2, 3):
        text = with_line(text, f"grating{n}.n0 = 1")
    path = tmp_path / "otima.cfg"
    path.write_text(text)
    result = invoke(runner, "csl-map", str(path))
    assert result.exit_code == 2
    assert result.output == ("config error: operating point has "
                             "insufficient quantum visibility\n")


def test_otima_maps_of_equal_gratings_unchanged(runner):
    # the bundled scenario's three gratings are equal, so both maps give
    # the bytes of their grating1 computation
    from nearwave.constants import AMU
    from nearwave.core import talbot_time
    from nearwave.csl import exclusion_map
    from nearwave.engine import time_domain_visibility
    cfg = nearwave.load_scenario(OTIMA).config
    assert cfg.grating1 == cfg.grating2 == cfg.grating3
    tt = talbot_time(cfg.species.mass, cfg.period_d)

    lam = np.logspace(np.log10(1e-12), np.log10(1e-8), 2)
    rc = np.logspace(np.log10(1e-7), np.log10(2e-7), 2)
    masses = exclusion_map(cfg, lam, rc, float(np.exp(-1.0))) / AMU
    expected = [",".join(["lambda0_hz\\r_c_m"] + [repr(float(r)) for r in rc])]
    expected += [",".join(repr(float(x)) for x in [lv, *row])
                 for lv, row in zip(lam, masses)]
    result = invoke(runner, "csl-map", OTIMA, "--lambda-points", "2",
                    "--rc-points", "2", "--rc-min", "1e-7", "--rc-max", "2e-7")
    assert result.exit_code == 0
    assert result.output == "\n".join(expected) + "\n"

    ratios, n0_values = np.linspace(0.9, 1.1, 3), np.linspace(0.5, 8.0, 2)
    expected = [",".join(["delay_over_talbot_time\\n0"]
                         + [repr(float(n)) for n in n0_values])]
    for ratio in ratios:
        row = []
        for n0 in n0_values:
            g = replace(cfg.grating1, mean_absorbed_photons_n0=float(n0))
            row.append(time_domain_visibility(
                replace(cfg, grating1=g, grating2=g, grating3=g),
                float(ratio) * tt))
        expected.append(",".join(repr(float(x)) for x in [ratio, *row]))
    result = invoke(runner, "otima-map", OTIMA, "--ratio-min", "0.9",
                    "--ratio-max", "1.1", "--ratio-points", "3",
                    "--n0-points", "2")
    assert result.exit_code == 0
    assert result.output == "\n".join(expected) + "\n"


def test_otima_map_is_one_block_per_photon_number(runner, monkeypatch):
    # each n0 column is one engine evaluation over all its delays, up to
    # BLOCK_ROWS delays a block: a column of 100 delays runs as 48, 48 and
    # 4; a delay that is not positive is still a config error
    monkeypatch.delenv("NEARWAVE_WORKERS", raising=False)
    calls = _count_calls(monkeypatch, ["cli.velocity_averaged_signal"])
    result = invoke(runner, "otima-map", OTIMA, "--ratio-points", "5",
                    "--n0-points", "3")
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 6
    assert calls == {"cli.velocity_averaged_signal": 3}
    sizes = []
    signals = cli.velocity_averaged_signal

    def sized(cfgs, *args, **options):
        sizes.append(len(cfgs))
        return signals(cfgs, *args, **options)
    monkeypatch.setattr(cli, "velocity_averaged_signal", sized)
    result = invoke(runner, "otima-map", OTIMA, "--ratio-points", "100",
                    "--n0-points", "2")
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 101
    assert sizes == [48, 48, 4] * 2
    for ratio_min in ("-0.5", "0"):
        result = invoke(runner, "otima-map", OTIMA, "--ratio-min", ratio_min)
        assert result.exit_code == 2
        assert "config error: T must be positive" in result.output


@pytest.mark.parametrize("command", ["otima-map", "csl-map"])
@pytest.mark.parametrize("name", ["grating2", "grating3"])
def test_otima_map_rejects_a_grating_it_would_ignore(runner, tmp_path,
                                                     command, name):
    # both maps use grating1 for all three gratings, so a scenario whose
    # other gratings differ is refused, naming the grating
    path = tmp_path / "otima.cfg"
    path.write_text(with_line(read(OTIMA), f"{name}.n0 = 0.5"))
    assert invoke(runner, "validate", str(path)).exit_code == 0
    result = invoke(runner, command, str(path))
    assert result.exit_code == 2
    assert f"config error: {name} differs from grating1" in result.output
