import importlib.resources

import numpy as np
import pytest

from nearwave.gratings import IonizingGrating, LaserPhaseGrating, MaterialGrating
from nearwave.scenario import (ScenarioError, _parse_pairs,
                               apply_sweep_value, load_scenario,
                               parse_quantity)


def data_path(name):
    return str(importlib.resources.files("nearwave") / "data" / name)


def validate_pairs(pairs):
    """Schema-check raw pairs; returns {key: parsed value} or raises."""
    parsed, problems = _parse_pairs(pairs)
    if problems:
        raise ScenarioError(problems)
    return parsed


MINIMAL = """\
name = minimal
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
"""


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_quantity_units():
    assert parse_quantity("991 nm", "length") == pytest.approx(991e-9)
    assert parse_quantity("0.22 m", "length") == pytest.approx(0.22)
    assert parse_quantity("75 m/s", "velocity") == pytest.approx(75.0)
    assert parse_quantity("1e-8 mbar", "pressure") == pytest.approx(1e-6)
    assert parse_quantity("15 ms", "time") == pytest.approx(15e-3)
    assert parse_quantity("1e6 amu", "mass") > 0.0


def test_parse_quantity_rejects_unitless_and_wrong_unit():
    with pytest.raises(ValueError):
        parse_quantity("991", "length")
    with pytest.raises(ValueError):
        parse_quantity("991 s", "length")
    with pytest.raises(ValueError):
        parse_quantity("991 nm extra", "length")


def test_minimal_scenario_loads(tmp_path):
    scenario = load_scenario(write(tmp_path, MINIMAL))
    assert scenario.name == "minimal"
    cfg = scenario.config
    assert isinstance(cfg.grating1, MaterialGrating)
    assert cfg.grating1.period_d == pytest.approx(991e-9)
    assert cfg.grating3 is None
    assert cfg.beam.mean_velocity == 100.0
    assert scenario.sweep is None


def test_all_problems_reported_at_once(tmp_path):
    text = MINIMAL.replace("species = C70", "species = C70\nbogus.key = 1")
    text = text.replace("separation = 0.22 m", "separation = 0.22")
    text = text.replace("grating1.open_fraction = 0.475",
                        "grating1.open_fraction = wide")
    path = write(tmp_path, text)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    joined = "\n".join(err.value.problems)
    assert len(err.value.problems) >= 3
    assert "bogus.key" in joined
    assert "separation" in joined
    assert "grating1.open_fraction" in joined


def test_problems_of_every_stage_reported_at_once(tmp_path):
    # a duplicate line, an unknown key and an unknown species are found by
    # reading, schema check and assembly: one run names all three, and the
    # grating whose period fails to parse adds no message of its own
    text = MINIMAL + "name = twice\nfoo = 1\n"
    text = text.replace("species = C70", "species = nobodium")
    text = text.replace("grating1.period = 991 nm", "grating1.period = 991")
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, text))
    assert err.value.problems == [
        "line 12: duplicate key 'name'",
        "foo: unknown key",
        "grating1.period: expected '<number> <unit>' with a length unit",
        "species: unknown species 'nobodium' (library: "
        "['C60', 'C70', 'PFNS8', 'azobenzene_pf'])"]


@pytest.mark.parametrize("line", [
    "beam.velocity = fast", "species.mass = heavy amu", "mode = sideways"])
def test_failed_key_gets_one_message(tmp_path, line):
    # the beam, the species and the mode check are not built from a key
    # that already failed to parse
    key = line.split(" = ")[0]
    rows = [row for row in MINIMAL.splitlines()
            if not row.startswith(key + " ")]
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, "\n".join(rows + [line]) + "\n"))
    assert len(err.value.problems) == 1
    assert err.value.problems[0].startswith(key + ": ")


@pytest.mark.parametrize("mass, problem", [
    (None, "species: gold_cluster requires a mass"),
    ("-5 amu", "species.mass: mass_amu must be positive")])
def test_gold_cluster_mass_problem_is_listed(tmp_path, mass, problem):
    text = MINIMAL.replace("species = C70", "species = gold_cluster")
    if mass is not None:
        text += f"species.mass = {mass}\n"
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, text))
    assert err.value.problems[0].startswith(problem)


def test_unknown_species(tmp_path):
    path = write(tmp_path, MINIMAL.replace("species = C70",
                                           "species = unobtainium"))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert any("species" in p for p in err.value.problems)


def test_duplicate_and_malformed_lines(tmp_path):
    path = write(tmp_path, MINIMAL + "name = twice\njust words\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    joined = "\n".join(err.value.problems)
    assert "duplicate" in joined
    assert "key = value" in joined


def test_missing_required_keys(tmp_path):
    path = write(tmp_path, "mode = spatial\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    joined = "\n".join(err.value.problems)
    for key in ("name", "species", "grating1.type", "grating2.type"):
        assert key in joined


def test_sweep_validation(tmp_path):
    text = MINIMAL + ("sweep.parameter = beam.velocity\n"
                      "sweep.start = 80 m/s\nsweep.stop = 220 m/s\n"
                      "sweep.points = 8\n")
    scenario = load_scenario(write(tmp_path, text))
    values = scenario.sweep.values()
    assert len(values) == 8
    assert values[0] == pytest.approx(80.0)
    assert values[-1] == pytest.approx(220.0)

    incomplete = MINIMAL + "sweep.parameter = beam.velocity\n"
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, incomplete, "a.cfg"))
    assert any("sweep.start" in p for p in err.value.problems)

    not_sweepable = text.replace("beam.velocity\n", "beam.spread\n", 1)
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, not_sweepable, "b.cfg"))
    assert any("not sweepable" in p for p in err.value.problems)

    wrong_unit = text.replace("sweep.start = 80 m/s", "sweep.start = 80 nm")
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, wrong_unit, "c.cfg"))
    assert any("sweep.start" in p for p in err.value.problems)

    empty = text.replace("sweep.points = 8", "sweep.points = 0")
    with pytest.raises(ScenarioError) as err:
        load_scenario(write(tmp_path, empty, "d.cfg"))
    assert any("sweep.points" in p for p in err.value.problems)


def test_apply_sweep_value(tmp_path):
    text = MINIMAL + ("sweep.parameter = beam.velocity\n"
                      "sweep.start = 80 m/s\nsweep.stop = 220 m/s\n"
                      "sweep.points = 8\n")
    scenario = load_scenario(write(tmp_path, text))
    cfg = apply_sweep_value(scenario, 150.0)
    assert cfg.beam.mean_velocity == 150.0
    assert scenario.config.beam.mean_velocity == 100.0  # original untouched


def test_bundled_scenarios_load():
    tli = load_scenario(data_path("c70_tli_velocity_sweep.cfg"))
    assert tli.sweep.parameter == "beam.velocity"
    assert isinstance(tli.config.grating2, MaterialGrating)
    assert tli.config.grating2.interaction == "vdw_r3"

    kdtli = load_scenario(data_path("pfns8_kdtli_power_sweep.cfg"))
    assert kdtli.sweep.parameter == "grating2.power"
    assert isinstance(kdtli.config.grating2, LaserPhaseGrating)
    assert kdtli.config.species.mass == pytest.approx(
        5672.0 * 1.66053906660e-27, rel=1e-6)

    otima = load_scenario(data_path("otima_gold_clusters.cfg"))
    assert otima.config.mode == "time_domain"
    assert isinstance(otima.config.grating1, IonizingGrating)
    assert otima.config.pulse_delay_T == pytest.approx(0.015443025249522674)


def test_validate_pairs_direct():
    parsed = validate_pairs({"name": "x", "species": "C70",
                             "grating1.type": "material",
                             "grating2.type": "laser",
                             "grating2.power": "1 W"})
    assert parsed["grating2.power"] == pytest.approx(1.0)
    with pytest.raises(ScenarioError):
        validate_pairs({"name": "x", "species": "C70",
                        "grating1.type": "material",
                        "grating2.type": "magnetic"})
