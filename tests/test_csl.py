import importlib.resources
import json
import math

import mpmath
import numpy as np
import pytest
from click.testing import CliRunner

from nearwave import load_scenario
from nearwave.constants import AMU, PLANCK_H
from nearwave.cli import main
from nearwave.core import talbot_time
from nearwave.csl import (DEFAULT_OTIMA_PERIOD, MIN_QUANTUM_VISIBILITY,
                          CslParameters, MassOutOfRangeError, OtimaTemplate,
                          critical_mass, csl_reduction_factor, csl_visibility,
                          exclusion_map, quantum_operating_visibility)
from nearwave.decoherence import channel_factor, csl_channel
from nearwave.engine import InterferometerConfig
from nearwave.gratings import IonizingGrating
from nearwave.species import gold_cluster


def test_operating_point_has_contrast():
    assert quantum_operating_visibility(OtimaTemplate()) > 0.3


def test_template_without_contrast_rejected():
    # operating points with visibility 0.045 and 0.0035, below 0.1
    assert MIN_QUANTUM_VISIBILITY == 0.1
    weak = IonizingGrating(period_d=DEFAULT_OTIMA_PERIOD,
                           mean_absorbed_photons_n0=1.0,
                           phase_amplitude_phi0=0.0)
    for kwargs in ({"delay_over_talbot_time": 0.62}, {"grating": weak}):
        with pytest.raises(ValueError,
                           match="insufficient quantum visibility"):
            OtimaTemplate(**kwargs)


def _reduction_factor_through_config(params, template, mass_amu):
    # a gold-cluster configuration per mass, read by channel_factor
    cfg = template.config(mass_amu)
    assert cfg.species == gold_cluster(mass_amu)
    channel = csl_channel(params.lambda0, params.r_c, cfg.species.mass)
    return abs(channel_factor(channel, cfg, 2, 1.0))


@pytest.mark.parametrize("delay", [1.0, 0.75])
def test_reduction_factor_equals_configuration_path(delay):
    template = OtimaTemplate(delay_over_talbot_time=delay)
    rng = np.random.default_rng(20110421)
    # about two thirds of these factors lie strictly between 1e-6 and 1
    for _ in range(1000):
        params = CslParameters(lambda0=10.0 ** rng.uniform(-14.0, -8.0),
                               r_c=10.0 ** rng.uniform(-9.0, -5.0))
        mass_amu = 10.0 ** rng.uniform(3.0, 8.0)
        assert csl_reduction_factor(params, template, mass_amu) \
            == _reduction_factor_through_config(params, template, mass_amu)


def test_critical_mass_builds_no_configuration(monkeypatch):
    template = OtimaTemplate()
    builds = []
    post_init = InterferometerConfig.__post_init__

    def counted(self):
        builds.append(self)
        post_init(self)
    monkeypatch.setattr(InterferometerConfig, "__post_init__", counted)
    critical_mass(CslParameters(lambda0=1e-10, r_c=1e-7), template)
    assert builds == []
    template.config(1e6)
    assert len(builds) == 1


def test_reduction_monotone_in_mass():
    params = CslParameters(lambda0=1e-11, r_c=1e-7)
    template = OtimaTemplate()
    masses = [1e4, 1e5, 1e6, 1e7]
    factors = [csl_reduction_factor(params, template, m) for m in masses]
    assert all(a > b for a, b in zip(factors, factors[1:]))
    assert 0.0 < factors[-1] < factors[0] <= 1.0


def test_critical_mass_frozen_values():
    # stronger localization is ruled out by lighter clusters
    m_strong = critical_mass(CslParameters(lambda0=1e-12, r_c=1e-7))
    m_weak = critical_mass(CslParameters(lambda0=1e-8, r_c=1e-7))
    assert m_strong / AMU == pytest.approx(8.8e6, rel=0.05)
    assert m_weak < m_strong
    # both land in the cluster regime the pulsed machine can address
    assert 1e4 < m_weak / AMU < m_strong / AMU < 1e10


def test_critical_mass_threshold_definition():
    params = CslParameters(lambda0=1e-10, r_c=1e-7)
    template = OtimaTemplate()
    m = critical_mass(params, template)
    factor = csl_reduction_factor(params, template, m / AMU)
    assert factor == pytest.approx(math.exp(-1.0), rel=0.05)


def test_visibility_with_channel_below_unperturbed():
    template = OtimaTemplate()
    cfg = template.config(1e6)
    bare = quantum_operating_visibility(template)
    perturbed = csl_visibility(cfg, CslParameters(lambda0=1e-9, r_c=1e-7))
    assert perturbed < bare


def test_out_of_range_masses():
    with pytest.raises(MassOutOfRangeError):
        critical_mass(CslParameters(lambda0=1e6, r_c=1e-7))
    with pytest.raises(MassOutOfRangeError):
        critical_mass(CslParameters(lambda0=1e-40, r_c=1e-7))


def test_parameter_guards():
    with pytest.raises(ValueError):
        CslParameters(lambda0=-1.0, r_c=1e-7)
    with pytest.raises(ValueError):
        critical_mass(CslParameters(lambda0=1e-10, r_c=1e-7),
                      reduction_threshold=1.5)


def test_exclusion_map_and_csv(tmp_path):
    lambda0_grid = np.array([1e-12, 1e-10, 1e6])
    r_c_grid = np.array([5e-8, 1e-7])
    emap = exclusion_map(lambda0_grid, r_c_grid)
    assert emap.critical_mass.shape == (3, 2)
    # stronger localization rate -> smaller critical mass, column-wise
    assert np.all(emap.critical_mass[1] < emap.critical_mass[0])
    # unreachable corner is flagged, not silently clamped
    assert np.all(np.isnan(emap.critical_mass[2]))
    with pytest.raises(ValueError):
        exclusion_map(np.array([1e-10]), r_c_grid)

    # the CLI writes the same matrix as CSV: r_c axis in the header row,
    # lambda0 axis in the first column, masses in amu, NaN kept
    scenario = str(importlib.resources.files("nearwave") / "data"
                   / "otima_gold_clusters.cfg")
    args = ["csl-map", scenario, "--lambda-min", "1e-12", "--lambda-max",
            "1e6", "--lambda-points", "3", "--rc-min", "5e-8", "--rc-max",
            "1e-7", "--rc-points", "2", "--format"]
    path = tmp_path / "map.csv"
    result = CliRunner().invoke(main, args + ["csv", "--out", str(path)])
    assert result.exit_code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "lambda0_hz\\r_c_m"
    assert [float(c) for c in header[1:]] == pytest.approx([5e-8, 1e-7])
    rows = np.array([[float(c) for c in line.split(",")]
                     for line in lines[1:]])
    assert rows[:, 0] == pytest.approx([1e-12, 1e-3, 1e6])
    assert np.all(rows[0, 1:] > 1e5)
    assert np.all(np.isnan(rows[2, 1:]))
    # every CSV cell reads back to the number of the JSON matrix, where a
    # NaN cell is null
    payload = json.loads(CliRunner().invoke(main, args + ["json"]).output)
    assert [float(c) for c in header[1:]] == payload["r_c_m"]
    np.testing.assert_array_equal(
        rows, [[r["lambda0_hz"], *(math.nan if v is None else v
                                   for v in r["values"])]
               for r in payload["rows"]])


def test_csl_map_json_has_no_nan_token():
    # RFC 8259 has no NaN: the sentinel cells of a wide r_c range are null
    scenario = str(importlib.resources.files("nearwave") / "data"
                   / "otima_gold_clusters.cfg")
    result = CliRunner().invoke(main, ["csl-map", scenario, "--rc-min",
                                       "1e-3", "--rc-max", "1e3",
                                       "--format", "json"])
    assert result.exit_code == 0

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads(result.output, parse_constant=refuse)
    cells = [v for row in payload["rows"] for v in row["values"]]
    assert None in cells
    assert all(v is None or math.isfinite(v) for v in cells)


def _scalar_critical_mass_amu(params, template, threshold):
    """The per-cell search: bisection on log10 of the mass over
    [1e3, 1e12] amu to 1% width, one scalar reduction factor per step;
    NaN where the crossing lies outside the bracket."""
    lo, hi = 3.0, 12.0
    if (csl_reduction_factor(params, template, 10.0 ** lo) < threshold
            or csl_reduction_factor(params, template, 10.0 ** hi) > threshold):
        return math.nan
    while 10.0 ** (hi - lo) - 1.0 >= 0.01:
        mid = 0.5 * (lo + hi)
        if csl_reduction_factor(params, template, 10.0 ** mid) < threshold:
            hi = mid
        else:
            lo = mid
    return 10.0 ** (0.5 * (lo + hi))


def test_lockstep_map_equals_per_cell_bisection():
    # the benchmark's 16 x 16 flag grid on the bundled OTIMA template, with
    # rows whose crossing lies above (1e-40) and below (1e6) the bracket;
    # at 1e300 the exponent overflows to a factor of 0
    scenario = str(importlib.resources.files("nearwave") / "data"
                   / "otima_gold_clusters.cfg")
    cfg = load_scenario(scenario).config
    template = OtimaTemplate(
        grating=cfg.grating1,
        delay_over_talbot_time=cfg.pulse_delay_T
        / talbot_time(cfg.species.mass, cfg.period_d))
    lambda0_grid = np.concatenate(([1e-40], np.logspace(-12.0, -8.0, 16),
                                   [1e6, 1e300]))
    r_c_grid = np.logspace(-8.0, -6.0, 16)
    threshold = math.exp(-1.0)
    masses = exclusion_map(lambda0_grid, r_c_grid, template,
                           threshold).critical_mass / AMU
    expected = np.array([[_scalar_critical_mass_amu(
        CslParameters(lambda0=lam0, r_c=rc), template, threshold)
        for rc in r_c_grid] for lam0 in lambda0_grid])
    assert np.all(np.isnan(expected[[0, -2, -1]]))
    np.testing.assert_array_equal(np.isnan(masses), np.isnan(expected))
    finite = ~np.isnan(expected)
    assert finite.sum() == 16 * 16
    np.testing.assert_allclose(masses[finite], expected[finite], rtol=4e-16,
                               atol=0.0)
    # critical_mass is the one-cell case of the same search
    for row in (1, 8, 16):
        assert critical_mass(CslParameters(lambda0=lambda0_grid[row],
                                           r_c=r_c_grid[5]),
                             template, threshold) / AMU == masses[row, 5]


@pytest.mark.parametrize("threshold", ["1.5", "nan"])
def test_csl_map_rejects_threshold_outside_unit_interval(threshold):
    scenario = str(importlib.resources.files("nearwave") / "data"
                   / "otima_gold_clusters.cfg")
    result = CliRunner().invoke(main, ["csl-map", scenario, "--threshold",
                                       threshold])
    assert result.exit_code == 2
    assert "reduction_threshold must lie in (0, 1)" in result.output


def _mp_crossing_amu(lambda0, r_c, d, delay, threshold):
    """(-ln theta / k)^(1/3) in amu at 50 digits: the factor is
    exp(-k m^3) with k = 2 (T / T_T) T_T(1 amu) lambda0 (1 - mean eta)
    and 1 - mean eta summed as a series below z = 1."""
    with mpmath.workdps(50):
        z = mpmath.mpf(d) * mpmath.mpf(delay) / (2 * mpmath.mpf(r_c))
        if z < 1:
            loss = mpmath.nsum(lambda k: (-1) ** (k + 1) * z ** (2 * k)
                               / (mpmath.factorial(k) * (2 * k + 1)),
                               [1, mpmath.inf])
        else:
            loss = 1 - mpmath.sqrt(mpmath.pi) * mpmath.erf(z) / (2 * z)
        talbot_amu = mpmath.mpf(AMU) * mpmath.mpf(d) ** 2 / mpmath.mpf(PLANCK_H)
        k = (2 * mpmath.mpf(delay) * talbot_amu * mpmath.mpf(lambda0)
             * loss)
        return float(mpmath.cbrt(-mpmath.log(mpmath.mpf(threshold)) / k))


def test_csl_map_wide_rc_range_matches_exact_crossing():
    # r_c up to 1e300 m: where r_c >> x_max = d T / T_T the loss is far
    # below the rounding of 1 - mean eta, and every cell must still be NaN
    # exactly where the exact crossing leaves [1e3, 1e12] amu
    scenario = str(importlib.resources.files("nearwave") / "data"
                   / "otima_gold_clusters.cfg")
    cfg = load_scenario(scenario).config
    delay = cfg.pulse_delay_T / talbot_time(cfg.species.mass, cfg.period_d)
    result = CliRunner().invoke(main, [
        "csl-map", scenario, "--rc-min", "1e-8", "--rc-max", "1e300",
        "--lambda-points", "40", "--rc-points", "30"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    r_c_grid = [float(c) for c in lines[0].split(",")[1:]]
    rows = np.array([[float(c) for c in line.split(",")]
                     for line in lines[1:]])
    assert rows.shape == (40, 31)
    threshold = float(np.exp(-1.0))
    exact = np.array([[_mp_crossing_amu(lam0, rc, cfg.period_d, delay,
                                        threshold) for rc in r_c_grid]
                      for lam0 in rows[:, 0]])
    masses = rows[:, 1:]
    outside = (exact < 1e3) | (exact > 1e12)
    assert 0 < outside.sum() < outside.size
    np.testing.assert_array_equal(np.isnan(masses), outside)
    np.testing.assert_allclose(masses[~outside], exact[~outside], rtol=0.01)
