"""Command-line entry points: figure-level sweeps emitted as CSV/JSON data.

Every subcommand reads a scenario file, computes deterministically, and
writes records with unit-suffixed column names. Commands raise; the
command group is the one place that turns a failure into a message and an
exit code: 0 success, 2 config error, 3 I/O error, 4 a vanishing signal
offset S_0 or a non-finite result.
"""

from __future__ import annotations

import atexit
import gc
import json
import math
import os
import sys
import warnings
from dataclasses import replace
from functools import partial

import click
import numpy as np

from .classical import classical_visibility_quadrature
from .constants import AMU, VACUUM_PERMITTIVITY_EPS0
from .core import talbot_time
from .csl import exclusion_map
from .decoherence import collisional_channel, collisional_rate
from .engine import (grating_coefficients, sinusoidal_visibility,
                     talbot_pattern, velocity_averaged_signal)
# not called: the lookup site of the trace layer "engine.time_domain" in
# perfbench/spans.py, kept until that layer is dropped
from .engine import time_domain_visibility  # noqa: F401
from .gratings import IonizingGrating, MaterialGrating, SlitBlockedError
from .metrology import stark_fringe_shift
from .scenario import (KEY_GROUPS, Scenario, ScenarioError, apply_sweep_value,
                       load_scenario)

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4
# one engine evaluation takes at most this many rows: the velocity nodes of
# a block of sweep points, or the delays of an otima-map block
BLOCK_ROWS = 48


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write(text: str, out: str):
    if out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def emit(records, columns, out: str, fmt: str):
    """Write records as CSV (header row with units) or JSON (flat array)."""
    if fmt == "csv":
        lines = [",".join(columns)]
        for rec in records:
            lines.append(",".join(_fmt(rec[c]) for c in columns))
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([{c: rec[c] for c in columns} for rec in records],
                          indent=2) + "\n"
    _write(text, out)


def emit_matrix(row_label, row_values, col_label, col_values, matrix,
                out: str, fmt: str):
    """2-D matrix: rows labeled by row_values, columns by col_values."""
    if fmt == "csv":
        header = [f"{row_label}\\{col_label}"] + [_fmt(float(c))
                                                 for c in col_values]
        lines = [",".join(header)]
        for rv, row in zip(row_values, matrix):
            lines.append(",".join([_fmt(float(rv))]
                                  + [_fmt(float(v)) for v in row]))
        text = "\n".join(lines) + "\n"
    else:
        # JSON has no NaN: a sentinel cell is null
        payload = {col_label: [float(c) for c in col_values],
                   "rows": [{row_label: float(rv),
                             "values": [float(v) if math.isfinite(v)
                                        else None for v in row]}
                            for rv, row in zip(row_values, matrix)]}
        text = json.dumps(payload, indent=2) + "\n"
    _write(text, out)


def _require(built, command: str):
    """``built``, what the scenario made of ``command``'s key group; None,
    a scenario that sets none of the keys, is a ValueError naming them."""
    if built is None:
        raise ValueError(f"{command} needs keys {list(KEY_GROUPS[command])}")
    return built


def _require_sweep(scenario: Scenario, parameter: str) -> list[float]:
    if scenario.sweep is None or scenario.sweep.parameter != parameter:
        raise ValueError(f"scenario must sweep {parameter!r}")
    return [float(v) for v in scenario.sweep.values()]


def _pmap(func, items):
    """Map preserving input order over NEARWAVE_WORKERS processes, clamped
    to 1 .. min(len(items), os.cpu_count())."""
    items = list(items)
    requested = os.environ.get("NEARWAVE_WORKERS", "1")
    try:
        workers = min(int(requested), len(items), os.cpu_count() or 1)
    except ValueError:
        raise ValueError("NEARWAVE_WORKERS must be an integer, "
                         f"got {requested!r}") from None
    if workers <= 1:
        return [func(item) for item in items]
    # imported here: the pool's modules are loaded only by a run that uses it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, initializer=_one_line_warnings) as pool:
        return list(pool.map(func, items))


def _otima_grating(cfg):
    """grating1, which the OTIMA maps apply to all three gratings; a
    scenario that is not time-domain with an ionizing grating1, or whose
    grating2 or grating3 differs, is a ValueError. ``csl-map`` calls it
    for this check alone: the critical-mass map reads the config itself."""
    if cfg.mode != "time_domain" or not isinstance(cfg.grating1,
                                                   IonizingGrating):
        raise ValueError("this map needs a time-domain scenario with "
                         "ionizing gratings")
    for name in ("grating2", "grating3"):
        if getattr(cfg, name) != cfg.grating1:
            raise ValueError(f"{name} differs from grating1; this map uses "
                             "grating1 for all three gratings")
    return cfg.grating1


def _all_material(cfg) -> bool:
    gratings = (cfg.grating1, cfg.grating2, cfg.grating3)
    return all(isinstance(g, MaterialGrating) for g in gratings
               if g is not None)


def _with_interaction(cfgs, column: str, interaction: str) -> list:
    """``cfgs`` with ``interaction`` on every mask, for quantum ``column``:
    each distinct mask is swapped once for the whole block."""
    names = ("grating1", "grating2", "grating3")
    swapped = {None: None}
    for name, g in ((n, getattr(cfg, n)) for cfg in cfgs for n in names):
        if g not in swapped:
            try:
                swapped[g] = replace(g, interaction=interaction)
            except SlitBlockedError as exc:
                raise SlitBlockedError(f"{column}: {name} with interaction "
                                       f"{interaction!r}: {exc}") from None
    return [replace(cfg, **{n: swapped[getattr(cfg, n)] for n in names})
            for cfg in cfgs]


# quantum columns: (name, wall interaction given to every material mask,
# or None to keep the configured ones)
QUANTUM = (("quantum_visibility", None),)
INTERACTIONS = (("quantum_vdw_visibility", "vdw_r3"),
                ("quantum_cp_visibility", "casimir_polder_r4"),
                ("quantum_ideal_visibility", "none"))


def _block(n_velocities: int, columns, cfgs) -> list[dict]:
    """Visibility columns of a block of configs, one record per config.

    Each quantum column is the ``sinusoidal_visibility`` of one engine
    evaluation over the whole block, of S_0 and S_1 only; the engine
    applies each config's own decoherence channels to its rows. The
    classical twin models neither the time domain nor decoherence: it is
    added to spatial configs without channels, in one call for the block.
    """
    records = [{} for _ in cfgs]
    for column, interaction in columns:
        variants = (cfgs if interaction is None
                    else _with_interaction(cfgs, column, interaction))
        signals = velocity_averaged_signal(variants, n_velocities=n_velocities,
                                           m_max=1)
        for record, value in zip(records, sinusoidal_visibility(signals)):
            record[column] = float(value)
    twins = [p for p, cfg in enumerate(cfgs)
             if cfg.mode == "spatial" and not cfg.channels]
    if twins:
        values = classical_visibility_quadrature([cfgs[p] for p in twins],
                                                 n_velocities=n_velocities)
        for p, value in zip(twins, values):
            records[p]["classical_visibility"] = float(value)
    return records


def _blocks(cfgs: list, n_velocities: int) -> list[list]:
    """Consecutive ``cfgs`` in blocks of ``BLOCK_ROWS // n_velocities``
    configs (at least one)."""
    size = max(1, BLOCK_ROWS // max(1, n_velocities))
    return [cfgs[i:i + size] for i in range(0, len(cfgs), size)]


def _evaluate(blocks, n_velocities: int, columns) -> list[dict]:
    """The ``_block`` records of ``blocks`` in order, mapped by the worker
    pool. A config carries everything its point needs, decoherence
    channels included, so a block is all that a worker receives."""
    return [record for records in _pmap(
        partial(_block, n_velocities, columns), blocks) for record in records]


def _sweep(label: str, values, setting, n_velocities: int, columns,
           out: str, fmt: str):
    """Emit one record per value: the value under ``label``, then the
    ``_block`` columns of the config ``setting(value)``, consecutive values
    evaluated in ``_blocks``."""
    cfgs = [setting(value) for value in values]
    rows = _evaluate(_blocks(cfgs, n_velocities), n_velocities, columns)
    records = [{label: value, **row} for value, row in zip(values, rows)]
    emit(records, list(records[0]), out, fmt)


class FiniteFloat(click.ParamType):
    """A float option that must be finite, and above zero if ``positive``:
    click's FLOAT and FloatRange take nan and inf."""

    name = "float"

    def __init__(self, positive: bool = False):
        self.positive = positive

    def convert(self, value, param, ctx):
        number = click.FLOAT.convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        if self.positive and number <= 0.0:
            self.fail(f"{value!r} is not a positive number", param, ctx)
        return number


FINITE = FiniteFloat()
# the bounds of a logarithmic axis
POSITIVE = FiniteFloat(positive=True)
# a grid axis needs at least one point
POINTS = click.IntRange(min=1)
# velocity nodes: n top-hat nodes build an n x n matrix before any check
VELOCITIES = click.IntRange(1, 1000)

common_options = [
    click.option("--out", default="-", show_default=True,
                 help="Output path, '-' for stdout."),
    click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                 default="csv", show_default=True),
]


def with_common(func):
    for option in reversed(common_options):
        func = option(func)
    return func


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """A warning as one stderr line, ``warning: <Category>: <message>``,
    without the package's path and line, which differ between installs."""
    click.echo(f"warning: {category.__name__}: {message}", err=True)


def _one_line_warnings():
    """Print this process's warnings as ``_show_warning`` lines."""
    warnings.showwarning = _show_warning


class Commands(click.Group):
    """The command group, and every command's one failure boundary: each
    failure family ends as its message prefix and exit code, and each
    warning that the filters let through as one ``_show_warning`` line."""

    def invoke(self, ctx):
        try:
            with warnings.catch_warnings():
                _one_line_warnings()
                return super().invoke(ctx)
        except FloatingPointError as exc:
            prefix, code, problems = "numerical error", EXIT_NUMERICAL, [exc]
        except ValueError as exc:
            prefix, code = "config error", EXIT_CONFIG
            problems = (exc.problems if isinstance(exc, ScenarioError)
                        else [exc])
        except OSError as exc:
            prefix, code, problems = "i/o error", EXIT_IO, [exc]
        for problem in problems:
            click.echo(f"{prefix}: {problem}", err=True)
        sys.exit(code)


@click.group(cls=Commands)
def main():
    """Near-field interferometry sweeps and maps, emitted as data."""
    # The process ends when the command does: freezing the collector's
    # objects at exit spares the final collections over every object the
    # imports made. Registered once however often the group runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)


@main.command()
@click.argument("scenario_path")
@with_common
def validate(scenario_path, out, fmt):
    """Parse and schema-check a scenario file."""
    scenario = load_scenario(scenario_path)
    emit([{"scenario": scenario.name, "status": "ok", "seed": scenario.seed}],
         ["scenario", "status", "seed"], out, fmt)


@main.command()
@click.argument("scenario_path")
@click.option("--velocities", type=VELOCITIES, default=16, show_default=True,
              help="Velocity quadrature nodes.")
@with_common
def visibility(scenario_path, velocities, out, fmt):
    """Quantum and (spatial mode) classical visibility of one configuration."""
    scenario = load_scenario(scenario_path)
    _sweep("scenario", [scenario.name], lambda _: scenario.config,
           velocities, QUANTUM, out, fmt)


@main.command("velocity-sweep")
@click.argument("scenario_path")
@click.option("--velocities", type=VELOCITIES, default=12, show_default=True)
@with_common
def velocity_sweep(scenario_path, velocities, out, fmt):
    """Visibility versus mean beam velocity (quantum and classical).

    All-material interferometers get one quantum curve per wall
    interaction.
    """
    scenario = load_scenario(scenario_path)
    values = _require_sweep(scenario, "beam.velocity")
    columns = INTERACTIONS if _all_material(scenario.config) else QUANTUM
    _sweep("velocity_m_per_s", values, partial(apply_sweep_value, scenario),
           velocities, columns, out, fmt)


@main.command("power-sweep")
@click.argument("scenario_path")
@click.option("--velocities", type=VELOCITIES, default=12, show_default=True)
@with_common
def power_sweep(scenario_path, velocities, out, fmt):
    """Visibility versus central laser power (quantum and classical)."""
    scenario = load_scenario(scenario_path)
    values = _require_sweep(scenario, "grating2.power")
    _sweep("power_w", values, partial(apply_sweep_value, scenario),
           velocities, QUANTUM, out, fmt)


@main.command()
@click.argument("scenario_path")
@click.option("--z-max", type=POSITIVE, default=2.0, show_default=True,
              help="Largest propagation distance in Talbot lengths.")
@click.option("--z-points", type=POINTS, default=64, show_default=True)
@click.option("--x-points", type=POINTS, default=128, show_default=True)
@click.option("--order", type=click.IntRange(min=0), default=8,
              show_default=True,
              help="Fourier truncation of the reconstructed density.")
@with_common
def carpet(scenario_path, z_max, z_points, x_points, order, out, fmt):
    """Near-field intensity carpet behind the first grating."""
    scenario = load_scenario(scenario_path)
    cfg = scenario.config
    b = grating_coefficients(cfg.grating1, cfg.species, cfg.beam.mean_velocity)
    x = np.arange(x_points) / x_points
    z_values = np.linspace(0.0, z_max, z_points)
    matrix = np.array([talbot_pattern(b, z, m_max=order).reconstruct(x)
                       for z in z_values])
    emit_matrix("z_over_talbot_length", z_values, "x_over_d", x, matrix,
                out, fmt)


@main.command()
@click.argument("scenario_path")
@click.option("--velocities", type=VELOCITIES, default=8, show_default=True)
@with_common
def decohere(scenario_path, velocities, out, fmt):
    """Visibility versus residual-gas pressure (collisional channel)."""
    scenario = load_scenario(scenario_path)
    gas = _require(scenario.gas, "decohere")
    pressures = _require_sweep(scenario, "gas.pressure")
    cfg = scenario.config
    # eta does not depend on the pressure: one table, one rate per point
    table = collisional_channel(gas)

    def setting(p):
        rate = collisional_rate(replace(gas, pressure=p))
        return replace(cfg, channels=(replace(table, rate=rate),))

    _sweep("pressure_pa", pressures, setting, velocities,
           (("visibility", None),), out, fmt)


@main.command("otima-map")
@click.argument("scenario_path")
@click.option("--ratio-min", type=FINITE, default=0.7, show_default=True)
@click.option("--ratio-max", type=FINITE, default=1.3, show_default=True)
@click.option("--ratio-points", type=POINTS, default=25, show_default=True)
@click.option("--n0-min", type=FINITE, default=0.5, show_default=True)
@click.option("--n0-max", type=FINITE, default=8.0, show_default=True)
@click.option("--n0-points", type=POINTS, default=16, show_default=True)
@with_common
def otima_map(scenario_path, ratio_min, ratio_max, ratio_points,
              n0_min, n0_max, n0_points, out, fmt):
    """Visibility map over pulse delay (in Talbot times) and photon number."""
    scenario = load_scenario(scenario_path)
    cfg = scenario.config
    grating = _otima_grating(cfg)
    tt = talbot_time(cfg.species.mass, cfg.period_d)
    ratios = np.linspace(ratio_min, ratio_max, ratio_points)
    n0_values = np.linspace(n0_min, n0_max, n0_points)
    delays = (ratios * tt).tolist()
    if min(delays) <= 0.0:
        raise ValueError("T must be positive")
    # each photon number's delays in blocks, at the beam's mean speed
    blocks = []
    for n0 in n0_values:
        g = replace(grating, mean_absorbed_photons_n0=float(n0))
        base = replace(cfg, grating1=g, grating2=g, grating3=g)
        blocks += _blocks([replace(base, pulse_delay_T=t) for t in delays], 1)
    matrix = np.reshape([record["quantum_visibility"] for record
                         in _evaluate(blocks, 1, QUANTUM)], (n0_points, -1)).T
    emit_matrix("delay_over_talbot_time", ratios, "n0", n0_values, matrix,
                out, fmt)


@main.command()
@click.argument("scenario_path")
@with_common
def deflect(scenario_path, out, fmt):
    """Stark fringe deflection versus beam velocity."""
    scenario = load_scenario(scenario_path)
    fld = _require(scenario.deflection, "deflect")
    cfg = scenario.config
    velocities = (_require_sweep(scenario, "beam.velocity")
                  if scenario.sweep is not None else [cfg.beam.mean_velocity])
    alpha_si = (4.0 * np.pi * VACUUM_PERMITTIVITY_EPS0
                * cfg.species.alpha_stat_vol)
    shifts = stark_fringe_shift(fld, alpha_si, cfg.species.mass,
                                np.array(velocities))
    emit([{"velocity_m_per_s": float(v), "stark_shift_m": float(shift),
           "shift_over_period": float(shift / cfg.period_d)}
          for v, shift in zip(velocities, shifts)],
         ["velocity_m_per_s", "stark_shift_m", "shift_over_period"], out, fmt)


@main.command("csl-map")
@click.argument("scenario_path")
@click.option("--lambda-min", type=POSITIVE, default=1e-12, show_default=True)
@click.option("--lambda-max", type=POSITIVE, default=1e-8, show_default=True)
@click.option("--lambda-points", type=click.IntRange(min=2), default=3,
              show_default=True)
@click.option("--rc-min", type=POSITIVE, default=1e-8, show_default=True)
@click.option("--rc-max", type=POSITIVE, default=1e-6, show_default=True)
@click.option("--rc-points", type=click.IntRange(min=2), default=3,
              show_default=True)
@click.option("--threshold", default=float(np.exp(-1.0)), show_default=True,
              help="Reduction-factor threshold defining the critical mass.")
@with_common
def csl_map(scenario_path, lambda_min, lambda_max, lambda_points,
            rc_min, rc_max, rc_points, threshold, out, fmt):
    """Critical-mass map over localization parameters (masses in amu).

    The whole map is one lock-step bisection of log10 of the mass over
    [1e3, 1e12] amu to a 1% width. A cell whose threshold crossing lies
    outside that bracket is NaN (null in JSON).
    """
    cfg = load_scenario(scenario_path).config
    _otima_grating(cfg)
    lambda_grid = np.logspace(np.log10(lambda_min), np.log10(lambda_max),
                              lambda_points)
    rc_grid = np.logspace(np.log10(rc_min), np.log10(rc_max), rc_points)
    masses = exclusion_map(cfg, lambda_grid, rc_grid, threshold)
    emit_matrix("lambda0_hz", lambda_grid, "r_c_m", rc_grid, masses / AMU,
                out, fmt)


if __name__ == "__main__":
    main()
