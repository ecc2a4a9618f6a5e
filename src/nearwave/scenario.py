"""Scenario files: flat key-value configs with mandatory unit suffixes.

Every physical quantity must carry a unit (``period = 991 nm``); unitless
numbers are accepted only for genuinely dimensionless keys. Validation
collects *all* offending keys before failing, so one round trip fixes a
whole file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional

from .constants import AMU
from .core import BeamState
from .decoherence import GasEnvironment
from .engine import InterferometerConfig
from .gratings import IonizingGrating, LaserPhaseGrating, MaterialGrating
from .metrology import DeflectionField
from .species import LIBRARY, get_species


class ScenarioError(ValueError):
    """Config rejected; ``problems`` lists every offending key."""

    def __init__(self, problems: List[str]):
        self.problems = list(problems)
        super().__init__("invalid scenario:\n  " + "\n  ".join(self.problems))


# unit registry: dimension -> {suffix: factor to SI}
UNITS: Dict[str, Dict[str, float]] = {
    "length": {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6,
               "nm": 1e-9, "pm": 1e-12},
    "velocity": {"m/s": 1.0, "km/s": 1e3, "mm/s": 1e-3},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9},
    "power": {"W": 1.0, "mW": 1e-3, "kW": 1e3},
    "mass": {"kg": 1.0, "amu": AMU},
    "pressure": {"Pa": 1.0, "mbar": 1e2, "bar": 1e5},
    "temperature": {"K": 1.0},
    "angle": {"rad": 1.0},
    "area": {"m^2": 1.0, "nm^2": 1e-18},
    "field_gradient": {"V^2/m^3": 1.0},
}


def parse_quantity(text: str, dimension: str) -> float:
    """Parse '<number> <unit>' with a unit suffix of the given dimension."""
    table = UNITS[dimension]
    parts = text.split()
    if len(parts) != 2:
        raise ValueError(f"expected '<number> <unit>' with a {dimension} unit")
    value, unit = parts
    if unit not in table:
        raise ValueError(f"unknown {dimension} unit {unit!r} "
                         f"(expected one of {sorted(table)})")
    number = float(value) * table[unit]
    if not math.isfinite(number):
        raise ValueError(f"not a finite {dimension}: {text!r}")
    return number


# gratingN.type -> the dataclass it builds
_FAMILIES = {"material": MaterialGrating, "laser": LaserPhaseGrating,
             "ionizing": IonizingGrating}

# gratingN.<key> -> (the family that reads it, or None for every family;
# the dataclass field it sets; its kind). A kind is "quantity:<dimension>",
# "number", "int", "choice:a|b|c" or "string". A key of another family is
# rejected rather than ignored.
_GRATING_KEYS = {
    "type": (None, None, "choice:material|laser|ionizing"),
    "period": (None, "period_d", "quantity:length"),
    "open_fraction": ("material", "open_fraction_f", "number"),
    "thickness": ("material", "thickness_b", "quantity:length"),
    "interaction": ("material", "interaction",
                    "choice:none|vdw_r3|casimir_polder_r4"),
    "wall_cutoff": ("material", "wall_cutoff", "quantity:length"),
    "power": ("laser", "power_P", "quantity:power"),
    "waist_y": ("laser", "vertical_waist_wy", "quantity:length"),
    "laser_wavelength": ("laser", "laser_wavelength", "quantity:length"),
    "n0": ("ionizing", "mean_absorbed_photons_n0", "number"),
    "phi0": ("ionizing", "phase_amplitude_phi0", "quantity:angle"),
}

# scenario defaults where the dataclass has none: an unset laser is off
# and an unset ionizing grating absorbs nothing
_GRATING_DEFAULTS = {"laser": {"power_P": 0.0},
                     "ionizing": {"mean_absorbed_photons_n0": 0.0}}

# keys that only one mode reads; in the other mode they are rejected (a
# time-domain evaluation takes the beam's mean speed alone)
_MODE_KEYS = {"separation": "spatial", "pulse_delay": "time_domain",
              "beam.spread": "spatial", "beam.shape": "spatial"}

# the command that reads each key group, and the keys of the group
KEY_GROUPS = {
    "decohere": ("gas.mass", "gas.temperature", "gas.cross_section"),
    "deflect": ("deflect.geometry_constant", "deflect.grad_e_squared"),
}

SCHEMA: Dict[str, str] = {
    "name": "string",
    "species": "string",
    "species.mass": "quantity:mass",
    "mode": "choice:spatial|time_domain",
    "separation": "quantity:length",
    "pulse_delay": "quantity:time",
    "beam.velocity": "quantity:velocity",
    "beam.spread": "number",
    "beam.shape": "choice:gaussian|top_hat",
    "sweep.parameter": "string",
    "sweep.start": "string",  # dimension depends on the swept parameter
    "sweep.stop": "string",
    "sweep.points": "int",
    "seed": "int",
    "gas.mass": "quantity:mass",
    "gas.temperature": "quantity:temperature",
    "gas.cross_section": "quantity:area",
    "deflect.geometry_constant": "number",
    "deflect.grad_e_squared": "quantity:field_gradient",
}
for _n in (1, 2, 3):
    for _k, (_, _, _kind) in _GRATING_KEYS.items():
        SCHEMA[f"grating{_n}.{_k}"] = _kind

# parameters a sweep may target, with the dimension of start/stop
SWEEPABLE = {
    "beam.velocity": "velocity",
    "grating2.power": "power",
    "gas.pressure": "pressure",
}

REQUIRED = ("name", "species", "grating1.type", "grating2.type")


@dataclass
class SweepSpec:
    parameter: str
    start: float
    stop: float
    points: int

    def values(self):
        import numpy as np
        return np.linspace(self.start, self.stop, self.points)


@dataclass
class Scenario:
    """A checked scenario. ``gas`` (at zero pressure, which a sweep sets)
    and ``deflection`` are built from their key groups, and are None where
    the scenario sets none of a group's keys."""

    name: str
    config: InterferometerConfig
    sweep: Optional[SweepSpec] = None
    seed: int = 0
    gas: Optional[GasEnvironment] = None
    deflection: Optional[DeflectionField] = None


def _read_pairs(path: str, problems: List[str]) -> Dict[str, str]:
    pairs: Dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                problems.append(f"line {lineno}: expected 'key = value'")
                continue
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if key in pairs:
                problems.append(f"line {lineno}: duplicate key {key!r}")
            pairs[key] = value
    return pairs


def _check_value(key: str, value: str, kind: str, problems: List[str]):
    if kind == "string":
        return value
    if kind == "number":
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if not math.isfinite(number):
            problems.append(f"{key}: not a finite number: {value!r}")
            return None
        return number
    if kind == "int":
        try:
            return int(value)
        except ValueError:
            problems.append(f"{key}: not an integer: {value!r}")
            return None
    if kind.startswith("choice:"):
        allowed = kind.split(":", 1)[1].split("|")
        if value not in allowed:
            problems.append(f"{key}: {value!r} not one of {allowed}")
            return None
        return value
    dimension = kind.split(":", 1)[1]
    try:
        return parse_quantity(value, dimension)
    except (ValueError, KeyError) as exc:
        problems.append(f"{key}: {exc}")
        return None


def _parse_pairs(pairs: Dict[str, str]):
    """({key: parsed value} of the keys that parse, the sorted problems)."""
    problems: List[str] = []
    parsed = {}
    for key, value in pairs.items():
        kind = SCHEMA.get(key)
        if kind is None:
            problems.append(f"{key}: unknown key")
            continue
        value = _check_value(key, value, kind, problems)
        if value is not None:  # else its problem is listed
            parsed[key] = value
    for key in REQUIRED:
        if key not in pairs:
            problems.append(f"{key}: required key missing")

    sweep_keys = [k for k in pairs if k.startswith("sweep.")]
    if sweep_keys:
        for k in ("sweep.parameter", "sweep.start", "sweep.stop", "sweep.points"):
            if k not in pairs:
                problems.append(f"{k}: required for a sweep")
        target = pairs.get("sweep.parameter")
        if target is not None:
            if target not in SWEEPABLE:
                problems.append(f"sweep.parameter: {target!r} not sweepable "
                                f"(choose from {sorted(SWEEPABLE)})")
            else:
                dim = SWEEPABLE[target]
                for k in ("sweep.start", "sweep.stop"):
                    if k in pairs:
                        try:
                            parsed[k] = parse_quantity(pairs[k], dim)
                        except (ValueError, KeyError) as exc:
                            problems.append(f"{k}: {exc}")
        points = parsed.get("sweep.points")
        if isinstance(points, int) and points < 1:
            problems.append("sweep.points: must be >= 1")

    return parsed, sorted(problems)


def _build_grating(n: int, parsed, failed, problems: List[str]):
    """Grating ``n``, or None when it has no type or one of its keys
    already failed with its own message."""
    prefix = f"grating{n}."
    gtype = parsed.get(prefix + "type")
    if gtype is None or any(key.startswith(prefix) for key in failed):
        return None

    fields = dict(_GRATING_DEFAULTS.get(gtype, {}))
    for key, (family, name, _) in _GRATING_KEYS.items():
        if name is None or prefix + key not in parsed:
            continue
        if family in (None, gtype):
            fields[name] = parsed[prefix + key]
        else:
            problems.append(f"{prefix}{key}: applies only to a {family} "
                            f"grating, not to a {gtype} one")
    try:
        return _FAMILIES[gtype](**fields)
    except (TypeError, ValueError) as exc:
        problems.append(f"grating{n}: {exc}")
        return None


def _gas(mass, temperature, cross_section, pressures=()):
    """The gas at zero pressure; each swept pressure checked as
    ``decohere`` uses it."""
    gas = GasEnvironment(gas_mass=mass, temperature=temperature, pressure=0.0,
                         cross_section=cross_section)
    for pressure in pressures:
        replace(gas, pressure=pressure)
    return gas


def _build_group(command: str, build, pairs, parsed, failed,
                 problems: List[str], required: bool = False):
    """``build`` called with the values of ``command``'s key group; None
    where the scenario sets none of its keys and ``required`` is false, or
    after a problem. Each missing key is named; it stands in as 1.0, which
    every field accepts, so that the keys that are set are still checked in
    the same run."""
    keys = KEY_GROUPS[command]
    if not required and not any(key in pairs for key in keys):
        return None
    missing = [key for key in keys if key not in pairs]
    if missing:
        problems.append(f"{command} needs keys {missing}")
    if any(key in failed for key in keys):
        return None
    try:
        return build(*(parsed.get(key, 1.0) for key in keys))
    except ValueError as exc:
        problems.append(str(exc))
        return None


def load_scenario(path: str) -> Scenario:
    """Parse, validate and assemble a scenario file.

    Every stage runs and adds to one list of problems, raised once; a
    part whose keys already failed is not built, so each key has one
    message."""
    problems: List[str] = []
    pairs = _read_pairs(path, problems)
    parsed, found = _parse_pairs(pairs)
    problems += found
    failed = pairs.keys() - parsed.keys()

    species = None
    sp_name = parsed.get("species")
    mass_kg = parsed.get("species.mass")
    if sp_name is not None and "species.mass" not in failed:
        try:
            species = get_species(sp_name,
                                  None if mass_kg is None else mass_kg / AMU)
        except KeyError as exc:  # an unknown name, or gold_cluster's mass
            problems.append(f"species: {exc.args[0]} "
                            f"(library: {sorted(LIBRARY)})")
        except ValueError as exc:
            problems.append(f"species.mass: {exc}")

    g1, g2, g3 = (_build_grating(n, parsed, failed, problems)
                  for n in (1, 2, 3))
    if parsed.get("sweep.parameter") == "grating2.power" \
            and g2 is not None and not isinstance(g2, LaserPhaseGrating):
        problems.append("sweep.parameter: 'grating2.power' needs a laser "
                        "grating2")

    beam = None
    if not any(key.startswith("beam.") for key in failed):
        try:
            beam = BeamState(
                mean_velocity=parsed.get("beam.velocity", 1.0),
                relative_spread=parsed.get("beam.spread", 0.0),
                distribution_shape=parsed.get("beam.shape", "gaussian"))
        except ValueError as exc:
            problems.append(f"beam: {exc}")

    mode = parsed.get("mode", "spatial")
    for key, owner in _MODE_KEYS.items():
        if owner != mode and key in parsed and "mode" not in failed:
            problems.append(f"{key}: applies only to a {owner} scenario, "
                            f"not to a {mode} one")

    pressure_sweep = parsed.get("sweep.parameter") == "gas.pressure"
    pressures = [parsed[key] for key in ("sweep.start", "sweep.stop")
                 if pressure_sweep and key in parsed]
    gas = _build_group("decohere", partial(_gas, pressures=pressures), pairs,
                       parsed, failed, problems, required=pressure_sweep)
    deflection = _build_group("deflect", DeflectionField, pairs, parsed,
                              failed, problems)

    config = None
    if not problems:
        try:
            config = InterferometerConfig(
                grating1=g1, grating2=g2, grating3=g3,
                species=species, beam=beam, mode=mode,
                separation_L=parsed.get("separation"),
                pulse_delay_T=parsed.get("pulse_delay"))
        except (TypeError, ValueError) as exc:
            problems.append(f"config: {exc}")
    if problems:
        raise ScenarioError(problems)

    sweep = None
    if "sweep.parameter" in parsed:
        sweep = SweepSpec(parameter=parsed["sweep.parameter"],
                          start=parsed["sweep.start"],
                          stop=parsed["sweep.stop"],
                          points=parsed["sweep.points"])

    return Scenario(name=parsed["name"], config=config, sweep=sweep,
                    seed=parsed.get("seed", 0), gas=gas,
                    deflection=deflection)


def apply_sweep_value(scenario: Scenario, value: float) -> InterferometerConfig:
    """Return a copy of the scenario config with the swept parameter set."""
    cfg = scenario.config
    target = scenario.sweep.parameter
    if target == "beam.velocity":
        return replace(cfg, beam=replace(cfg.beam, mean_velocity=value))
    if target == "grating2.power":
        return replace(cfg, grating2=replace(cfg.grating2, power_P=value))
    raise ValueError(f"sweep parameter {target!r} does not modify the config")


__all__ = [
    "Scenario", "SweepSpec", "ScenarioError", "load_scenario",
    "apply_sweep_value", "parse_quantity", "UNITS",
    "SCHEMA", "SWEEPABLE", "KEY_GROUPS",
]
