"""The benchmark's workloads: seeded inputs and the checks on their outputs.

Each workload is one nearwave subcommand on one scenario template from
``perfbench/scenarios``. The default seed passes the template and flags
unchanged; any other seed scales the listed sweep endpoints, spreads and
map ranges by factors drawn from the stated band. Point counts never
change, so every seed does the same amount of work.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 0

# Relative tolerance of the comparison against the stored reference output.
# Loose enough for reordered floating-point sums, tight enough that any
# changed digit of physics shows.
REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class Jitter:
    """Scale ``key`` (a scenario key or a ``--flag``) by U(low, high)."""

    key: str
    low: float
    high: float


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    scenario: str
    flags: tuple[str, ...]
    jitter: tuple[Jitter, ...]
    rows: int
    value_columns: int
    # Column of values that must not increase as the row label increases:
    # "visibility" (one column), "all" (every column) or None.
    non_increasing: str | None = None

    @property
    def values_emitted(self) -> int:
        return self.rows * self.value_columns


WORKLOADS = {
    w.name: w for w in (
        Workload("tli_velocity", "velocity-sweep",
                 "c70_tli_velocity_sweep.cfg", (),
                 (Jitter("sweep.start", 0.95, 1.05),
                  Jitter("sweep.stop", 0.95, 1.05),
                  Jitter("beam.spread", 0.9, 1.1)),
                 rows=57, value_columns=4),
        # Power and spread only shrink, so the phase phi0 ~ P/v never
        # exceeds its value at the default seed.
        Workload("kdtli_power", "power-sweep",
                 "pfns8_kdtli_power_sweep.cfg", (),
                 (Jitter("sweep.start", 0.5, 1.5),
                  Jitter("sweep.stop", 0.9, 1.0),
                  Jitter("beam.spread", 0.9, 1.0)),
                 rows=90, value_columns=2),
        Workload("gas_decohere", "decohere", "gas_decohere.cfg", (),
                 (Jitter("sweep.start", 0.5, 2.0),
                  Jitter("sweep.stop", 0.8, 1.2),
                  Jitter("beam.spread", 0.9, 1.1)),
                 rows=16, value_columns=1, non_increasing="visibility"),
        Workload("otima_csl", "csl-map", "otima_gold_clusters.cfg",
                 ("--lambda-points", "16", "--rc-points", "16"),
                 (Jitter("--lambda-min", 0.5, 2.0),
                  Jitter("--lambda-max", 0.5, 2.0),
                  Jitter("--rc-min", 0.8, 1.25),
                  Jitter("--rc-max", 0.8, 1.25)),
                 rows=16, value_columns=16, non_increasing="all"),
    )
}

# csl-map flag defaults that the otima_csl jitter scales.
FLAG_DEFAULTS = {"--lambda-min": 1e-12, "--lambda-max": 1e-8,
                 "--rc-min": 1e-8, "--rc-max": 1e-6}


def factors(workload: Workload, seed: int) -> dict[str, float]:
    """Scale factor per jittered key; all 1 for the default seed."""
    if seed == DEFAULT_SEED:
        return {j.key: 1.0 for j in workload.jitter}
    rng = random.Random(f"{workload.name}:{seed}")
    return {j.key: rng.uniform(j.low, j.high) for j in workload.jitter}


def _scale_line(line: str, factor: float) -> str:
    key, value = (part.strip() for part in line.split("=", 1))
    number, *unit = value.split()
    scaled = repr(float(number) * factor)
    return " ".join([f"{key} =", scaled, *unit])


def make_inputs(workload: Workload, seed: int) -> tuple[str, list[str]]:
    """(scenario text, extra CLI flags) for ``seed``."""
    scale = factors(workload, seed)
    text = (SCENARIOS / workload.scenario).read_text(encoding="utf-8")
    flags = list(workload.flags)
    if seed != DEFAULT_SEED:
        lines = []
        for line in text.splitlines(keepends=True):
            key = line.split("=", 1)[0].strip()
            if key in scale:
                line = _scale_line(line, scale[key]) + "\n"
            lines.append(line)
        text = "".join(lines)
    for key, factor in scale.items():
        if key.startswith("--"):
            flags += [key, repr(FLAG_DEFAULTS[key] * factor)]
    return text, flags


# ---------------------------------------------------------------------------
# output checks

def _parse(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if row]


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def check_output(workload: Workload, text: str,
                 reference: str | None = None) -> list[str]:
    """Problems found in one run's CSV output; empty when it passes.

    Invariants hold on every seed: the emitted shape, finite numbers,
    visibilities in [0, 1], and the workload's monotonicity. With a
    ``reference`` (default seed only) every cell must also match it within
    ``REFERENCE_RTOL``.
    """
    rows = _parse(text)
    if len(rows) != workload.rows + 1:
        return [f"expected {workload.rows} data rows, got {len(rows) - 1}"]
    header, data = rows[0], rows[1:]
    if any(len(r) != workload.value_columns + 1 for r in rows):
        return [f"expected {workload.value_columns + 1} columns per row"]

    # Matrix outputs carry numbers in the header too.
    header_numbers = [x for x in map(_number, header[1:]) if x is not None]
    table = [[_number(c) for c in r] for r in data]
    if not all(x is not None and math.isfinite(x)
               for x in header_numbers + [x for r in table for x in r]):
        return ["non-finite or non-numeric value emitted"]

    problems = []
    for k, name in enumerate(header):
        if "visibility" in name:
            col = [r[k] for r in table]
            if not all(0.0 <= v <= 1.0 for v in col):
                problems.append(f"{name} outside [0, 1]")

    if workload.non_increasing is not None:
        labels = [r[0] for r in table]
        if any(b <= a for a, b in zip(labels, labels[1:])):
            problems.append(f"{header[0]} not increasing")
        cols = (range(1, len(header)) if workload.non_increasing == "all"
                else [header.index(workload.non_increasing)])
        for k in cols:
            col = [r[k] for r in table]
            if any(b > a for a, b in zip(col, col[1:])):
                problems.append(f"column {header[k]} increases with "
                                f"{header[0]}")

    if reference is not None:
        problems += _compare(rows, _parse(reference))
    return problems


def _compare(rows: list[list[str]], ref: list[list[str]]) -> list[str]:
    if [len(r) for r in rows] != [len(r) for r in ref]:
        return ["shape differs from the reference"]
    bad = 0
    for row, ref_row in zip(rows, ref):
        for cell, ref_cell in zip(row, ref_row):
            a, b = _number(cell), _number(ref_cell)
            if a is None or b is None:
                bad += cell != ref_cell
            elif not math.isclose(a, b, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
                bad += 1
    return [f"{bad} cells differ from the reference"] if bad else []


def reference_path(workload: Workload) -> Path:
    return REFERENCE / f"{workload.name}.csv"
