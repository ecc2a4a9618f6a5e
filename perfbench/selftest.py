"""Tests of the benchmark itself: output checker, seeded inputs, trace counts.

Run from the repository root (takes about a minute, most of it the two
traced runs of every workload):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

from run import CHECKOUT, Launcher, child_env, prepare, trace_counts
from workloads import (DEFAULT_SEED, FLAG_DEFAULTS, WORKLOADS, check_output,
                       factors, make_inputs, reference_path)

# Calls counted by the trace at the commit that introduced the benchmark.
EXPECTED_COUNTS = {
    "tli_velocity": {"gratings.transmission": 8892,
                     "engine.talbot_lau": 18468,
                     "engine.detector_signal": 2052,
                     "classical.quadrature": 57},
    "kdtli_power": {"gratings.transmission": 7560,
                    "classical.quadrature": 90},
    "gas_decohere": {"decoherence.eta": 3200,
                     "decoherence.channel_build": 16,
                     "decoherence.factor": 256},
    "otima_csl": {"csl.critical_mass": 256,
                  "csl.bisection_steps": 3584,
                  "engine.time_domain": 256},
}


def _reference(name: str) -> str:
    return reference_path(WORKLOADS[name]).read_text(encoding="utf-8")


def _replace_cell(text: str, row: int, col: int, new: str) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = new
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


class OutputCheckTest(unittest.TestCase):
    def test_reference_passes(self):
        for name, workload in WORKLOADS.items():
            ref = _reference(name)
            self.assertEqual(check_output(workload, ref, ref), [], name)

    def test_one_altered_number_fails(self):
        for name, workload in WORKLOADS.items():
            ref = _reference(name)
            row = len(ref.splitlines()) // 2
            cell = ref.splitlines()[row].split(",")[-1]
            altered = _replace_cell(ref, row, -1, repr(float(cell) * 1.0001))
            self.assertTrue(check_output(workload, altered, ref), name)

    def test_invariants_fail_without_reference(self):
        tli = WORKLOADS["tli_velocity"]
        ref = _reference("tli_velocity")
        self.assertTrue(check_output(tli, _replace_cell(ref, 3, 1, "nan")))
        self.assertTrue(check_output(tli, _replace_cell(ref, 3, 1, "1.5")))
        self.assertTrue(check_output(tli, "\n".join(
            ref.splitlines()[:-1]) + "\n"))

        gas = WORKLOADS["gas_decohere"]
        ref = _reference("gas_decohere")
        self.assertTrue(check_output(gas, _replace_cell(ref, 5, 1, "0.99")))

        csl = WORKLOADS["otima_csl"]
        ref = _reference("otima_csl")
        self.assertTrue(check_output(csl, _replace_cell(ref, 9, 4, "1e12")))


def _pairs(text: str) -> dict[str, str]:
    pairs = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if "=" in line:
            key, value = line.split("=", 1)
            pairs[key.strip()] = value.strip()
    return pairs


class SeedTest(unittest.TestCase):
    def test_default_seed_uses_csl_map_defaults(self):
        sys.path.insert(0, str(CHECKOUT / "src"))
        try:
            from nearwave.cli import main
        finally:
            sys.path.pop(0)
        params = {p.opts[0]: p.default
                  for p in main.commands["csl-map"].params if p.opts}
        _, flags = make_inputs(WORKLOADS["otima_csl"], DEFAULT_SEED)
        for flag, default in FLAG_DEFAULTS.items():
            self.assertEqual(params[flag], default)
            self.assertEqual(float(flags[flags.index(flag) + 1]), default)

    def test_other_seeds_stay_in_band(self):
        for name, workload in WORKLOADS.items():
            default_text, default_flags = make_inputs(workload, DEFAULT_SEED)
            default = _pairs(default_text)
            for seed in range(1, 30):
                text, flags = make_inputs(workload, seed)
                self.assertEqual(make_inputs(workload, seed), (text, flags))
                pairs = _pairs(text)
                self.assertEqual(pairs.keys(), default.keys())
                self.assertEqual(pairs.get("sweep.points"),
                                 default.get("sweep.points"))
                scale = factors(workload, seed)
                for jitter in workload.jitter:
                    self.assertTrue(
                        jitter.low <= scale[jitter.key] <= jitter.high)
                    if jitter.key.startswith("--"):
                        value = float(flags[flags.index(jitter.key) + 1])
                        base = FLAG_DEFAULTS[jitter.key]
                    else:
                        value = float(pairs[jitter.key].split()[0])
                        base = float(default[jitter.key].split()[0])
                    self.assertAlmostEqual(value, base * scale[jitter.key],
                                           delta=1e-12 * abs(value))
                self.assertEqual(len(flags), len(default_flags))


class TraceCountTest(unittest.TestCase):
    def test_counts_match_and_repeat(self):
        self.assertNotIn("NEARWAVE_WORKERS", child_env())
        for name, workload in WORKLOADS.items():
            with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                             dir=CHECKOUT) as tmp:
                launcher = Launcher(Path(tmp))
                args, _ = prepare(workload, DEFAULT_SEED, Path(tmp))
                runs = []
                for _ in range(2):
                    sample = launcher.launch(args, trace=True)
                    self.assertEqual(sample["exit"], 0, name)
                    trace = sample["record"]["trace"]
                    self.assertEqual(trace["missing"], [], name)
                    runs.append(trace_counts(trace))
            self.assertEqual(runs[0], runs[1], name)
            for layer, calls in EXPECTED_COUNTS[name].items():
                self.assertEqual(runs[0][layer], calls, f"{name} {layer}")


if __name__ == "__main__":
    unittest.main(verbosity=2)
