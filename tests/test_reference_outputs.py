"""The benchmark's four workloads reproduce their reference CSVs.

Each workload runs in this process at the default seed, with the inputs
and the output check of ``perfbench/workloads.py``, so a changed number
shows on every test run and not only in a benchmark run.
"""

import importlib.util
import pathlib
import sys

import pytest
from click.testing import CliRunner

from nearwave.cli import main

WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_matches_reference(name, tmp_path, monkeypatch):
    monkeypatch.delenv("NEARWAVE_WORKERS", raising=False)
    workload = workloads.WORKLOADS[name]
    text, flags = workloads.make_inputs(workload, workloads.DEFAULT_SEED)
    scenario = tmp_path / workload.scenario
    scenario.write_text(text, encoding="utf-8")
    out = tmp_path / "out.csv"
    result = CliRunner().invoke(
        main, [workload.command, str(scenario), *flags, "--out", str(out)],
        catch_exceptions=False)
    assert result.exit_code == 0, result.output
    reference = workloads.reference_path(workload).read_text(encoding="utf-8")
    assert workloads.check_output(workload, out.read_text(encoding="utf-8"),
                                  reference) == []
