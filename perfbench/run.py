"""nearwave benchmark: fresh CLI processes per workload, checked and timed.

Usage (from the repository root):

    python3 perfbench/run.py --workload tli_velocity --seed 3 --seconds 30
    python3 perfbench/run.py --workload all --seconds 30

``--trace 0`` launches untraced processes for ``--seconds``, with a run of
``calibrate.py`` before the first and after each, and reports the
end-to-end metrics as medians over them. ``--trace 1`` alternates untraced
and traced processes and reports the per-layer metrics of the traced ones.
Every process's output is checked (see ``workloads.check_output``). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

from spans import LAYERS, ROOT, summarize
from workloads import (DEFAULT_SEED, WORKLOADS, check_output, make_inputs,
                       reference_path)

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
PACKAGE = CHECKOUT / "src" / "nearwave"

MIN_PROCESSES = 3          # per timed run, even when --seconds is short
PROCESS_TIMEOUT_S = 120.0  # a process running longer is killed and failed

# Median time of calibrate.py on the 2-core Intel Xeon VM where the
# benchmark was written. Timings are reported in reference seconds: each
# process's times are scaled by REFERENCE_CAL_S over the mean time of the
# calibrations run just before and just after it. The host's speed drifts
# by up to 1.5x over minutes; the scaling cancels most of that drift, which
# medians within a run cannot.
REFERENCE_CAL_S = 0.70

END_TO_END = {"wall_s": "s", "setup_s": "s", "points_per_s": "1/s",
              "cpu_s": "s", "peak_rss_mb": "MiB"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    """One thread per process, no worker pool, the package from src/.

    Bytecode caching is turned on, as for an installed package: the warm-up
    writes the cache, so timed processes do not compile nearwave.
    """
    env = dict(os.environ)
    env.pop("NEARWAVE_WORKERS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = "src" + (os.pathsep + path if path else "")
    return env


class Launcher:
    """Launches CLI processes in a scratch directory inside the checkout."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = child_env()
        self.versions: dict[str, str] = {}

    def warm_up(self):
        """Import the package once, untimed, so later processes find the
        bytecode cache written, and read the numpy and scipy versions;
        exit 1 if the program is missing."""
        probe = ("import json, nearwave.cli, numpy, scipy; print(json.dumps("
                 "{'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
        done = subprocess.run([sys.executable, "-c", probe],
                              cwd=CHECKOUT, env=self.env, capture_output=True,
                              text=True, timeout=PROCESS_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit("perfbench: cannot import nearwave.cli from src/")
        self.versions = json.loads(done.stdout.splitlines()[-1])

    def calibrate(self) -> float:
        """Wall time of one calibrate.py process."""
        start = now()
        subprocess.run([sys.executable, str(HERE / "calibrate.py")],
                       cwd=CHECKOUT, env=self.env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       timeout=PROCESS_TIMEOUT_S)
        return now() - start

    def launch(self, cli_args: list[str], trace: bool) -> dict:
        """Run one process; return its timings, usage and sidecar record."""
        sidecar = self.workdir / "sidecar.json"
        sidecar.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "launch.py"), str(sidecar),
               "1" if trace else "0", *cli_args]
        with open(self.workdir / "stderr.txt", "w") as err:
            start = now()
            proc = subprocess.Popen(cmd, cwd=CHECKOUT, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            end = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        record = {}
        if sidecar.exists():
            record = json.loads(sidecar.read_text(encoding="utf-8"))
        sample = {"exit": proc.returncode, "trace": trace,
                  "wall_s": end - start,
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0,
                  "import_s": record.get("import_s"), "record": record}
        if "body_start" in record:
            sample["setup_s"] = record["body_start"] - start
            sample["body_s"] = sample["wall_s"] - sample["setup_s"]
        return sample

    def stderr_tail(self) -> str:
        lines = (self.workdir / "stderr.txt").read_text().splitlines()
        return "\n".join(lines[-5:])


def trace_counts(record: dict) -> dict[str, int]:
    """Calls per layer plus the counters of one traced process."""
    counts = {name: row["calls"] for name, row in summarize(record).items()}
    counts.update(record["counts"])
    return counts


def prepare(workload, seed: int, workdir: Path) -> tuple[list[str], Path]:
    """Write the seeded scenario to ``workdir``; return the CLI arguments
    and the path the output will be written to."""
    text, flags = make_inputs(workload, seed)
    scenario = workdir / "scenario.cfg"
    scenario.write_text(text, encoding="utf-8")
    out = workdir / "out.csv"
    return [workload.command, str(scenario), *flags, "--out", str(out)], out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Launch processes for ``seconds``; return the checked samples."""
    workload = WORKLOADS[name]
    reference = None
    if seed == DEFAULT_SEED:
        reference = reference_path(workload).read_text(encoding="utf-8")

    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=CHECKOUT) as tmp:
        workdir = Path(tmp)
        cli_args, out = prepare(workload, seed, workdir)
        launcher = Launcher(workdir)
        launcher.warm_up()

        samples, first_counts = [], None
        start = now()
        cal_before = None if trace else launcher.calibrate()
        while True:
            traced = trace and len(samples) % 2 == 1
            out.unlink(missing_ok=True)
            sample = launcher.launch(cli_args, traced)
            sample["cal_s"] = None
            if not trace:
                cal_after = launcher.calibrate()
                sample["cal_s"] = 0.5 * (cal_before + cal_after)
                cal_before = cal_after
            problems = []
            if sample["exit"] != 0:
                problems.append(f"exit code {sample['exit']}: "
                                f"{launcher.stderr_tail()}")
            elif "body_start" not in sample["record"] or not out.exists():
                problems.append("no timing record or no output written")
            else:
                problems += check_output(workload, out.read_text(), reference)
            if traced and not problems:
                if sample["record"]["trace"]["missing"]:
                    print("perfbench: lookup sites not found: "
                          + ", ".join(sample["record"]["trace"]["missing"]),
                          file=sys.stderr)
                counts = trace_counts(sample["record"]["trace"])
                first_counts = first_counts or counts
                if counts != first_counts:
                    problems.append("trace counts differ between processes")
            sample["problems"] = problems
            samples.append(sample)
            if problems:
                print(f"perfbench: {name} process {len(samples)} failed: "
                      + "; ".join(problems), file=sys.stderr)

            elapsed = now() - start
            estimate = max(s["wall_s"] + (s["cal_s"] or 0.0) for s in samples)
            enough = len(samples) >= (2 if trace else MIN_PROCESSES)
            if enough and elapsed + estimate > seconds:
                break
    return {"workload": workload, "samples": samples,
            "versions": launcher.versions}


def end_to_end(result: dict, calibrated: bool = True) -> dict[str, float]:
    """Median end-to-end metrics; times in reference seconds when
    ``calibrated``, else as measured."""
    good = [s for s in result["samples"] if not s["problems"]] \
        or [s for s in result["samples"] if "body_s" in s]
    if not good:
        return {}
    values = result["workload"].values_emitted
    rows = [(s, REFERENCE_CAL_S / s["cal_s"] if calibrated else 1.0)
            for s in good]
    return {
        "wall_s": median(s["wall_s"] * k for s, k in rows),
        "setup_s": median(s["setup_s"] * k for s, k in rows),
        "points_per_s": median(values / (s["body_s"] * k) for s, k in rows),
        "cpu_s": median(s["cpu_s"] * k for s, k in rows),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in good),
    }


# Per-layer metric name -> unit, in report order.
PER_LAYER = {"setup.import_s": "s"}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = "count"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update({"gratings.transmission.unique_frac": "1",
                  "gratings.fft_points": "count",
                  "csl.bisection_steps": "count",
                  f"{ROOT}.self_s": "s",
                  "trace.overhead_s": "s"})


def per_layer(result: dict) -> dict[str, float]:
    samples = [s for s in result["samples"] if not s["problems"]]
    traced = [s for s in samples if s["trace"]]
    plain = [s for s in samples if not s["trace"]]
    if not traced or not plain:
        return {}
    summaries = [summarize(s["record"]["trace"]) for s in traced]
    counts = traced[0]["record"]["trace"]["counts"]
    metrics = {"setup.import_s": median(s["import_s"] for s in samples)}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = summaries[0][layer]["calls"]
        metrics[f"{layer}.self_s"] = median(t[layer]["self_s"]
                                             for t in summaries)
    calls = summaries[0]["gratings.transmission"]["calls"]
    metrics["gratings.transmission.unique_frac"] = (
        counts["gratings.transmission.distinct"] / calls if calls else 0.0)
    metrics["gratings.fft_points"] = counts["gratings.fft_points"]
    metrics["csl.bisection_steps"] = counts["csl.bisection_steps"]
    metrics[f"{ROOT}.self_s"] = median(t[ROOT]["self_s"] for t in summaries)
    metrics["trace.overhead_s"] = (median(s["body_s"] for s in traced)
                                   - median(s["body_s"] for s in plain))
    return metrics


def environment(versions: dict[str, str]) -> dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (CHECKOUT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), **versions,
            "commit": commit}


def _print_metrics(prefix: str, metrics: dict, units: dict, note: str):
    for key, value in metrics.items():
        print(f"{prefix}{key:<36} {value:>16.6g} {units[key]:<6} {note}")


def report(results: list[dict], trace: bool, seed: int) -> dict:
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    print(f"env: {json.dumps(environment(results[-1]['versions']))}")
    for result in results:
        name = result["workload"].name
        n = len(result["samples"])
        bad = sum(bool(s["problems"]) for s in result["samples"])
        attempted, failed = attempted + n, failed + bad
        prefix = f"{name}." if len(results) > 1 else ""
        print(f"# {name}: seed {seed}, {n} processes, {bad} failed")
        if trace:
            values, units = per_layer(result), PER_LAYER
            traced = sum(s["trace"] for s in result["samples"])
            note = f"{traced} traced, {n - traced} untraced"
        else:
            values, units = end_to_end(result), END_TO_END
            note = f"median of {n}, calibrated"
            raw = end_to_end(result, calibrated=False)
            cal = median(s["cal_s"] for s in result["samples"])
            _print_metrics(f"{prefix}raw.", raw, units, f"median of {n}")
            _print_metrics(prefix, {"cal_s": cal}, {"cal_s": "s"},
                           f"median of {n}, calibration around each")
            _print_metrics(prefix, {"fail_ratio": bad / n},
                           {"fail_ratio": "1"}, f"{bad} of {n}")
        _print_metrics(prefix, values, units, note)
        for key, value in values.items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        sys.exit(f"perfbench: no nearwave package under {PACKAGE}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    print(json.dumps(report(results, bool(args.trace), args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
