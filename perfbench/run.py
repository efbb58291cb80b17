"""mfcache benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload solve-export --seed 1 --seconds 35 --trace 0

Run from the repository root. The benchmark writes the workload's scenario
INI from the seed, then starts the command line (``mfcache.cli.main``) again
and again, each time in a fresh interpreter and one at a time, with
BLAS/OpenMP threads pinned to 1, until ``--seconds`` are spent. It checks
every run's outputs, compares the CSV digests with every earlier run of the
same source and seed, and prints each metric with its unit; the last line of
standard output is the JSON result.

``--trace 0`` reports the end-to-end metrics: the medians of the command's
wall time and set-up time, each scaled to a reference host speed, and of its
peak memory. ``--trace 1`` alternates
untraced runs with runs whose layers are wrapped by ``tracer.py`` and
reports the medians of the per-layer metrics, with the tracing overhead.

Working files go under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gate  # noqa: E402
from workloads import WORKLOADS, operations, render_ini, scenario_values  # noqa: E402

# The host's speed changes by up to 1.7x in phases of seconds to minutes
# (other tenants of the machine, clock frequency), which moves
# the median of a whole run by more than any useful bound. Each command's
# times are therefore scaled to a reference speed: the speed at which
# ``child.calibrate`` takes CALIBRATION_REF_S. The raw times are printed too.
CALIBRATION_REF_S = 0.025

MIN_UNTRACED_RUNS = 5
MIN_TRACED_RUNS = 2
# No command starts unless it is expected to end by RUN_LIMIT_S; one still
# running at KILL_S is stopped. A benchmark run must end within 180 s.
RUN_LIMIT_S = 150.0
KILL_S = 170.0

# Per-layer metrics and units. Counts and ratios must repeat exactly.
COUNT = "count"
LAYER_UNITS = {
    "experiments.solves": COUNT, "experiments.solve_s": "s",
    "experiments.solve_unique_ratio": "ratio", "experiments.solve_share": "ratio",
    "solver.sweeps": COUNT, "solver.sweeps_per_solve": "ratio",
    "solver.hjb_levels": COUNT, "solver.hjb_s": "s", "solver.hjb_level_us": "us",
    "solver.fpk_levels": COUNT, "solver.fpk_s": "s", "solver.fpk_level_us": "us",
    "solver.fixed_point_self_s": "s", "solver.optimal_control_calls": COUNT,
    "solver.banded_solves": COUNT, "solver.final_residual": "1",
    "costs.mf_overlap_calls": COUNT, "costs.mf_overlap_s": "s",
    "costs.backhaul_cost_calls": COUNT,
    "simulation.runs": COUNT, "simulation.run_s": "s", "simulation.steps": COUNT,
    "simulation.step_us": "us", "simulation.station_steps": COUNT,
    "simulation.station_step_ns": "ns", "simulation.build_world_s": "s",
    "simulation.excluded": COUNT,
    "policies.mf_calls": COUNT, "policies.mf_us": "us",
    "policies.baseline_us": "us", "policies.random_us": "us",
    "demand.refreshes": COUNT, "demand.arrivals": COUNT, "demand.crp_s": "s",
    "demand.crp_ns_per_arrival": "ns", "demand.refresh_unique_ratio": "ratio",
    "demand.ou_s": "s", "demand.perturb_s": "s",
    "geometry.calls": COUNT, "geometry.s": "s",
    "io.write_s": "s", "io.bytes": "B", "io.rows": COUNT, "io.mb_per_s": "MB/s",
    "scenario.load_s": "s",
    "cli.self_s": "s", "experiments.self_s": "s", "solver.self_s": "s",
    "costs.self_s": "s", "simulation.self_s": "s", "policies.self_s": "s",
    "demand.self_s": "s", "geometry.self_s": "s", "io.self_s": "s",
    "scenario.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.spans": COUNT,
}
EXACT = [name for name, unit in LAYER_UNITS.items() if unit in (COUNT, "ratio", "B")
         and name not in ("experiments.solve_share",)] + ["solver.final_residual"]

# Counters that must be non-zero on the workload that exists to exercise them;
# a zero means a wrapper missed the name the program actually calls.
HOME_COUNTERS = {
    "solve-export": ("solver.sweeps", "solver.banded_solves", "io.bytes"),
    "compare-sim": ("simulation.station_steps", "policies.mf_calls"),
    "ipi-demand": ("demand.arrivals", "demand.refreshes"),
}


def source_digest() -> str:
    """sha256 over the program's source files, standing in for a revision."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_revision() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def machine() -> dict[str, object]:
    from importlib.metadata import version
    return {
        "machine": platform.machine(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "git_revision": git_revision(),
    }


def run_command(workdir: str, workload, index: int, traced: bool, run_id: str,
                deadline: float) -> dict:
    """Run the workload's command once in a fresh child process and collect
    its timings; a child still running at ``deadline`` is killed."""
    rep_dir = os.path.join(workdir, f"rep{index}")
    out_dir = os.path.join(rep_dir, "out")
    os.makedirs(out_dir)
    result_path = os.path.join(rep_dir, "result.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), result_path,
            rep_dir if traced else "-", run_id, "--",
            workload.command, "--scenario", os.path.join(workdir, "scenario.ini"),
            "--out", out_dir, *workload.flags]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    with open(os.path.join(rep_dir, "stdout.txt"), "wb") as out, \
            open(os.path.join(rep_dir, "stderr.txt"), "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, cwd=rep_dir, env=env, stdout=out, stderr=err)
        try:
            status = proc.wait(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            status = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    elapsed = time.monotonic() - spawned
    with open(os.path.join(rep_dir, "stderr.txt"), encoding="utf-8",
              errors="replace") as fh:
        stderr = fh.read()
    result = {"dir": rep_dir, "out": out_dir, "elapsed": elapsed,
              "traced": traced, "status": status, "stderr": stderr}
    if status == 0 and os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result.update(json.load(fh))
        result["setup_s"] = result["setup_end"] - spawned
        before, after = result["calibration_s"]
        result["ref_wall_s"] = (result["wall_s"] * CALIBRATION_REF_S
                                / ((before + after) / 2.0))
        result["ref_setup_s"] = result["setup_s"] * CALIBRATION_REF_S / before
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values) -> str:
    if len(values) < 2:
        return "n/a"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"min {min(values):.4f} q1 {q1:.4f} median {q2:.4f} q3 {q3:.4f} "
            f"n {len(values)}")


def measure(args, workload, values, workdir: str, started: float):
    """Run the command until the time is spent; check every run's outputs.

    Returns the runs, the problems found, the operations attempted and
    failed, and the CSV digests of the first run.
    """
    ops = operations(workload.name, values)
    runs: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    reference = None
    while True:
        elapsed = time.monotonic() - started
        done = sum(1 for r in runs if r["traced"] == bool(args.trace))
        enough = done >= (MIN_TRACED_RUNS if args.trace else MIN_UNTRACED_RUNS)
        last = runs[-1]["elapsed"] if runs else 0.0
        if enough and elapsed + last > args.seconds:
            break
        if runs and elapsed + last > RUN_LIMIT_S:
            problems.append("time limit reached before the minimum number of runs")
            break
        index = len(runs)
        traced = bool(args.trace) and index % 2 == 1
        run = run_command(workdir, workload, index, traced,
                          f"{workload.name}/seed{args.seed}/run{index}",
                          started + KILL_S)
        runs.append(run)
        attempted += ops
        if run.get("exit") != 0:
            failed += ops
            problems.append(f"run {index}: child status {run['status']}, "
                            f"command exit {run.get('exit')}: "
                            f"{run['stderr'][-400:]}")
            break
        # Replications excluded from the aggregates for hitting the barrier.
        failed += run["stderr"].count("hit the barrier")
        digest = gate.digests(run["out"])
        if reference is None:
            reference = digest
            errors = gate.check(workload.command, run["out"], values)
            failed += len(errors)
            problems.extend(errors)
        else:
            if digest != reference:
                failed += 1
                problems.append(f"run {index}: CSV digests differ from run 0")
            shutil.rmtree(run["out"])
    return runs, problems, attempted, failed, reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "mfcache", "cli.py")):
        print(f"error: no mfcache sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2

    started = time.monotonic()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    values = scenario_values(workload.name, args.seed)
    ini_text = render_ini(values)
    bench_out = os.path.join(ROOT, ".bench_out")
    workdir = os.path.join(bench_out, workload.name, f"seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with open(os.path.join(workdir, "scenario.ini"), "w", encoding="utf-8") as fh:
        fh.write(ini_text)

    runs, problems, attempted, failed, digest = measure(args, workload, values,
                                                        workdir, started)
    untraced = [r for r in runs if not r["traced"] and "wall_s" in r]
    traced = [r for r in runs if r["traced"] and "layers" in r]
    walls = [r["wall_s"] for r in untraced]
    setups = [r["setup_s"] for r in untraced]
    ref_walls = [r["ref_wall_s"] for r in untraced]
    ref_setups = [r["ref_setup_s"] for r in untraced]
    if args.trace:
        layer_problems: list[str] = []
        layers = layer_metrics(workload.name, values, traced, walls, layer_problems)
        failed += len(layer_problems)
        problems.extend(layer_problems)
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        counts = {name: layers.get(name, 0) for name in EXACT}
    else:
        metrics = {
            "wall_s": {"value": median(ref_walls), "unit": "s"},
            "setup_s": {"value": median(ref_setups), "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in untraced]),
                            "unit": "MB"},
        }
        counts = {}
    record = check_record(bench_out, workload.name, args.seed, ini_text, digest,
                          counts, problems)
    failed += record == "mismatch"
    correct = bool(untraced) and not problems and failed == 0

    info = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "untraced_runs": len(untraced), "traced_runs": len(traced),
        "operations_per_run": operations(workload.name, values),
        "failed_frac": failed / max(attempted, 1),
        "wall_s": quartiles(ref_walls), "setup_s": quartiles(ref_setups),
        "raw_wall_s": quartiles(walls), "raw_setup_s": quartiles(setups),
        "calibration_s": quartiles([sum(r["calibration_s"]) / 2 for r in untraced]),
        "traced_wall_s": quartiles([r["wall_s"] for r in traced]),
        "determinism_record": record,
        "reference_digests": compare_reference(workload.name, args.seed, digest),
        "source_sha256": source_digest(), **machine(), "csv_sha256": digest,
    }
    os.makedirs(os.path.join(bench_out, "results"), exist_ok=True)
    with open(os.path.join(bench_out, "results",
                           f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"info": info, "metrics": metrics, "problems": problems,
                   "samples": {"wall_s": walls, "setup_s": setups,
                               "calibration_s": [r["calibration_s"] for r in untraced],
                               "traced_wall_s": [r["wall_s"] for r in traced]}},
                  fh, indent=1)

    for key, value in info.items():
        if key != "csv_sha256":
            print(f"# {key}: {value}")
    for problem in problems:
        print(f"# problem: {problem}")
    print(f"failed_frac {info['failed_frac']!r} ratio")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": min(failed, max(attempted, 1)), "metrics": metrics}))
    return 0


def layer_metrics(workload: str, values, traced, untraced_walls, problems):
    """Medians of the traced runs' layer metrics. Exact counts must agree
    between runs, and each workload's home counters must be non-zero."""
    if not traced:
        problems.append("no traced run completed")
        return {}
    layers = {}
    for name in LAYER_UNITS:
        samples = [r["layers"].get(name, 0) for r in traced]
        if name in EXACT:
            if len(set(samples)) > 1:
                problems.append(f"{name} differs between traced runs: {samples}")
            layers[name] = samples[0]
        else:
            layers[name] = median(samples)
    layers["trace.overhead_s"] = layers["trace.wall_s"] - median(untraced_walls)
    for name in HOME_COUNTERS[workload]:
        if not layers[name]:
            problems.append(f"home counter {name} is zero on {workload}: a wrapper "
                            "missed the name the program calls")
    if not layers["solver.final_residual"] < values["solver"]["tolerance"]:
        problems.append("a solve ended above the solver tolerance")
    return layers


def check_record(bench_out, workload, seed, ini, digest, counts, problems) -> str:
    """Compare this run's CSV digests and exact counts with the first run of
    the same source and scenario in this checkout; record them when first
    seen."""
    if digest is None:
        return "none"
    key = hashlib.sha256((source_digest() + ini).encode()).hexdigest()[:16]
    path = os.path.join(bench_out, "records", f"{workload}-seed{seed}-{key}.json")
    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {}
    status = "match" if record else "new"
    if record and record["csv_sha256"] != digest:
        problems.append("CSV digests differ from an earlier run of this source "
                        "and seed")
        status = "mismatch"
    old_counts = record.get("counts", {})
    changed = [k for k in counts if k in old_counts and old_counts[k] != counts[k]]
    if changed:
        problems.append(f"exact counts differ from an earlier run: {changed}")
        status = "mismatch"
    if status != "mismatch":
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"csv_sha256": digest, "counts": {**old_counts, **counts}},
                      fh, indent=1, sort_keys=True)
    return status


def compare_reference(workload, seed, digest) -> str:
    """Whether the digests equal the committed reference for this seed."""
    with open(os.path.join(HERE, "reference_digests.json"), encoding="utf-8") as fh:
        expected = json.load(fh)["digests"].get(workload, {}).get(str(seed))
    if expected is None or digest is None:
        return "no reference for this seed"
    return "same" if expected == digest else "different"


if __name__ == "__main__":
    sys.exit(main())
