"""Command-line front end.

Subcommands:
  solve     the equilibrium every content shares; writes the solution
            fields, residual histories, the mean-station control trajectory,
            and the storage-marginal density table
  compare   three-policy cost comparison under common random numbers, with
            the user-density and initial-popularity sweeps
  ipi       paired perfect/imperfect popularity-information study across
            station densities
  validate  parse and validate a scenario file

Every subcommand reads one scenario file (``--scenario``, or the defaults
without it); the seed, the replication count and the solver grid are its
keys ``simulation.seed``, ``simulation.replications`` and
``solver.grid_*``, not flags. ``validate`` writes no files, so it takes no
``--out``.

Common random numbers: each replication builds and steps one world, and
every policy (and, in ``ipi``, both information arms of each) advances its
own storage on it in lockstep, so all of them see the same station layout,
popularity path and request counts (see ``simulation.run_replication``).

Logging goes to stderr at INFO; ``--quiet`` keeps only the error log
lines and ``-v/--verbose`` adds DEBUG lines such as each solver sweep's
residual. Python warnings (such as the ``UserWarning`` of
``geometry.normalized_interference`` when users outnumber stations) are not
log records: they reach stderr under ``--quiet`` too.

Exit codes: 0 success, 2 validation failure, 3 solver non-convergence,
4 I/O failure, 5 every replication of an experiment point hit the backhaul
barrier (``BarrierExclusionError``). Every run writes ``manifest.txt``
beside its CSVs.

Each command solves every distinct equilibrium once, in the command (see
``experiments.one_solve_per_input``): a sweep solves all of its points
before a helper forks to run replications, so its solver lines come
before any replication's, and an unconverged point exits 3 before any
replication runs.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

from .errors import (
    BarrierExclusionError,
    ConfigurationError,
    PolicyError,
    SolverError,
)
from .experiments import (
    compare_experiment,
    control_trajectory,
    ipi_sweep_experiment,
    iteration_sweep,
    one_solve_per_input,
    solve_all_contents,
)
from .io import (
    write_csv,
    write_manifest,
    write_marginal_csv,
    write_residuals_csv,
    write_solution_csv,
)
from .scenario import ScenarioConfig, load_scenario, scenario_hash, serialize_scenario

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_IO = 4
EXIT_ALL_EXCLUDED = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfcache",
        description="Mean-field edge-caching experiments: equilibrium solves "
                    "and policy comparisons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "solve the equilibrium every content shares and export the fields"),
        ("compare", "compare the equilibrium, baseline, and random policies"),
        ("ipi", "measure cost increments under imperfect popularity information"),
        ("validate", "validate a scenario file"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--scenario", help="scenario file (omit for defaults)")
        if name != "validate":
            cmd.add_argument("--out", default=None, help="output directory")
        noise = cmd.add_mutually_exclusive_group()
        noise.add_argument("--quiet", action="store_true",
                           help="suppress progress logging")
        noise.add_argument("-v", "--verbose", action="store_true",
                           help="also log each solver sweep's residual")
        if name == "solve":
            cmd.add_argument("--sweep-density", action="store_true",
                             help="also sweep the station densities and "
                                  "export iteration counts")
    return parser


def _load(args) -> ScenarioConfig:
    return load_scenario(args.scenario) if args.scenario else ScenarioConfig()


def _out_dir(args, scenario: ScenarioConfig) -> str:
    out = args.out or scenario.outputs.directory
    os.makedirs(out, exist_ok=True)
    return out


def cmd_solve(args) -> int:
    scenario = _load(args)
    out = _out_dir(args, scenario)
    started = time.perf_counter()
    # Every content shares one solve, exported as content 0.
    solution = solve_all_contents(scenario)
    stem = "content_000"
    manifest_extra: dict[str, object] = {
        "grid": "x".join(str(n) for n in (scenario.solver.grid_nt,
                                          scenario.solver.grid_nx,
                                          scenario.solver.grid_nq)),
        "tolerance": scenario.solver.config.tolerance,
        f"final_residual[{stem}]": format(solution.residual_history[-1], ".6e"),
        f"converged[{stem}]": solution.converged,
    }
    write_solution_csv(solution, os.path.join(out, f"solution_{stem}.csv"))
    write_residuals_csv(solution, os.path.join(out, f"residuals_{stem}.csv"))
    # Mean-station control trajectory and storage-marginal density table.
    rows = control_trajectory(solution, scenario, scenario.demand.x0)
    write_csv(os.path.join(out, f"control_trajectory_{stem}.csv"),
              ("t", "Q", "p"), rows)
    write_marginal_csv(solution.grid,
                       solution.m.sum(axis=1) * solution.grid.dx,
                       os.path.join(out, f"density_marginal_{stem}.csv"))
    write_csv(os.path.join(out, "content_solutions.csv"),
              ("content", "solution_content"),
              ((content, 0) for content in range(scenario.demand.catalog_size)))
    if args.sweep_density:
        write_csv(os.path.join(out, "iterations_vs_density.csv"),
                  ("lambda_b", "iterations", "converged", "final_residual"),
                  iteration_sweep(scenario))
    write_manifest(os.path.join(out, "manifest.txt"), scenario_hash(scenario),
                   scenario.simulation.seed, {stem: solution.iterations},
                   time.perf_counter() - started, extra=manifest_extra)
    if not solution.converged:
        log.error("the equilibrium solve did not converge")
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = _load(args)
    out = _out_dir(args, scenario)
    started = time.perf_counter()
    results = compare_experiment(scenario)
    write_csv(os.path.join(out, "lra_trajectories.csv"),
              ("lambda_u", "policy", "t", "cumulative_cost"),
              results["trajectories"])
    write_csv(os.path.join(out, "summary.csv"),
              ("lambda_u", "policy", "lra", "reduction_vs_baseline"),
              results["summary"])
    write_csv(os.path.join(out, "overlap_vs_x0.csv"),
              ("x0", "policy", "overlap_per_storage"), results["overlap"])
    write_manifest(os.path.join(out, "manifest.txt"), scenario_hash(scenario),
                   scenario.simulation.seed, {},
                   time.perf_counter() - started,
                   extra={"replications": scenario.simulation.replications})
    return EXIT_OK


def cmd_ipi(args) -> int:
    scenario = _load(args)
    out = _out_dir(args, scenario)
    started = time.perf_counter()
    rows = ipi_sweep_experiment(scenario)
    write_csv(os.path.join(out, "ipi_increments.csv"),
              ("lambda_b", "policy", "lra_ppi", "lra_ipi", "increment"), rows)
    write_manifest(os.path.join(out, "manifest.txt"), scenario_hash(scenario),
                   scenario.simulation.seed, {},
                   time.perf_counter() - started,
                   extra={"replications": scenario.simulation.replications})
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = _load(args)
    sys.stdout.write(serialize_scenario(scenario))
    log.info("scenario valid (hash %s)", scenario_hash(scenario))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=(logging.DEBUG if args.verbose else
               logging.ERROR if args.quiet else logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    handler = {"solve": cmd_solve, "compare": cmd_compare,
               "ipi": cmd_ipi, "validate": cmd_validate}[args.command]
    try:
        with one_solve_per_input():
            return handler(args)
    except ConfigurationError as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION
    except (SolverError, PolicyError) as exc:
        log.error("%s", exc)
        return EXIT_NO_CONVERGENCE
    except BarrierExclusionError as exc:
        log.error("%s", exc)
        return EXIT_ALL_EXCLUDED
    except OSError as exc:
        log.error("i/o failure: %s", exc)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
