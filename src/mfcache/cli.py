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

Exit codes: 0 success, 2 validation failure, 3 solver non-convergence,
4 I/O failure, 5 every replication of an experiment point hit the backhaul
barrier (``BarrierExclusionError``). Every run writes ``manifest.txt``
beside its CSVs.

Each command solves every distinct equilibrium once: solves with identical
solver inputs share one result (see ``experiments.one_solve_per_input``).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace

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
from .io import write_csv, write_manifest, write_residuals_csv, write_solution_csv
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
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="base seed override")
        cmd.add_argument("--replications", type=int, default=None,
                         help="replication-count override")
        cmd.add_argument("--grid-nx", type=int, default=None)
        cmd.add_argument("--grid-nq", type=int, default=None)
        cmd.add_argument("--grid-nt", type=int, default=None)
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress progress logging")
        if name == "solve":
            cmd.add_argument("--sweep-density", action="store_true",
                             help="also sweep the station densities and "
                                  "export iteration counts")
    return parser


def _load(args) -> ScenarioConfig:
    if args.scenario:
        try:
            scenario = load_scenario(args.scenario)
        except FileNotFoundError as exc:
            raise ConfigurationError(f"scenario file not found: {args.scenario}") from exc
    else:
        scenario = ScenarioConfig()
    if args.seed is not None:
        scenario = replace(scenario,
                           simulation=replace(scenario.simulation, seed=args.seed))
    if args.replications is not None:
        scenario = replace(scenario, simulation=replace(
            scenario.simulation, replications=args.replications))
    solver = scenario.solver
    for attr, value in (("grid_nx", args.grid_nx), ("grid_nq", args.grid_nq),
                        ("grid_nt", args.grid_nt)):
        if value is not None:
            solver = replace(solver, **{attr: value})
    if solver is not scenario.solver:
        scenario = replace(scenario, solver=solver)
    return scenario


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
    g = solution.grid
    marginal = solution.m.values.sum(axis=1) * g.dx
    write_csv(os.path.join(out, f"density_marginal_{stem}.csv"),
              ("t", "Q", "m"),
              ((g.t[i], g.q[j], marginal[i, j])
               for i in range(g.t.size) for j in range(g.q.size)))
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
        level=logging.ERROR if args.quiet else logging.INFO,
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
