"""In-memory span tracer for one benchmark child process.

The tracer wraps the public functions of each ``mfcache`` layer from the
outside, so the program itself carries no tracing code. Modules bind their
collaborators with ``from ... import``, so a function is replaced under every
name that refers to it in any loaded ``mfcache`` module, not only in the
module that defines it: ``mfcache.solver.mf_overlap``,
``mfcache.simulation.simulate_requests``, ``mfcache.cli.compare_experiment``
and so on. Methods are replaced on their class.

Each call records a span ``(name, start, end, parent)``; spans and counters
stay in memory and are written once, when the child exits. Layer metrics are
derived from the spans after the command has finished.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute). "Class.method" names patch the class attribute.
TARGETS = (
    ("cli", "mfcache.cli", "cmd_solve"),
    ("cli", "mfcache.cli", "cmd_compare"),
    ("cli", "mfcache.cli", "cmd_ipi"),
    ("experiments", "mfcache.experiments", "solve_scenario"),
    ("experiments", "mfcache.experiments", "solve_all_contents"),
    ("experiments", "mfcache.experiments", "control_trajectory"),
    ("experiments", "mfcache.experiments", "compare_experiment"),
    ("experiments", "mfcache.experiments", "ipi_sweep_experiment"),
    ("experiments", "mfcache.experiments", "iteration_sweep"),
    ("experiments", "mfcache.experiments", "grid_from_scenario"),
    ("experiments", "mfcache.experiments", "problem_from_scenario"),
    ("solver", "mfcache.solver", "solve_mfe"),
    ("solver", "mfcache.solver", "hjb_backward"),
    ("solver", "mfcache.solver", "fpk_forward"),
    ("solver", "mfcache.solver", "optimal_control"),
    ("solver", "mfcache.solver", "solve_banded"),
    ("solver", "mfcache.solver", "gaussian_initial_density"),
    ("costs", "mfcache.costs", "mf_overlap"),
    ("costs", "mfcache.costs", "backhaul_cost"),
    ("costs", "mfcache.costs", "storage_cost"),
    ("costs", "mfcache.costs", "lra_cost"),
    ("simulation", "mfcache.simulation", "run_scenario"),
    ("simulation", "mfcache.simulation", "ipi_experiment"),
    ("simulation", "mfcache.simulation", "build_world"),
    ("simulation", "mfcache.simulation", "step"),
    ("policies", "mfcache.policies", "MfPolicy.__call__"),
    ("policies", "mfcache.policies", "BaselinePolicy.__call__"),
    ("policies", "mfcache.policies", "RandomPolicy.__call__"),
    ("demand", "mfcache.demand", "simulate_requests"),
    ("demand", "mfcache.demand", "refresh_period"),
    ("demand", "mfcache.demand", "crp_request_distribution"),
    ("demand", "mfcache.demand", "ou_step_array"),
    ("demand", "mfcache.demand", "perturb_popularity"),
    ("geometry", "mfcache.geometry", "sample_ppp"),
    ("geometry", "mfcache.geometry", "average_rate"),
    ("geometry", "mfcache.geometry", "rate_model_from_config"),
    ("geometry", "mfcache.geometry", "request_region_count"),
    ("geometry", "mfcache.geometry", "normalized_interference"),
    ("geometry", "mfcache.geometry", "nearest_sbs_distance"),
    ("geometry", "mfcache.geometry", "path_loss"),
    ("io", "mfcache.io", "write_csv"),
    ("io", "mfcache.io", "write_solution_csv"),
    ("io", "mfcache.io", "write_residuals_csv"),
    ("io", "mfcache.io", "write_manifest"),
    ("scenario", "mfcache.scenario", "load_scenario"),
    ("scenario", "mfcache.scenario", "serialize_scenario"),
    ("scenario", "mfcache.scenario", "scenario_hash"),
)

LAYERS = ("cli", "experiments", "solver", "costs", "simulation", "policies",
          "demand", "geometry", "io", "scenario")

ROOT = "cli.main"


class Tracer:
    """Span stack, span list and counters of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple | None] = []   # (name, start, end, parent)
        self._stack: list[int] = []
        self.layer_of: dict[str, str] = {ROOT: "cli"}
        self.counters: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.maxima: dict[str, float] = {}

    def call(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, layer: str, fn, before=None, after=None):
        """Replacement for ``fn`` that records a span per call. ``before``
        and ``after`` hooks update counters outside the span's interval."""
        self.layer_of[name] = layer

        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "layer", "start", "end", "parent", "run_id"))
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.writerow((i, name, self.layer_of[name], repr(start),
                              repr(end), parent, self.run_id))


def _resolve(module_name: str, attr: str):
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


def _hooks(scenario_hash):
    """Counter hooks keyed by span name; they run outside the span.
    ``scenario_hash`` is the unwrapped function, so keying a solve records
    no span."""

    def solve_key(tr, args, kwargs):
        scenario = args[0] if args else kwargs["scenario"]
        x0 = args[1] if len(args) > 1 else kwargs.get("x0")
        tr.keys["experiments.solve"].add((scenario_hash(scenario), x0))

    def solve_done(tr, args, kwargs, solution):
        tr.counters["solver.sweeps"] += solution.iterations
        last = solution.residual_history[-1]
        tr.maxima["solver.final_residual"] = max(
            tr.maxima.get("solver.final_residual", 0.0), last)

    def hjb_levels(tr, args, kwargs, result):
        grid = args[2] if len(args) > 2 else kwargs["grid"]
        tr.counters["solver.hjb_levels"] += grid.shape[0]

    def fpk_levels(tr, args, kwargs, result):
        grid = args[3] if len(args) > 3 else kwargs["grid"]
        tr.counters["solver.fpk_levels"] += grid.shape[0] - 1

    def step_stations(tr, args, kwargs):
        tr.counters["simulation.station_steps"] += len(args[0])

    def run_done(tr, args, kwargs, metrics):
        tr.counters["simulation.excluded"] += int(metrics.excluded)

    def crp_key(tr, args, kwargs):
        state, n_requests, rng = args
        tr.counters["demand.arrivals"] += int(n_requests)
        tr.keys["demand.refresh"].add((state.counts.tobytes(), int(n_requests),
                                       repr(rng.bit_generator.state)))

    def csv_written(tr, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        with open(path, "rb") as fh:
            data = fh.read()
        tr.counters["io.bytes"] += len(data)
        tr.counters["io.rows"] += data.count(b"\n") - 1

    return {
        "experiments.solve_scenario": (solve_key, None),
        "solver.solve_mfe": (None, solve_done),
        "solver.hjb_backward": (None, hjb_levels),
        "solver.fpk_forward": (None, fpk_levels),
        "simulation.step": (step_stations, None),
        "simulation.run_scenario": (None, run_done),
        "demand.simulate_requests": (crp_key, None),
        "io.write_csv": (None, csv_written),
    }


def install(tracer: Tracer) -> None:
    """Replace every target under all names that bind it in ``mfcache``."""
    modules = [m for n, m in sys.modules.items()
               if n == "mfcache" or n.startswith("mfcache.")]
    hooks = _hooks(sys.modules["mfcache.scenario"].scenario_hash)
    for layer, module_name, attr in TARGETS:
        owner, name = _resolve(module_name, attr)
        fn = getattr(owner, name)
        span_name = f"{layer}.{attr.replace('.__call__', '')}"
        before, after = hooks.get(span_name, (None, None))
        traced = tracer.wrap(span_name, layer, fn, before, after)
        if isinstance(owner, type):
            setattr(owner, name, traced)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, traced)


def _self_times(spans):
    """Self time of every span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _) in enumerate(spans)]


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of one traced command."""
    spans = tracer.spans
    self_t = _self_times(spans)
    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for (name, start, end, parent), st in zip(spans, self_t):
        calls[name] += 1
        total[name] += end - start
        own[name] += st
        layer_self[tracer.layer_of[name]] += st
    # Inclusive time of a layer's outermost calls (parent in another layer).
    outer: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        layer = tracer.layer_of[name]
        if parent < 0 or tracer.layer_of[spans[parent][0]] != layer:
            outer[layer] += end - start
    c = tracer.counters

    def per(numer, denom, scale=1.0):
        return numer / denom * scale if denom else 0.0

    wall = total[ROOT]
    solves = calls["experiments.solve_scenario"]
    mfe = calls["solver.solve_mfe"]
    refreshes = calls["demand.simulate_requests"]
    out = {
        "experiments.solves": solves,
        "experiments.solve_s": per(total["experiments.solve_scenario"], solves),
        "experiments.solve_unique_ratio": per(len(tracer.keys["experiments.solve"]),
                                              solves),
        "experiments.solve_share": per(total["experiments.solve_scenario"], wall),
        "solver.sweeps": c["solver.sweeps"],
        "solver.sweeps_per_solve": per(c["solver.sweeps"], mfe),
        "solver.hjb_levels": c["solver.hjb_levels"],
        "solver.hjb_s": total["solver.hjb_backward"],
        "solver.hjb_level_us": per(total["solver.hjb_backward"],
                                   c["solver.hjb_levels"], 1e6),
        "solver.fpk_levels": c["solver.fpk_levels"],
        "solver.fpk_s": total["solver.fpk_forward"],
        "solver.fpk_level_us": per(total["solver.fpk_forward"],
                                   c["solver.fpk_levels"], 1e6),
        "solver.fixed_point_self_s": own["solver.solve_mfe"],
        "solver.optimal_control_calls": calls["solver.optimal_control"],
        "solver.banded_solves": calls["solver.solve_banded"],
        "solver.final_residual": tracer.maxima.get("solver.final_residual", 0.0),
        "costs.mf_overlap_calls": calls["costs.mf_overlap"],
        "costs.mf_overlap_s": total["costs.mf_overlap"],
        "costs.backhaul_cost_calls": calls["costs.backhaul_cost"],
        "simulation.runs": calls["simulation.run_scenario"],
        "simulation.run_s": total["simulation.run_scenario"],
        "simulation.steps": calls["simulation.step"],
        "simulation.step_us": per(total["simulation.step"],
                                  calls["simulation.step"], 1e6),
        "simulation.station_steps": c["simulation.station_steps"],
        "simulation.station_step_ns": per(total["simulation.step"],
                                          c["simulation.station_steps"], 1e9),
        "simulation.build_world_s": total["simulation.build_world"],
        "simulation.excluded": c["simulation.excluded"],
        "policies.mf_calls": calls["policies.MfPolicy"],
        "policies.mf_us": per(total["policies.MfPolicy"],
                              calls["policies.MfPolicy"], 1e6),
        "policies.baseline_us": per(total["policies.BaselinePolicy"],
                                    calls["policies.BaselinePolicy"], 1e6),
        "policies.random_us": per(total["policies.RandomPolicy"],
                                  calls["policies.RandomPolicy"], 1e6),
        "demand.refreshes": refreshes,
        "demand.arrivals": c["demand.arrivals"],
        "demand.crp_s": total["demand.simulate_requests"],
        "demand.crp_ns_per_arrival": per(total["demand.simulate_requests"],
                                         c["demand.arrivals"], 1e9),
        "demand.refresh_unique_ratio": per(len(tracer.keys["demand.refresh"]),
                                           refreshes),
        "demand.ou_s": total["demand.ou_step_array"],
        "demand.perturb_s": total["demand.perturb_popularity"],
        "geometry.calls": sum(n for name, n in calls.items()
                              if tracer.layer_of[name] == "geometry"),
        "geometry.s": outer["geometry"],
        "io.write_s": outer["io"],
        "io.bytes": c["io.bytes"],
        "io.rows": c["io.rows"],
        "io.mb_per_s": per(c["io.bytes"], outer["io"], 1e-6),
        "scenario.load_s": total["scenario.load_scenario"],
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    return out
