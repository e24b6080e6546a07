"""Per-layer counters for a traced run, recorded from outside the program.

`install()` replaces every public function of the six laserlab modules,
and the two analysis methods of `LaserEngine`, with a timing wrapper. It
does so in every module namespace that holds the function, because a name
bound by `from ... import` is looked up in the importing module: for
example `laser_engine.full_pipeline_gamma` and `laser_engine.evaluate_gamma`.
The program's own code is unchanged.

Self time of a layer is the time inside its functions minus the time
inside wrapped functions they call. Recursion levels are timed the same
way, counting only nested class analyses as children. The per-layer
metrics are listed in `METRICS`; the README says which end-to-end metric
each one should move.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("cli", "laser_engine", "solver", "distributions", "tensor_core", "construction_sim")

WIN_KINDS = ("h1", "h2", "h3", "h4", "point-mass", "product", "sym")
HEURISTICS = ("h1", "h2", "h3", "h4")
LEVELS = ("t2", "t4", "t8")

METRICS: dict[str, str] = {
    "cli.import_s": "s",
    "laser_engine.probes": "count",
    "laser_engine.probe_s": "s",
    "laser_engine.final_table_s": "s",
    "laser_engine.classes": "count",
    **{f"laser_engine.level_{lv}_self_s": "s" for lv in LEVELS},
    "laser_engine.top_self_s": "s",
    "laser_engine.certify_s": "s",
    "laser_engine.cache_io_s": "s",
    "laser_engine.sym_failures": "count",
    "solver.pipeline_calls": "count",
    "solver.candidates": "count",
    "solver.wins_per_candidate": "ratio",
    **{f"solver.wins.{k}": "count" for k in WIN_KINDS},
    **{f"solver.heuristic_s.{h}": "s" for h in HEURISTICS},
    "solver.ascent_iterations": "count",
    "solver.problem1_s": "s",
    "solver.problem2_s": "s",
    "solver.dual_s": "s",
    "solver.ipf_iterations": "count",
    "solver.failures": "count",
    "distributions.self_s": "s",
    "tensor_core.self_s": "s",
    "construction_sim.behrend_slow_path_s": "s",
    "construction_sim.behrend_fast_path_s": "s",
    "construction_sim.oracle_s": "s",
    "construction_sim.pipeline_s": "s",
    "construction_sim.zero_out_s": "s",
    "construction_sim.hard_instance_s": "s",
}

# behrend_set takes the random-restart path up to this modulus and the
# digit-window path above it.
BEHREND_SLOW_PATH_MAX_M = 600

_DURATION_METRICS = {
    ("laser_engine", "certify_table"): "laser_engine.certify_s",
    ("laser_engine", "table_to_json"): "laser_engine.cache_io_s",
    ("laser_engine", "table_from_json"): "laser_engine.cache_io_s",
    ("solver", "entropy_dual_bound"): "solver.dual_s",
    ("construction_sim", "max_progression_free_size"): "construction_sim.oracle_s",
    ("construction_sim", "simulate_laser_pipeline"): "construction_sim.pipeline_s",
    ("construction_sim", "random_zero_out"): "construction_sim.zero_out_s",
    ("construction_sim", "greedy_hard_instance"): "construction_sim.hard_instance_s",
    ("construction_sim", "free_hard_instance"): "construction_sim.hard_instance_s",
    ("construction_sim", "coverage_statistics"): "construction_sim.hard_instance_s",
}


def win_kind(heuristic: str) -> str:
    """Map a candidate name such as 'h3[lam=10]' to its kind."""
    return "h3" if heuristic.startswith("h3[") else heuristic


class Tracer:
    """Counters and timers filled in by the wrappers `install` puts in place."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)
        self.module_self: dict[str, float] = defaultdict(float)
        self.failures: list[str] = []
        self._children: list[list[float]] = []
        self._levels: list[list[float]] = []
        self._omega_configs: list[object] = []
        self._analyze_cw_depth = 0

    def metrics(self) -> dict[str, dict]:
        out = dict(self.values)
        out["distributions.self_s"] = self.module_self["distributions"]
        out["tensor_core.self_s"] = self.module_self["tensor_core"]
        wins = sum(out.get(f"solver.wins.{k}", 0.0) for k in WIN_KINDS)
        if out.get("solver.candidates"):
            out["solver.wins_per_candidate"] = wins / out["solver.candidates"]
        return {name: {"value": float(out.get(name, 0.0)), "unit": unit}
                for name, unit in METRICS.items()}

    # -- wrapping ---------------------------------------------------------

    def _timed(self, module: str, name: str, fn, before=None, after=None):
        """Wrap fn; `before(args)` returns a token, `after(token, args, result, error, seconds)`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            self._children.append([0.0])
            start = time.perf_counter()
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                seconds = time.perf_counter() - start
                child = self._children.pop()[0]
                self.module_self[module] += seconds - child
                if self._children:
                    self._children[-1][0] += seconds
                metric = _DURATION_METRICS.get((module, name))
                if metric:
                    self.values[metric] += seconds
                if after:
                    after(token, args, kwargs, result, error, seconds)

        return wrapper

    def _hooks(self, module: str, name: str, namespace: str):
        """Extra accounting for the functions that feed a per-layer counter."""
        v = self.values
        if module == "solver" and name == "full_pipeline_gamma":
            def after(_t, _a, _k, out, err, _s):
                if err is None:
                    v["solver.pipeline_calls"] += 1
                    v["solver.candidates"] += len(out.candidates)
                    v["solver.failures"] += len(out.failures)
                    v[f"solver.wins.{win_kind(out.best.heuristic)}"] += 1
                    self.failures.extend(out.failures)
            return None, after
        if module == "solver" and name == "heuristic_gamma":
            def after(_t, args, kwargs, out, err, seconds):
                kind = args[0] if args else kwargs.get("kind")
                v[f"solver.heuristic_s.h{kind}"] += seconds
                if err is None:
                    v["solver.ascent_iterations"] += out.iterations
            return None, after
        if module == "solver" and name in ("solve_problem1", "max_entropy_with_marginals"):
            metric = "solver.problem1_s" if name == "solve_problem1" else "solver.problem2_s"

            def after(_t, _a, _k, out, err, seconds):
                v[metric] += seconds
                if err is None:
                    v["solver.ipf_iterations"] += out.iterations
            return None, after
        if module == "solver" and name == "evaluate_gamma" and namespace == "laser_engine":
            # The only caller in laser_engine is the S3-symmetrized candidate,
            # whose failures a bare `except Exception: pass` discards.
            def after(_t, _a, _k, _out, err, _s):
                if err is None:
                    v["solver.candidates"] += 1
                else:
                    v["laser_engine.sym_failures"] += 1
                    self.failures.append(f"sym: {err}")
            return None, after
        if module == "construction_sim" and name == "behrend_set":
            def after(_t, args, kwargs, _out, _err, seconds):
                M = args[0] if args else kwargs["M"]
                path = "slow" if M <= BEHREND_SLOW_PATH_MAX_M else "fast"
                v[f"construction_sim.behrend_{path}_path_s"] += seconds
            return None, after
        if module == "laser_engine" and name == "omega_bound":
            def before(args, kwargs):
                config = args[3] if len(args) > 3 else kwargs.get("config")
                self._omega_configs.append(config)

            def after(*_):
                self._omega_configs.pop()
            return before, after
        return None, None

    def _level_method(self, fn, is_top: bool):
        """Wrap `analyze_cw` (is_top) or `analyze_class` as one recursion-level frame."""

        @functools.wraps(fn)
        def method(engine, *args, **kwargs):
            label = "top" if is_top else f"t{args[0].t}"
            if not is_top and engine._memo.get(_canonical(args[0])) is None:
                self.values["laser_engine.classes"] += 1
            outermost = is_top and self._analyze_cw_depth == 0
            if is_top:
                self._analyze_cw_depth += 1
            self._levels.append([0.0])
            start = time.perf_counter()
            try:
                result = fn(engine, *args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                nested = self._levels.pop()[0]
                if self._levels:
                    self._levels[-1][0] += seconds
                if label == "top":
                    self.values["laser_engine.top_self_s"] += seconds - nested
                elif label in LEVELS:
                    self.values[f"laser_engine.level_{label}_self_s"] += seconds - nested
                if is_top:
                    self._analyze_cw_depth -= 1
            if is_top:
                heuristic = result.top.heuristic or ""
                if heuristic.endswith("+sym"):
                    self.values["solver.wins.sym"] += 1
                    self.values[f"solver.wins.{win_kind(heuristic[:-4])}"] -= 1
                if outermost and self._omega_configs:
                    final = engine.config is self._omega_configs[-1]
                    if final:
                        self.values["laser_engine.final_table_s"] += seconds
                    else:
                        self.values["laser_engine.probes"] += 1
                        self.values["laser_engine.probe_s"] += seconds
            return result

        return method


def _canonical(key):
    return tuple(key[:2]) + (tuple(sorted(key.ijk)),)


def install() -> Tracer:
    """Wrap the laserlab layers in this process and return their tracer."""
    tracer = Tracer()
    modules = {name: importlib.import_module(f"laserlab.{name}") for name in MODULES}
    package = importlib.import_module("laserlab")
    owners = {mod.__name__: short for short, mod in modules.items()}
    namespaces = dict(modules, __init__=package)
    for ns_name, ns in namespaces.items():
        for attr, obj in list(vars(ns).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            owner = owners.get(obj.__module__)
            if owner is None:
                continue
            before, after = tracer._hooks(owner, attr, ns_name)
            setattr(ns, attr, tracer._timed(owner, attr, obj, before, after))

    engine = modules["laser_engine"].LaserEngine
    engine.analyze_class = tracer._timed(
        "laser_engine", "analyze_class",
        tracer._level_method(engine.analyze_class, is_top=False),
    )
    engine.analyze_cw = tracer._timed(
        "laser_engine", "analyze_cw",
        tracer._level_method(engine.analyze_cw, is_top=True),
    )
    return tracer
