"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of the seven uqsd layer
modules with a timing wrapper, in every uqsd module that holds a
reference to it, so calls made through ``from .x import f`` bindings are
seen too. Nothing under ``src/`` changes; ``uninstall`` puts the original
functions back.

Each wrapper keeps, per function: calls, inclusive wall, self wall (wall
minus the wall of wrapped calls made inside it), and process CPU time.
A few functions also record what they returned (iterations, verdicts,
trial counts) or, for ``verify_group``, the peak of memory allocated
inside the call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import subprocess
import time
import tracemalloc

LAYERS = ("cli", "formats", "ensemble", "solver", "epm", "symmetry", "simulate")

# Called once per matrix entry; wrapping them would cost more than the work.
# Their time counts as self time of the formats function that calls them.
UNWRAPPED = {"complex_pair", "decode_scalar"}


def _new_stat() -> dict:
    return {"calls": 0, "wall": 0.0, "self": 0.0, "cpu": 0.0}


def _record_result(key: str, stat: dict, args: tuple, result) -> None:
    if key == "solver.solve":
        stat["iterations"] = stat.get("iterations", 0) + result.iterations
        stat["optimal"] = stat.get("optimal", 0) + (result.status.value == "Optimal")
    elif key == "solver.verify_certificate":
        stat["passed"] = stat.get("passed", 0) + bool(result.passed)
    elif key == "epm.epm_test_lp":
        name = {"Optimal": "optimal", "NotOptimal": "not_optimal"}.get(
            result.verdict.value, "inconclusive"
        )
        stat[name] = stat.get(name, 0) + 1
    elif key == "simulate.simulate":
        stat["trials"] = stat.get("trials", 0) + int(args[2])


class Tracer:
    """Timing wrappers around the public functions of the uqsd layers."""

    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"uqsd.{layer}") for layer in LAYERS]
        targets = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in UNWRAPPED
                ):
                    targets[obj] = self._wrap(obj, f"{layer}.{name}")
        holders = [importlib.import_module("uqsd"), *modules]
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, targets[obj])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def _wrap(self, fn, key: str):
        stat = self.stats.setdefault(key, _new_stat())
        stack = self._stack
        track_memory = key == "symmetry.verify_group"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracing_memory = track_memory and not tracemalloc.is_tracing()
            if tracing_memory:
                tracemalloc.start()
            stack.append(0.0)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                cpu = time.process_time() - cpu0
                inner = stack.pop()
                if stack:
                    stack[-1] += wall
                stat["calls"] += 1
                stat["wall"] += wall
                stat["self"] += wall - inner
                stat["cpu"] += cpu
                if tracing_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    stat["peak_bytes"] = max(stat.get("peak_bytes", 0), peak)
            _record_result(key, stat, args, result)
            return result

        return wrapper


def _mean_ms(stat: dict, field: str = "wall") -> float:
    return 1e3 * stat[field] / stat["calls"] if stat["calls"] else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, ops: int, wall: float) -> dict[str, float]:
    """Per-layer figures from the stats of one traced phase.

    ``*.ms`` and ``*.self_ms`` are means per call. A function the workload
    never calls reads 0, and so do its ratios. ``<layer>.share`` is the
    layer's summed self time over the phase's timed wall.
    """
    get = lambda key: stats.get(key, _new_stat())  # noqa: E731
    solve = get("solver.solve")
    verify = get("solver.verify_certificate")
    lp = get("epm.epm_test_lp")
    sim = get("simulate.simulate")
    cli_calls = get("cli.main")["calls"]
    cli_self = sum(s["self"] for k, s in stats.items() if k.startswith("cli."))
    out = {
        "solver.solve.self_ms": _mean_ms(solve, "self"),
        "solver.solve.iterations": _ratio(solve.get("iterations", 0), solve["calls"]),
        "solver.solve.ms_per_iteration": _ratio(1e3 * solve["wall"], solve.get("iterations", 0)),
        "solver.solve.cpu_per_wall": _ratio(solve["cpu"], solve["wall"]),
        "solver.solve.optimal_ratio": _ratio(solve.get("optimal", 0), solve["calls"]),
        "solver.verify_certificate.ms": _mean_ms(verify),
        "solver.verify_certificate.pass_ratio": _ratio(verify.get("passed", 0), verify["calls"]),
        "symmetry.verify_group.self_ms": _mean_ms(get("symmetry.verify_group"), "self"),
        "symmetry.verify_group.peak_mb": get("symmetry.verify_group").get("peak_bytes", 0) / 2**20,
        "symmetry.expand.self_ms": _mean_ms(get("symmetry.expand"), "self"),
        "symmetry.solve_gu.self_ms": _mean_ms(get("symmetry.solve_gu"), "self"),
        "symmetry.solve_cgu.self_ms": _mean_ms(get("symmetry.solve_cgu"), "self"),
        "ensemble.reciprocal_states.calls_per_op": _ratio(
            get("ensemble.reciprocal_states")["calls"], ops
        ),
        "ensemble.reciprocal_states.ms": _mean_ms(get("ensemble.reciprocal_states")),
        "ensemble.load_ensemble.ms": _mean_ms(get("ensemble.load_ensemble")),
        "ensemble.measurement_from_probs.ms": _mean_ms(get("ensemble.measurement_from_probs")),
        "epm.epm_test_lp.ms": _mean_ms(lp),
        "epm.epm_test_spectral.ms": _mean_ms(get("epm.epm_test_spectral")),
        "epm.verdict.optimal": float(lp.get("optimal", 0)),
        "epm.verdict.not_optimal": float(lp.get("not_optimal", 0)),
        "epm.verdict.inconclusive": float(lp.get("inconclusive", 0)),
        "simulate.simulate.ms": _mean_ms(sim),
        "simulate.simulate.trials_per_s": _ratio(sim.get("trials", 0), sim["wall"]),
        "formats.read_document.ms": _mean_ms(get("formats.read_document")),
        "cli.main.self_ms": _ratio(1e3 * cli_self, cli_calls),
    }
    for layer in LAYERS:
        self_time = sum(s["self"] for k, s in stats.items() if k.startswith(layer + "."))
        out[f"{layer}.share"] = _ratio(self_time, wall)
    return out


def importtime_ms(report: str, module: str) -> float:
    """Cumulative import time of ``module`` in ``-X importtime`` output (ms).

    A module that does not appear, because nothing imported it, reads 0.
    """
    for line in report.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1]) / 1e3
    return 0.0


def import_probe(python: str, env: dict, cwd: str, repeats: int) -> dict[str, float]:
    """Import and interpreter start-up times from fresh processes (medians, ms).

    ``cli.import_ms`` and ``cli.import.scipy_optimize_ms`` are the
    cumulative times ``-X importtime`` reports for ``uqsd`` and
    ``scipy.optimize``; ``cli.interpreter_ms`` is the wall time of
    ``python -c pass``, which no change to uqsd can move.
    """
    uqsd, scipy_optimize, bare = [], [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import uqsd"],
            env=env, cwd=cwd, capture_output=True, text=True, check=True,
        )
        uqsd.append(importtime_ms(proc.stderr, "uqsd"))
        scipy_optimize.append(importtime_ms(proc.stderr, "scipy.optimize"))
        t0 = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, cwd=cwd, check=True)
        bare.append(1e3 * (time.perf_counter() - t0))
    return {
        "cli.import_ms": statistics.median(uqsd),
        "cli.import.scipy_optimize_ms": statistics.median(scipy_optimize),
        "cli.interpreter_ms": statistics.median(bare),
    }
