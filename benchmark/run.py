"""Benchmark for uqsd: one workload, one seed, one closed loop with one client.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --smoke      # every workload, tiny inputs, both modes

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones,
from a run that spends half its time untraced and half traced. Every
operation is checked by its oracle in both modes. ``failed`` counts every
operation that raised, exited non-zero, or missed its oracle;
``correct`` is false on any failure other than the known two-state
defect, a closed-form miss at 1 - |s| <= 1e-5 (see ``workloads.py``).
The metric names and units are read from ``BENCHMARK.json``. A
human-readable record of the machine, the instance classes and any
failures goes to standard error.

Times are process CPU time scaled to a fixed machine speed by a reference
computation run between operations (see ``reference.py``), because wall
time on a shared host mostly measures the other tenants.
``throughput_per_s`` is operations over their summed scaled time,
``latency_p50_ms`` the median scaled operation time and ``setup_s`` the
median scaled CPU time of five fresh processes from their start to their
first timed operation. The unscaled wall figures go to standard error.

uqsd is imported from ``src/`` of the checkout this file sits in, and the
run refuses to start if it would resolve anywhere else. Inputs and
documents live in a temporary directory under ``.bench_work/`` in the
checkout, removed on exit. No bytecode is written.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True

# One BLAS thread unless the caller chose otherwise. The default, one
# spinning OpenBLAS thread per core, makes every r = 32 solve wait on the
# slowest core of a shared host: it ran 2.2 times slower than one thread
# and its run-to-run spread was several times wider. Set before numpy is
# imported, here and in every child process, which inherit the environment.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
from oracles import KnownDefect  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Fresh processes timed for setup_s in each untraced run, spread evenly over
# the measuring loop; the median is reported.
SETUP_PROBES = 5
IMPORT_PROBES = 3


def resolve_uqsd() -> str | None:
    """Put ``src/`` first on the path; return an error unless uqsd resolves there."""
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("uqsd")
    expected = SRC / "uqsd" / "__init__.py"
    if spec is None or spec.origin is None or Path(spec.origin).resolve() != expected:
        where = spec.origin if spec is not None else "nowhere"
        return f"uqsd must come from {expected}, but it resolves to {where}"
    return None


def blas_info() -> dict:
    """The loaded BLAS library, its thread count and the environment that set it."""
    info = {"env": {k: os.environ.get(k) for k in BLAS_ENV}, "library": None, "threads": None}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "blas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {**info, "library": Path(path).name, "threads": fn()}
    return {**info, "library": ", ".join(Path(p).name for p in libs) or None}


def machine_info() -> dict:
    import numpy
    import scipy

    head = ROOT / ".git" / "HEAD"
    rev = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        rev = target.read_text().strip() if target is not None and target.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "git_rev": rev,
        "loadavg": os.getloadavg(),
    }


def child_env() -> dict:
    return {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}


def setup_probe(args) -> tuple[float, float]:
    """A fresh process's set-up: (scaled CPU seconds, wall seconds).

    Set-up runs from the process's start to the point where it would start
    its first timed operation; the child reports its CPU time at that point.
    It is scaled by the mean of two reference probes, taken here just
    before and just after the child runs.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    before = reference.scale()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().split()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or len(line) != 2 or line[0] != "ready":
        raise RuntimeError(f"set-up probe failed (exit {code}, said {' '.join(line)!r})")
    return float(line[1]) * (before + reference.scale()) / 2, elapsed


class Tally:
    """Costs, wall times and failures of the operations of one measuring phase.

    An operation's cost is its process CPU time scaled to reference speed
    (see ``reference.py``); ``wall`` sums unscaled wall time, and
    ``scales`` holds the factor of every reference probe.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.classes: dict[str, list] = {}  # cls -> [ops, failed, cost]
        self.failures: dict[str, str] = {}  # cls -> first failure reason
        self.unexpected = 0  # failures other than a KnownDefect
        self.wall = 0.0
        self.scales: list[float] = []

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(c[1] for c in self.classes.values())

    @property
    def cost(self) -> float:
        return sum(self.latencies)

    def add(self, op, seconds: float, wall: float, miss: str | None) -> None:
        self.latencies.append(seconds)
        self.wall += wall
        entry = self.classes.setdefault(op.cls, [0, 0, 0.0])
        entry[0] += 1
        entry[2] += seconds
        if miss is not None:
            entry[1] += 1
            self.failures.setdefault(op.cls, miss)
            self.unexpected += not isinstance(miss, KnownDefect)

    def extend(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.wall += other.wall
        self.scales += other.scales
        for cls, (ops, failed, secs) in other.classes.items():
            entry = self.classes.setdefault(cls, [0, 0, 0.0])
            entry[0] += ops
            entry[1] += failed
            entry[2] += secs
        for cls, miss in other.failures.items():
            self.failures.setdefault(cls, miss)
        self.unexpected += other.unexpected


def run_op(op) -> tuple[float, float, str | None]:
    """Run and check one operation: (CPU seconds, wall seconds, miss)."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out = op.run()
    except Exception as exc:  # an operation that raises is a failed operation
        miss = f"{type(exc).__name__}: {exc}"
        return time.process_time() - c0, time.perf_counter() - w0, miss
    cpu, wall = time.process_time() - c0, time.perf_counter() - w0
    try:
        return cpu, wall, op.check(out)
    except Exception as exc:  # output the oracle cannot read is a miss too
        return cpu, wall, f"unreadable output ({type(exc).__name__}: {exc})"


def measure(workload, seconds: float, tally: Tally, rounds) -> None:
    """Run whole rounds until ``seconds`` of wall have passed.

    Round numbers are drawn from ``rounds``, so consecutive calls carry on
    where the last one stopped. A reference probe runs before the first
    operation and then every ``reference.INTERVAL_S``; each operation's CPU
    time is scaled by the latest probe. The oracle runs after the timers
    stop and is not part of an operation's time.
    """
    start, probed = time.perf_counter(), -float("inf")
    while True:
        for op in workload.round(next(rounds)):
            if time.perf_counter() - probed >= reference.INTERVAL_S:
                tally.scales.append(reference.scale())
                probed = time.perf_counter()
            cpu, wall, miss = run_op(op)
            tally.add(op, cpu * tally.scales[-1], wall, miss)
        if time.perf_counter() - start >= seconds:
            return


def report_classes(name: str, tally: Tally) -> None:
    total = sum(c[2] for c in tally.classes.values())
    lat = sorted(tally.latencies)
    lines = [f"[{name}] {tally.ops} ops, p50 {1e3 * statistics.median(lat):.2f} ms"]
    if tally.ops >= 100:
        p90 = statistics.quantiles(lat, n=10)[-1]
        lines[0] += f", p90 {1e3 * p90:.2f} ms ({tally.ops} samples)"
    lines[0] += (
        f"; unscaled: {tally.ops / tally.wall:.4g} ops per wall s,"
        f" reference scale median {statistics.median(tally.scales):.3f}"
        f" over {len(tally.scales)} probes"
    )
    for cls, (ops, failed, secs) in sorted(tally.classes.items()):
        lines.append(
            f"  {cls:14s} ops {ops:5d} ({ops / tally.ops:6.1%})  time {secs / total:6.1%}"
            f"  mean {1e3 * secs / ops:9.2f} ms  failed {failed}"
            + (f"  first miss: {tally.failures[cls]}" if failed else "")
        )
    print("\n".join(lines), file=sys.stderr)


@contextlib.contextmanager
def work_dir(prefix: str):
    """A fresh directory under ``.bench_work/`` in the checkout, removed afterwards."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def make_workload(args, workdir: Path):
    import workloads

    config = workloads.SMOKE if args.smoke else workloads.FULL
    return workloads.WORKLOADS[args.workload](args.seed, workdir, config)


def traced_run(args, workload, workdir: Path) -> tuple[Tally, dict]:
    """Half the time untraced, half traced; per-layer metrics from the traced half."""
    import tracer

    plain, traced, rounds = Tally(), Tally(), itertools.count()
    measure(workload, args.seconds / 2, plain, rounds)
    wrappers = tracer.Tracer()
    wrappers.install()
    try:
        measure(workload, args.seconds / 2, traced, rounds)
    finally:
        wrappers.uninstall()
    metrics = tracer.layer_metrics(wrappers.stats, traced.ops, traced.wall)
    metrics.update(tracer.import_probe(
        sys.executable, {**child_env(), "PYTHONPATH": str(SRC)}, str(workdir),
        1 if args.smoke else IMPORT_PROBES,
    ))
    metrics["trace.overhead_ratio"] = (traced.ops / traced.cost) / (plain.ops / plain.cost)
    report_classes(f"{args.workload} untraced half", plain)
    report_classes(f"{args.workload} traced half", traced)
    traced.extend(plain)
    return traced, metrics


def run_workload(args) -> tuple[dict, Tally]:
    with work_dir(f"{args.workload}-") as workdir:
        workload = make_workload(args, workdir)
        workload.warm_up()
        if args.trace:
            tally, metrics = traced_run(args, workload, workdir)
        else:
            tally, rounds, setups = Tally(), itertools.count(), []
            probes = 1 if args.smoke else SETUP_PROBES
            for _ in range(probes):
                setups.append(setup_probe(args))
                measure(workload, args.seconds / probes, tally, rounds)
            print("setup probes (scaled CPU s / wall s) "
                  + " ".join(f"{c:.3f}/{w:.3f}" for c, w in setups), file=sys.stderr)
            metrics = {
                "throughput_per_s": tally.ops / tally.cost,
                "latency_p50_ms": 1e3 * statistics.median(tally.latencies),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": statistics.median(c for c, _ in setups),
            }
            report_classes(args.workload, tally)
    listed = SPEC["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": tally.unexpected == 0,
        "attempted": tally.ops,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    return result, tally


def probe_only(args) -> int:
    """Body of a set-up probe: set up and warm up, report the CPU time taken, exit."""
    with work_dir("probe-") as workdir:
        make_workload(args, workdir).warm_up()
        print(f"ready {time.process_time()!r}", flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; without --workload, run every workload in both modes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")

    error = resolve_uqsd()
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return probe_only(args)
    print("machine " + json.dumps(machine_info()), file=sys.stderr)
    if args.workload is not None:
        result, _ = run_workload(args)
        print(json.dumps(result))
        return 0
    ok = True
    for name in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            args.workload, args.trace, args.seconds = name, trace, 0.2
            result, tally = run_workload(args)
            ok &= result["correct"]
            failed_by_class = {cls: c[1] for cls, c in tally.classes.items()}
            print(json.dumps({"workload": name, "trace": trace, **result,
                              "failed_by_class": failed_by_class}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
