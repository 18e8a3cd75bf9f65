"""Profile one benchmark workload in process and print where its CPU goes.

The workload is one of ``benchmark/workloads.py`` (``sdp-dense``,
``small-docs``, ``symmetric``), made from seed 1 in a temporary directory
with the benchmark's full inputs, or its smoke inputs under ``--smoke``.
After the workload's warm-up, ``--rounds`` rounds of its operations run
under ``cProfile``, with one BLAS thread, and each operation is checked by
its benchmark oracle after the profiler stops. One JSON line is printed
with:

* ``ops`` and ``failed``, the operations run and those that raised or
  missed their oracle;
* ``cpu_s``, the process CPU of the profiled operations, profiler
  included, and ``profiled_s`` the time the profiler saw;
* ``share``, the cumulative share of the profiled time spent inside each
  of ``read_document``, ``solve``, ``_kkt_polish``, ``verify_group``,
  ``reciprocal_states``, ``epm_test_lp``, ``_print_report`` and
  ``json.dumps``, callees included, so the shares overlap and do not sum
  to one.

The profiler keeps its default clock, the cheapest to read. Its per-call
cost still inflates call-heavy code: on ``small-docs`` it read
``json.dumps`` at 0.18 of the time, against 0.10 timed unprofiled, and a
process-CPU clock, one system call per event, read 0.32. So read the
shares as where to look, and time a candidate with ``benchmark/run.py``.
The script exits 1 if an operation fails other than by a miss the
benchmark itself records as a known defect. Run from the repository root:

    PYTHONPATH=src python scripts/profile_workload.py --workload NAME [--rounds 20] [--smoke]
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import cProfile  # noqa: E402
import json  # noqa: E402
import pstats  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

# The benchmark's modules are imported as they are; no bytecode is written next to them.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import oracles  # noqa: E402
import workloads  # noqa: E402

SEED = 1
# (module file, function name) of each function whose cumulative share is reported.
FUNCTIONS = {
    "read_document": ("formats.py", "read_document"),
    "solve": ("solver.py", "solve"),
    "_kkt_polish": ("solver.py", "_kkt_polish"),
    "verify_group": ("symmetry.py", "verify_group"),
    "reciprocal_states": ("ensemble.py", "reciprocal_states"),
    "epm_test_lp": ("epm.py", "epm_test_lp"),
    "_print_report": ("cli.py", "_print_report"),
    "json.dumps": (os.path.join("json", "__init__.py"), "dumps"),
}


def shares(stats: pstats.Stats) -> tuple[float, dict[str, float]]:
    """The profiled total and each of FUNCTIONS' cumulative time over it."""
    total = sum(entry[2] for entry in stats.stats.values())
    cumulative = dict.fromkeys(FUNCTIONS, 0.0)
    for (path, _, func), entry in stats.stats.items():
        for name, (suffix, wanted) in FUNCTIONS.items():
            if func == wanted and path.endswith(suffix):
                cumulative[name] += entry[3]
    return total, {name: round(t / total, 4) for name, t in cumulative.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--smoke", action="store_true", help="the benchmark's smoke inputs")
    args = parser.parse_args()
    config = workloads.SMOKE if args.smoke else workloads.FULL
    profiler = cProfile.Profile()
    ops = failed = unexpected = 0
    cpu = 0.0
    with tempfile.TemporaryDirectory(prefix="profile-") as workdir:
        workload = workloads.WORKLOADS[args.workload](SEED, Path(workdir), config)
        workload.warm_up()
        for i in range(args.rounds):
            for op in workload.round(i):
                start = time.process_time()
                profiler.enable()
                try:
                    out = op.run()
                    miss = None
                except Exception as exc:  # a failed operation is counted, as the benchmark does
                    miss = f"{type(exc).__name__}: {exc}"
                finally:
                    profiler.disable()
                    cpu += time.process_time() - start
                if miss is None:
                    miss = op.check(out)
                ops += 1
                failed += miss is not None
                unexpected += miss is not None and not isinstance(miss, oracles.KnownDefect)
    total, share = shares(pstats.Stats(profiler))
    result = {
        "workload": args.workload,
        "rounds": args.rounds,
        "ops": ops,
        "failed": failed,
        "cpu_s": round(cpu, 4),
        "profiled_s": round(total, 4),
        "share": share,
    }
    print(json.dumps(result))
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
