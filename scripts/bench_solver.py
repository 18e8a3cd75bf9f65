"""Time ``solve`` on a seeded dense pool plus the bundled degenerate EPM set.

The pool holds ``--pool`` random complex Gaussian ensembles of m = ``--dim``
states in r = ``--rows`` dimensions (default r = m) and priors uniform in
[0.5, 1.5] before normalisation, drawn from seed 1; ``--rows`` above
``--dim`` times the r >> m case, where ``solve`` works on the n = m rows of
the span and scores its answer on the r x m reciprocals.
``data/degenerate_epm.json`` (smallest singular value of multiplicity two)
is solved after the pool. Each solve is timed in process CPU
with one BLAS thread, and one JSON line is printed with:

* ``iterations``: interior-point steps over every solve, and
  ``max_iterations`` the most that any one solve took, the headroom under
  the solver's fixed ``ITERATION_CAP``. A solve's ``iterations`` is the sum
  over its working-set rounds and any fallback to the full solve, each
  under its own cap;
* ``rounds``: the runs of the interior-point core over every solve (1 per
  solve below the solver's ``WORKING_SET_MIN_M`` states), ``screened``
  the runs among them that a state outside the working set ended: the
  screen stopped them early, on an iterate that violates such a state, or
  a candidate failed its checks with a negative slack there; and
  ``working_set`` the mean number of columns the last run solved on (m
  for a full solve);
* ``ms_per_iteration``: process-CPU ms of all solves over those steps, and
  ``ms_per_solve`` the same CPU over the number of sets;
* ``certified_by``: how many answers the iterate and the polish certified,
  ``polish_attempts`` in total, and ``polish_failed``, the attempts that
  did not certify their round, mostly from an active set that leaves out
  a constraint of the optimal face or keeps one that is not on it, and
  also a polish whose negative slack outside the working set ended it. The
  script counts each round's stage, and the stopped runs, by wrapping the
  solver's core, at a cost of microseconds per round;
* ``face_dims``: a histogram of the rank of the returned X = F F*,
  counting the eigenvalues above 1e-6 of the largest, read off the
  singular values of the certificate's factor F;
* ``step_quantiles``: the 10th and 50th percentiles of the primal and dual
  step lengths of every step taken in every round, read from
  ``SolveReport.trace``; short
  steps are what make a solve take more iterations;
* ``stage_ms_per_set``: the process-CPU ms per set of each pipeline stage,
  the ``StateEnsemble`` constructor, ``reciprocal_states``, ``solve`` (the
  time behind ``ms_per_solve``) and ``verify_certificate``;
* ``ru_maxrss_kb``: the peak resident set of the process.

``reports_sha256`` is one sha256 over every field of every ``SolveReport``,
in pool order (``reports_digest``): p, the certificate's F, z and
``dual_psd``, the objective values, gap, iterations, status, residuals,
lower and upper, each ``IterateTrace``, ``certified_by``,
``polish_attempts``, ``rounds`` and ``working_set``. Two trees whose
digests agree return the same answers to the last bit. Scalars enter by
``repr``, which numpy 2 prints with their type, so compare digests made
under one numpy version.

``--counts`` adds ``counts_per_solve``: the Python calls, the C calls and
their sum that one ``solve`` makes, and its ``numpy.linalg`` calls by
function name, each averaged over the sets. They are exact and repeat from
run to run, where CPU time on a shared host does not. They are counted by
a ``sys.setprofile`` hook on a pass of the sets after one unprofiled
warm-up pass (the first solves in a process make a few one-time calls),
both run before the timed pass and before any wrapper below, so the timing
is that of warm code. The hook slows a solve several times over, so the
flag is off by default.

``--kernels`` adds ``kernel_ms_per_solve``: the process-CPU ms per solve
spent in each solver kernel, the NT scaling (``_nt_scaling``), the PSD step
lengths (``_max_steps_psd``), the Gauss-Newton polish (``_kkt_polish``) and
the certificate residuals (``_residuals``). The script wraps those functions
only under this flag, so the default timing runs the kernels unwrapped; the
wrappers' own cost inflates ``ms_per_iteration`` slightly.

Every answer must be Optimal and pass ``verify_certificate``; the script
exits 1 otherwise. Run from the repository root:

    PYTHONPATH=src python scripts/bench_solver.py [--pool 64] [--dim 32] [--rows R]
        [--smoke] [--kernels] [--counts]

Point PYTHONPATH at another checkout's ``src`` to time that tree on the same
instances. ``--smoke`` solves a small pool at m = 6 (r = 6 unless
``--rows`` is given), for CI.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from uqsd import solver as solver_module  # noqa: E402
from uqsd import (  # noqa: E402
    StateEnsemble,
    build_sdp,
    load_ensemble,
    reciprocal_states,
    solve,
    verify_certificate,
)

DEGENERATE = Path(__file__).resolve().parents[1] / "data" / "degenerate_epm.json"
SEED = 1
KERNELS = ("_nt_scaling", "_max_steps_psd", "_kkt_polish", "_residuals")


def dense_pool(rows: int, dim: int, size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (states, priors) arrays of the pool; the pipeline builds each ensemble."""
    rng = np.random.default_rng(SEED)
    pool = []
    for _ in range(size):
        a = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
        w = rng.uniform(0.5, 1.5, dim)
        pool.append((a / np.linalg.norm(a, axis=0), w / w.sum()))
    return pool


def timed(totals: dict[str, float], name: str, fn):
    """``fn``, wrapped to add its process CPU to ``totals[name]``."""

    def wrapper(*args, **kwargs):
        start = time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[name] += time.process_time() - start

    return wrapper


def wrap_kernels() -> dict[str, float]:
    """Wrap each of KERNELS in the solver module to add its process CPU to the returned dict."""
    totals = dict.fromkeys(KERNELS, 0.0)
    for name in KERNELS:
        setattr(solver_module, name, timed(totals, name, getattr(solver_module, name)))
    return totals


def count_round_stages() -> Counter:
    """Wrap the solver's core to count the stage that certified each run, and the runs stopped.

    A run whose returned mask of violated states off its working set has a
    True, which the screen or a failed candidate ended, counts under
    ``"screened"``.
    """
    stages: Counter = Counter()
    core = solver_module._solve_core

    def counted(*args):
        # A run is (status, found, trace, certified_by, polish_attempts, violated).
        run = core(*args)
        stages[run[3]] += 1
        stages["screened"] += bool(run[5].any())
        return run

    solver_module._solve_core = counted
    return stages


def reports_digest(reports) -> str:
    """sha256, in order, over every field of each report, arrays by dtype, shape and bytes."""
    digest = hashlib.sha256()
    for report in reports:
        cert = report.certificate
        for a in (report.p, cert.F, cert.z):
            digest.update(repr((a.dtype.str, a.shape)).encode())
            digest.update(np.ascontiguousarray(a).tobytes())
        scalars = (
            cert.dual_psd,
            report.primal_value,
            report.dual_value,
            report.gap,
            report.iterations,
            report.status.value,
            list(report.residuals.items()),
            report.lower,
            report.upper,
            [dataclasses.astuple(t) for t in report.trace],
            report.certified_by,
            report.polish_attempts,
            report.rounds,
            report.working_set,
        )
        # repr round-trips every float exactly, signed zeros included.
        digest.update(repr(scalars).encode())
    return digest.hexdigest()


def linalg_names() -> dict:
    """The code of each public ``numpy.linalg`` function's implementation, mapped to its name."""
    names = {}
    for name in np.linalg.__all__:
        impl = getattr(getattr(np.linalg, name), "_implementation", None)
        if impl is not None:
            names[impl.__code__] = name
    return names


def count_calls(problems) -> dict:
    """Python, C and ``numpy.linalg`` calls per ``solve`` of ``problems``, after a warm-up pass."""
    for problem in problems:
        solve(problem)
    names = linalg_names()
    calls: Counter = Counter()
    linalg: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            calls["python"] += 1
            name = names.get(frame.f_code)
            # numpy.linalg's own calls of its functions are part of the outer call.
            if name and not frame.f_back.f_globals.get("__name__", "").startswith("numpy.linalg"):
                linalg[name] += 1
        elif event == "c_call":
            calls["c"] += 1

    for problem in problems:
        sys.setprofile(hook)
        solve(problem)
        sys.setprofile(None)
    per = {key: round(calls[key] / len(problems), 2) for key in ("python", "c")}
    per["total"] = round((calls["python"] + calls["c"]) / len(problems), 2)
    per["linalg"] = {name: round(v / len(problems), 2) for name, v in sorted(linalg.items())}
    return per


def face_dim(certificate) -> int:
    w = np.linalg.svd(certificate.F, compute_uv=False) ** 2
    return int(np.sum(w > 1e-6 * np.max(w)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", type=int, default=64)
    parser.add_argument("--dim", type=int, default=32, help="states per set, m")
    parser.add_argument("--rows", type=int, help="dimension r of the states (default: --dim)")
    parser.add_argument("--smoke", action="store_true", help="4 instances at m = 6")
    parser.add_argument("--kernels", action="store_true", help="CPU per solve in each solver kernel")
    parser.add_argument("--counts", action="store_true", help="Python, C and linalg calls per solve")
    args = parser.parse_args()
    if args.smoke:
        args.pool, args.dim = 4, 6
    rows = args.dim if args.rows is None else args.rows
    if rows < args.dim:
        parser.error("--rows must be at least --dim")
    degenerate = load_ensemble(DEGENERATE)
    sets = dense_pool(rows, args.dim, args.pool) + [(degenerate.states, degenerate.priors)]
    counts = None
    if args.counts:
        ensembles = [StateEnsemble(states, priors) for states, priors in sets]
        counts = count_calls([build_sdp(e, reciprocal_states(e)) for e in ensembles])
    kernel_cpu = wrap_kernels() if args.kernels else {}
    round_stages = count_round_stages()
    stage_fns = (StateEnsemble, reciprocal_states, solve, verify_certificate)
    stage_cpu = {fn.__name__: 0.0 for fn in stage_fns}
    stage = {fn.__name__: timed(stage_cpu, fn.__name__, fn) for fn in stage_fns}
    iterations = max_iterations = polish_attempts = rounds = working_set = 0
    stages: Counter = Counter()
    faces: Counter = Counter()
    steps: dict[str, list[float]] = {"primal": [], "dual": []}
    reports = []
    failures = 0
    for states, priors in sets:
        ens = stage["StateEnsemble"](states, priors)
        recips = stage["reciprocal_states"](ens)
        report = stage["solve"](build_sdp(ens, recips))
        reports.append(report)
        iterations += report.iterations
        rounds += report.rounds
        working_set += report.working_set
        max_iterations = max(max_iterations, report.iterations)
        polish_attempts += report.polish_attempts
        stages[str(report.certified_by)] += 1
        faces[face_dim(report.certificate)] += 1
        # Each round's last iterate takes no step.
        stepped = [t for t in report.trace if t.primal_step is not None]
        steps["primal"] += [t.primal_step for t in stepped]
        steps["dual"] += [t.dual_step for t in stepped]
        # verify_certificate's own _residuals call is not part of the solve.
        in_solve = dict(kernel_cpu)
        ver = stage["verify_certificate"](ens, recips, report.p, report.certificate)
        kernel_cpu.update(in_solve)
        failures += report.status.value != "Optimal" or not ver.passed

    polish_failed = polish_attempts - round_stages["polish"]
    cpu = stage_cpu["solve"]
    result = {
        "instances": len(sets),
        "dim": args.dim,
        "rows": rows,
        "iterations": iterations,
        "max_iterations": max_iterations,
        "rounds": rounds,
        "screened": round_stages["screened"],
        "working_set": round(working_set / len(sets), 2),
        "ms_per_iteration": round(1e3 * cpu / max(iterations, 1), 4),
        "ms_per_solve": round(1e3 * cpu / len(sets), 4),
        "cpu_s": round(cpu, 4),
        "certified_by": dict(sorted(stages.items())),
        "polish_attempts": polish_attempts,
        "polish_failed": polish_failed,
        "face_dims": {str(k): v for k, v in sorted(faces.items())},
        "step_quantiles": {
            side: {f"p{q}": round(float(np.percentile(v, q)), 4) for q in (10, 50)}
            for side, v in steps.items()
        },
        "failures": failures,
        "stage_ms_per_set": {name: round(1e3 * t / len(sets), 4) for name, t in stage_cpu.items()},
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "reports_sha256": reports_digest(reports),
    }
    if counts is not None:
        result["counts_per_solve"] = counts
    if args.kernels:
        result["kernel_ms_per_solve"] = {
            name: round(1e3 * t / len(sets), 4) for name, t in kernel_cpu.items()
        }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
