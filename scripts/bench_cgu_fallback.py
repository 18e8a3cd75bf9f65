"""Time the SDP fallback of a CGU set that the EPM does not solve.

The outer group is Z_l (x) I_k, the cyclic shift of order l = ``--order``
on C^l tensored with the identity on C^k, and the k = ``--generators``
generator vectors are random complex Gaussian unit vectors in C^(l k),
drawn from ``--seed`` (default 3). ``solve_cgu`` expands the l k states
under uniform priors and runs the exact EPM test; where its verdict is not
Optimal, the ``cgu`` command solves the dense SDP on all l k states, as
timed here.
The solve is timed ``--reps`` times in process CPU with one BLAS thread,
and one JSON line is printed with the verdict, the solve's status,
whether ``verify_certificate`` passed, P_D and the EPM's P_D,
``iterations``, ``rounds``, ``working_set`` and ``reports_sha256``, the
digest of every field of the last solve's report, ``counts_per_solve``,
the exact Python, C and ``numpy.linalg`` calls of one solve (both as in
``scripts/bench_solver.py``, counted before the timed solves), and the
median and least CPU ms of a solve.
The script exits 1 unless the answer is Optimal and passes. Run from the
repository root:

    PYTHONPATH=src python scripts/bench_cgu_fallback.py [--order 32] [--generators 4]
        [--seed 3] [--reps 5]
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
from bench_solver import count_calls, reports_digest  # noqa: E402

from uqsd import (  # noqa: E402
    SymmetrySpec,
    UnitaryGroup,
    build_sdp,
    solve,
    solve_cgu,
    verify_certificate,
)


def outer_shift_group(order: int, k: int) -> UnitaryGroup:
    """The powers of Z (x) I_k, with Z the cyclic shift on C^order."""
    shift = np.kron(np.roll(np.eye(order), 1, axis=0), np.eye(k)).astype(complex)
    powers = [np.eye(order * k, dtype=complex)]
    for _ in range(order - 1):
        powers.append(powers[-1] @ shift)
    return UnitaryGroup(np.array(powers))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order", type=int, default=32, help="order l of the outer cyclic group")
    parser.add_argument("--generators", type=int, default=4, help="generator vectors, k")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()
    l, k = args.order, args.generators
    rng = np.random.default_rng(args.seed)
    gens = rng.normal(size=(l * k, k)) + 1j * rng.normal(size=(l * k, k))
    gens /= np.linalg.norm(gens, axis=0)
    sol = solve_cgu(SymmetrySpec(group=outer_shift_group(l, k), generators=gens))
    problem = build_sdp(sol.ensemble, sol.recips)
    counts = count_calls([problem])
    times = []
    for _ in range(args.reps):
        start = time.process_time()
        report = solve(problem)
        times.append(1e3 * (time.process_time() - start))
    ver = verify_certificate(sol.ensemble, sol.recips, report.p, report.certificate)
    ok = report.status.value == "Optimal" and ver.passed
    print(
        json.dumps(
            {
                "order": l,
                "generators": k,
                "seed": args.seed,
                "verdict": sol.verdict.value,
                "status": report.status.value,
                "verified": bool(ver.passed),
                "p_d": float(sol.ensemble.priors @ report.p),
                "epm_p_d": float(sol.p),
                "iterations": report.iterations,
                "rounds": report.rounds,
                "working_set": report.working_set,
                "reports_sha256": reports_digest([report]),
                "counts_per_solve": counts,
                "cpu_ms_median": round(float(np.median(times)), 2),
                "cpu_ms_min": round(min(times), 2),
            }
        )
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
