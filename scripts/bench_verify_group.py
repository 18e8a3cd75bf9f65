"""Time ``verify_group`` on cyclic shift groups, plain and Haar-conjugated.

For each order l the group is the l powers of the cyclic shift on C^l, once
as permutation matrices and once conjugated by a fixed Haar-random unitary.
Each time is process CPU per call with one BLAS thread: the calls of a block
run for at least ``--block-seconds``, and the median over ``--blocks``
blocks is printed, with the report of the last call. Run from the
repository root:

    PYTHONPATH=src python scripts/bench_verify_group.py [ORDER ...]

Point PYTHONPATH at another checkout's ``src`` to time that tree with the
same groups.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from uqsd import UnitaryGroup, verify_group  # noqa: E402


def shift_group(order: int, conjugate: bool) -> UnitaryGroup:
    shift = np.roll(np.eye(order), 1, axis=0)
    powers = [np.linalg.matrix_power(shift, k).astype(complex) for k in range(order)]
    if conjugate:
        rng = np.random.default_rng(order)
        q, r = np.linalg.qr(rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order)))
        w = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        powers = [w @ p @ w.conj().T for p in powers]
    return UnitaryGroup(np.array(powers))


def time_per_call(group: UnitaryGroup, blocks: int, block_seconds: float):
    verify_group(group)
    per_call = []
    for _ in range(blocks):
        calls = 0
        start = time.process_time()
        while True:
            report = verify_group(group)
            calls += 1
            spent = time.process_time() - start
            if spent >= block_seconds:
                break
        per_call.append(spent / calls)
    return statistics.median(per_call), report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("orders", nargs="*", type=int, default=[16, 24, 32, 64])
    parser.add_argument("--blocks", type=int, default=5)
    parser.add_argument("--block-seconds", type=float, default=0.2)
    args = parser.parse_args()
    print(f"{'order':>5}  {'group':<10}  {'ms/call':>9}  passed  closure")
    for order in args.orders:
        for conjugate in (False, True):
            group = shift_group(order, conjugate)
            seconds, report = time_per_call(group, args.blocks, args.block_seconds)
            kind = "conjugated" if conjugate else "shift"
            print(
                f"{order:>5}  {kind:<10}  {1e3 * seconds:>9.2f}  {str(report.passed):<6}  "
                f"{report.closure:.2e}"
            )


if __name__ == "__main__":
    main()
