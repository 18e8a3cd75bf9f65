"""Time ``verify_group`` on cyclic shift groups and on products of two of them.

For each order l three groups act on C^l: the l powers of the cyclic shift
as permutation matrices, the same powers conjugated by a fixed Haar-random
unitary, and the direct product Z_a x Z_b (a b = l, a the largest divisor
of l up to sqrt(l)) as Kronecker products of shift powers, which is not
cyclic when a and b share a factor. Each time is process CPU per call with
one BLAS thread: the calls of a block run for at least ``--block-seconds``,
and the median over ``--blocks`` blocks is printed. ``ms/call`` times
``verify_group``; ``read`` times ``decode_group(read_document(path)["group"])``
on the group's JSON document, written once to a temporary directory. Each
row also prints the report of the last ``verify_group`` call: its verdict,
its closure residual and the number of multiplication-table rows it
formed. ``peak`` is the ``tracemalloc`` peak of one more, untimed
``verify_group`` call, in MiB: what the check itself allocates beyond the
group. ``read peak`` is the same for one more, untimed read of the
document, in MiB: what reading and decoding it allocate, which the
process-wide ``ru_maxrss`` cannot show. ``ru_maxrss`` is the peak resident
set of the process so far in MB, which building the group and writing its
document as nested lists dominate. Run from the repository root:

    PYTHONPATH=src python scripts/bench_verify_group.py [ORDER ...] [--smoke]

Point PYTHONPATH at another checkout's ``src`` to time that tree with the
same groups; a tree whose report has no ``rows`` prints ``-`` there.
``--smoke`` runs order 8 with one short block, for CI. The script exits 1
if any group fails the check.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from uqsd import UnitaryGroup, verify_group  # noqa: E402
from uqsd.formats import encode_complex, read_document  # noqa: E402
from uqsd.symmetry import decode_group  # noqa: E402

KINDS = ("shift", "conjugated", "product")


def shift_powers(order: int) -> list[np.ndarray]:
    shift = np.roll(np.eye(order), 1, axis=0)
    return [np.linalg.matrix_power(shift, k).astype(complex) for k in range(order)]


def build_group(order: int, kind: str) -> UnitaryGroup:
    if kind == "product":
        a = max(k for k in range(1, int(np.sqrt(order)) + 1) if order % k == 0)
        powers = [np.kron(x, y) for x in shift_powers(a) for y in shift_powers(order // a)]
    else:
        powers = shift_powers(order)
    if kind == "conjugated":
        rng = np.random.default_rng(order)
        q, r = np.linalg.qr(rng.normal(size=(order, order)) + 1j * rng.normal(size=(order, order)))
        w = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        powers = [w @ p @ w.conj().T for p in powers]
    return UnitaryGroup(np.array(powers))


def time_per_call(call, blocks: int, block_seconds: float):
    """Median process CPU seconds per ``call()`` over the blocks, and its last result."""
    call()
    per_call = []
    for _ in range(blocks):
        calls = 0
        start = time.process_time()
        while True:
            result = call()
            calls += 1
            spent = time.process_time() - start
            if spent >= block_seconds:
                break
        per_call.append(spent / calls)
    return statistics.median(per_call), result


def peak_mib(call) -> float:
    """Peak memory traced during one ``call()``, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("orders", nargs="*", type=int, default=[16, 24, 32, 64])
    parser.add_argument("--blocks", type=int, default=5)
    parser.add_argument("--block-seconds", type=float, default=0.2)
    parser.add_argument("--smoke", action="store_true", help="order 8, one short block")
    args = parser.parse_args()
    if args.smoke:
        args.orders, args.blocks, args.block_seconds = [8], 1, 0.01
    failures = 0
    print(
        f"{'order':>5}  {'group':<10}  {'ms/call':>9}  {'read ms':>9}  "
        "passed  closure   rows  peak MiB  read peak  ru_maxrss"
    )
    with tempfile.TemporaryDirectory() as tmp:
        for order in args.orders:
            for kind in KINDS:
                group = build_group(order, kind)
                seconds, report = time_per_call(
                    lambda: verify_group(group), args.blocks, args.block_seconds
                )
                peak = peak_mib(lambda: verify_group(group))
                path = Path(tmp) / f"{kind}{order}.json"
                path.write_text(json.dumps({"group": [encode_complex(u) for u in group.elements]}))
                def read():
                    return decode_group(read_document(path)["group"])

                read_seconds, _ = time_per_call(read, args.blocks, args.block_seconds)
                read_peak = peak_mib(read)
                path.unlink()
                failures += not report.passed
                rows = getattr(report, "rows", "-")
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                print(
                    f"{order:>5}  {kind:<10}  {1e3 * seconds:>9.2f}  {1e3 * read_seconds:>9.2f}  "
                    f"{str(report.passed):<6}  {report.closure:.2e}  {rows:>4}  {peak:>8.2f}  "
                    f"{read_peak:>9.2f}  {peak_mb:>6.1f} MB"
                )
                del group
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
