"""A fixed reference computation that measures how fast the machine runs now.

The benchmark's hosts are shared: the same code runs up to three times
slower for seconds or minutes at a time. Process CPU time slows with it,
because the cause is contention for the physical core, not only
descheduling (which CPU time leaves out). The harness therefore runs
``probe`` every ``INTERVAL_S`` of its measuring loop and scales each
operation's CPU time by ``UNIT_S / probe()``: an operation is reported as
the time it would have taken on a machine where one reference unit takes
``UNIT_S``. A change to uqsd moves the operations and not the reference,
so it still shows in full.

The unit mixes the kinds of work uqsd does: interpreted Python (dict and
float arithmetic, as in document handling and the CLI), many numpy calls
on tiny 4 x 4 arrays, where call overhead dominates (as in small solves
and symmetric-set checks), and small dense complex linear algebra
(32 x 32 ``eigh`` and ``cholesky`` and a product, as in the SDP solver).
Of the mixes tried, this one followed the slowdowns of all three
workloads best. It uses numpy only and no uqsd code.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# CPU time of one unit on the machine described in PROVENANCE.md when it
# was not contended, so scaled times read as milliseconds of that machine.
UNIT_S = 1.7e-3
# Wall time between probes inside a measuring loop.
INTERVAL_S = 0.25

_rng = np.random.default_rng(20261018)
_a = _rng.normal(size=(32, 32)) + 1j * _rng.normal(size=(32, 32))
_H = _a @ _a.conj().T + 32 * np.eye(32)
_V = _rng.normal(size=20_000)
_s = _rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4))
_S = _s @ _s.conj().T + 4 * np.eye(4)
_u = _rng.normal(size=4) + 0j


def unit() -> float:
    table: dict[int, float] = {}
    for i in range(1500):
        key = i % 61
        table[key] = table.get(key, 0.0) + i * 0.5
    total = sum(table.values())
    for _ in range(25):
        w, v = np.linalg.eigh(_S)
        x = np.linalg.solve(_S, _u)
        total += float(np.max(np.abs(np.concatenate([x, _u])))) + float(w[0])
        total += float(np.trace(v @ v.conj().T).real)
    for _ in range(3):
        w, v = np.linalg.eigh(_H)
        np.linalg.cholesky(_H)
        x = (v * w) @ v.conj().T
    return total + float(x[0, 0].real) + float(np.sort(_V)[0])


def probe(units: int = 3) -> float:
    """Median process CPU seconds of ``units`` reference units."""
    times = []
    for _ in range(units):
        t0 = time.process_time()
        unit()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def scale() -> float:
    """Factor that turns CPU seconds measured now into reference seconds."""
    return UNIT_S / probe()
