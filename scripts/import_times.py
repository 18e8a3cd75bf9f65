"""Print the import self time of each uqsd module, from fresh processes.

Each run is one new ``python -X importtime -c "import uqsd.cli"`` process,
and each module's self time is read from its ``-X importtime`` report:
the wall time spent in the module's own body, without the modules it
imports. Two modes run ``--runs`` processes each, both with one BLAS
thread:

- ``no_bytecode``: ``PYTHONDONTWRITEBYTECODE=1``, as ``benchmark/run.py``
  runs its children, and an empty ``PYTHONPYCACHEPREFIX``, so every module
  compiles from source even where a ``__pycache__`` exists;
- ``bytecode``: one untimed process first compiles every module into a
  temporary ``PYTHONPYCACHEPREFIX``, which the timed runs then read.

Neither mode writes a ``__pycache__`` into the tree. The script prints
JSON: for each mode, the median self time of each uqsd module in ms, and
``total``, the median over runs of their sum. Run from the repository
root:

    PYTHONPATH=src python scripts/import_times.py [--runs N]

Point PYTHONPATH at another checkout's ``src`` to time that tree. The
host's noise is a few ms per process, so compare medians of many runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

COMMAND = [sys.executable, "-X", "importtime", "-c", "import uqsd.cli"]


def self_times_ms(report: str) -> dict[str, float]:
    """Self time of each uqsd module in one ``-X importtime`` report (ms)."""
    out = {}
    for line in report.splitlines():
        parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
        if len(parts) == 3 and (parts[2] == "uqsd" or parts[2].startswith("uqsd.")):
            out[parts[2]] = int(parts[0]) / 1e3
    return out


def run(env: dict, runs: int) -> dict[str, float]:
    """Median self time of each uqsd module, and of their sum, over ``runs`` processes."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run(COMMAND, env=env, capture_output=True, text=True, check=True)
        times = self_times_ms(proc.stderr)
        if "uqsd.cli" not in times:
            raise SystemExit("uqsd.cli is missing from the -X importtime report")
        samples.append(times)
    modules = sorted(samples[0])
    medians = {name: statistics.median(s.get(name, 0.0) for s in samples) for name in modules}
    medians["total"] = statistics.median(sum(s.values()) for s in samples)
    return {name: round(ms, 3) for name, ms in medians.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=12, help="processes per mode (default 12)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    base = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as empty, tempfile.TemporaryDirectory() as cache:
        no_bytecode = {**base, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": empty}
        bytecode = {**base, "PYTHONPYCACHEPREFIX": cache}
        bytecode.pop("PYTHONDONTWRITEBYTECODE", None)
        subprocess.run(COMMAND, env=bytecode, capture_output=True, check=True)
        result = {
            "runs": args.runs,
            "no_bytecode": run(no_bytecode, args.runs),
            "bytecode": run(bytecode, args.runs),
        }
    json.dump(result, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
