"""Check that ``uqsd solve`` exits 2 on six hostile input documents.

The documents are invalid UTF-8, a ``[1,,0]`` pair, a trailing comma, a
``1E400`` entry, a 100 000-deep ``states`` array and two equal states,
which parse and validate but have no reciprocal set. Each is written to a
temporary file and passed to ``python -m uqsd.cli solve`` under the running
interpreter; the script prints the exit codes and exits 1 unless every one
is 2. Run it from the repository root, with uqsd installed or with
``PYTHONPATH=src``:

    PYTHONPATH=src python scripts/check_hostile_docs.py
"""

import pathlib
import subprocess
import sys
import tempfile

HEAD = b'{"r": 1, "m": 1, "states": '
DOCS = {
    "invalid-utf8": b'{"r": 1, "m": 1, "note": "\xff\xfe", "states": [[[1, 0]]]}',
    "double-comma": HEAD + b"[[[1,,0]]]}",
    "trailing-comma": HEAD + b"[[[1, 0],]]}",
    "huge-exponent": HEAD + b"[[[1E400, 0]]]}",
    "deep-states": HEAD + b"[" * 100_000 + b"]" * 100_000 + b"}",
    "duplicate-column": b'{"r": 2, "m": 2, "states": [[[1, 0], [0, 0]], [[1, 0], [0, 0]]]}',
}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        codes = {}
        for name, data in DOCS.items():
            path = pathlib.Path(tmp, name + ".json")
            path.write_bytes(data)
            codes[name] = subprocess.run([sys.executable, "-m", "uqsd.cli", "solve", str(path)]).returncode
    print(codes)
    return int(any(code != 2 for code in codes.values()))


if __name__ == "__main__":
    sys.exit(main())
