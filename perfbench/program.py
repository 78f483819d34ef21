"""Locate the program under test: the `alertscreen` package in `src/`.

The benchmark always measures the source tree it is checked out with,
never an installed copy, so the import is pinned to `<root>/src` and
checked.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "alertscreen"

# Single-threaded by design: pin every BLAS/OpenMP pool numpy may use.
THREAD_VARS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def import_alertscreen():
    """Import `alertscreen` from this checkout's `src/`, or exit with an error."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure: {PACKAGE_DIR} is missing")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("alertscreen")
    if Path(package.__file__).resolve().parent != PACKAGE_DIR:
        sys.exit(f"perfbench: imported alertscreen from {package.__file__}, not {PACKAGE_DIR}")
    return package


def source_lines():
    """Line count of `src/alertscreen`, tracked next to the bench numbers."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    )
