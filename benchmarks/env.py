"""Process set-up shared by the benchmark scripts; import before numpy.

Pins every BLAS/OpenMP pool to ``BLAS_THREADS`` threads and puts the
checkout's own ``src/`` first on the import path, so the code measured is
the code next to this directory and never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BLAS_THREADS = 1  # at most nproc; one thread keeps the figures steadiest on a shared box
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
KEPT_MODEL = BENCH_DIR / "model" / "serve.danet"


def prepare() -> None:
    """Pin BLAS threads and make ``import danet`` load the checkout's source.

    Exits with status 2 when the checkout holds no ``src/danet``.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("env.prepare() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "danet" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no danet package under {SRC}; run from a full checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
