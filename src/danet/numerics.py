"""The shape error, a seeded random stream, and a finite-difference oracle.

Matrices throughout the package are plain 2-D numpy arrays (float64,
row-major); vectors are 1-D. All randomness flows through numpy
``Generator``s made by :func:`Rng` over the PCG64 bit generator, so equal
seeds give identical streams regardless of platform.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform."""


def Rng(seed: int) -> np.random.Generator:
    """The package's random stream: numpy's PCG64 generator seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def finite_diff_grad(f: Callable[[np.ndarray], float], x, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Accepts any array shape; the returned gradient has the same shape. Used
    as the independent check against the analytic backward passes.
    """
    x = np.array(x, dtype=np.float64)  # private copy; perturbed in place below
    if h <= 0:
        raise ValueError(f"finite_diff_grad: h must be positive, got {h}")
    g = np.empty_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"finite_diff_grad: non-finite value at coordinate {i}")
        out[i] = (fp - fm) / (2.0 * h)
    return g
