"""The shape error and the seeded random stream.

Matrices throughout the package are plain 2-D numpy arrays (float64,
row-major); vectors are 1-D. All randomness flows through numpy
``Generator``s made by :func:`Rng` over the PCG64 bit generator, so equal
seeds give identical streams regardless of platform.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform."""


def Rng(seed: int) -> np.random.Generator:
    """The package's random stream: numpy's PCG64 generator seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(int(seed)))
