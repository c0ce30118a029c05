"""Exact 1.5-entmax: a sparse softmax replacement.

Maps a score vector z to probabilities p with sum(p) = 1 where
p[i] = max(z[i]/2 - tau, 0)^2 and tau is the unique threshold putting p on
the simplex. Unlike softmax, coordinates far enough below the maximum get
probability exactly zero, which is what makes the learned feature masks
sparse rather than merely small.

The forward pass is the exact sort-based solve (no iterations, no
approximation); the backward pass uses the closed-form Jacobian-vector
product restricted to the support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform."""


@dataclass
class EntmaxResult:
    """Forward output: probabilities, support indices, and the threshold.

    For every i in support, probs[i] == (z[i]/2 - tau)**2 with z the original
    (unshifted) input; everywhere else probs[i] == 0.0 exactly.
    """

    probs: np.ndarray
    support: np.ndarray
    tau: float


def entmax15(z) -> EntmaxResult:
    """Exact entmax with exponent 1.5 for a single score vector."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ShapeError(f"entmax15: expected a non-empty 1-D vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("entmax15: non-finite input")

    shift = float(z.max())  # invariance to constant shifts; keeps squares small
    u = (z - shift) / 2.0
    order = np.argsort(-u, kind="stable")  # descending, ties by original index
    us = u[order]

    n = z.size
    rho = np.arange(1, n + 1, dtype=np.float64)
    mean = np.cumsum(us) / rho
    mean_sq = np.cumsum(us * us) / rho
    ss = rho * (mean_sq - mean * mean)
    delta = (1.0 - ss) / rho
    # negative delta marks prefix sizes that cannot hold the full mass;
    # clamped entries are never selected by the support test below
    tau = mean - np.sqrt(np.maximum(delta, 0.0))

    k = int(np.sum(tau <= us))
    tau_star = float(tau[k - 1])

    probs = np.maximum(u - tau_star, 0.0) ** 2
    support = np.flatnonzero(probs > 0.0)
    return EntmaxResult(probs=probs, support=support, tau=tau_star + shift / 2.0)


def entmax15_backward(result: EntmaxResult, grad_out) -> np.ndarray:
    """Vector-Jacobian product dL/dz given dL/dp.

    On the support the Jacobian is diag(s) - s s^T / sum(s) with
    s = sqrt(p); off-support coordinates get gradient exactly zero.
    """
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != result.probs.shape:
        raise ShapeError(
            f"entmax15_backward: grad shape {g.shape} != probs shape {result.probs.shape}"
        )
    s = np.sqrt(result.probs)
    dz = s * g
    dz -= (dz.sum() / s.sum()) * s
    return dz
