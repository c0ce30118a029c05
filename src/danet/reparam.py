"""Structure re-parameterization: fold masks and batch norm into plain affines.

An eval-mode abstraction unit is sigmoid(BN1(W1 (M*f))) * BN2(W2 (M*f))
through a ReLU. Because the mask M is input-independent and eval-mode BN is
an affine map per feature, the whole branch collapses into two biased affine
maps: scale each weight column by the mask entry, then scale each row by
gamma/sigma and fold the BN shift into a bias. The compressed model computes
exactly the same function (up to float round-off) with the mask projection
and normalization gone. Only the units change: the compressed model is a
``DANet`` with the live blocks and layers, each unit in its folded form.

A folded unit takes its gate's halves, sigmoid(u) = (1 + tanh(u/2)) / 2,
from the prepared input: each bias is the last column of its weight
matrix, a = [w | b], and a layer prepares its input once for all its units
as xa = [x/2 | 1/2], so xa a1^T is u/2 and xa a2^T half the gated value.
Halving is exact in binary floating point (short of subnormals) and the bias
enters each dot product last, as a bias add does: where the BLAS kernel
keeps its summation order (every case seen at 300 rows or more) the scores
are bitwise those of the plain expression; elsewhere they differ by
rounding only.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .entmax import ShapeError
from .layers import AbstractUnit, GhostBatchNorm, Module
from .network import DANet


def fold_bn(w_prime: np.ndarray, bn: GhostBatchNorm):
    """Fold an eval-mode batch norm into the preceding linear map.

    Returns (w_star, b_star) with sigma = sqrt(running_var + eps):
    row i of w_star is row i of w_prime times gamma[i]/sigma[i], and
    b_star[i] = beta[i] - running_mean[i] * gamma[i] / sigma[i].
    """
    if w_prime.shape[0] != bn.dim:
        raise ShapeError(f"fold_bn: w rows {w_prime.shape[0]} != bn dim {bn.dim}")
    sigma = np.sqrt(bn.running_var + bn.eps)
    scale = bn.gamma / sigma
    w_star = w_prime * scale[:, None]
    b_star = bn.beta - bn.running_mean * scale
    return w_star, b_star


@dataclass(eq=False)  # compared and hashed by identity, as every Module
class CompressedUnit(Module):
    """One folded branch: relu(sigmoid(x w1s^T + b1s) * (x w2s^T + b2s)),
    computed as the module docstring says.

    It stores a1 = [w1s | b1s] and a2 = [w2s | b2s], each (out, in + 1), and
    the four tensors are views of them: a write through one (a loader's,
    ``load_state``'s) reaches the arithmetic, and a deep copy keeps the link.
    """

    a1: np.ndarray
    a2: np.ndarray

    w1s = property(lambda self: self.a1[:, :-1])
    b1s = property(lambda self: self.a1[:, -1])
    w2s = property(lambda self: self.a2[:, :-1])
    b2s = property(lambda self: self.a2[:, -1])

    @property
    def in_dim(self) -> int:
        return self.a1.shape[1] - 1

    @property
    def out_dim(self) -> int:
        return self.a1.shape[0]

    def forward(self, x: np.ndarray, train: bool):
        """(out, None), as an eval-mode ``AbstractUnit.forward`` returns; a
        folded unit has no training mode."""
        return self.forward_sum([self], x, train)

    @staticmethod
    def forward_sum(units, x: np.ndarray, train: bool):
        """(sum of the units' outputs on x, None), from xa = [x/2 | 1/2]
        made once for all of them. Every step writes in place, and the
        units after the first share two block-sized buffers."""
        if train:
            raise ValueError("CompressedUnit: a folded unit has no training mode")
        xa = np.empty((x.shape[0], x.shape[1] + 1))
        np.multiply(x, 0.5, out=xa[:, :-1])
        xa[:, -1] = 0.5
        total = z = h = None
        for unit in units:
            z = np.matmul(xa, unit.a1.T, out=z)  # u/2, u the gate's pre-activation
            np.tanh(z, out=z)
            z += 1.0  # twice the gate
            h = np.matmul(xa, unit.a2.T, out=h)  # half the gated value
            h *= z
            np.maximum(h, 0.0, out=h)
            if total is None:
                total, h = h, None  # the sum starts as the first output
            else:
                total += h
        return total, None

    def leaves(self):
        return [("w1s", "weight", self.w1s), ("b1s", "bias", self.b1s),
                ("w2s", "weight", self.w2s), ("b2s", "bias", self.b2s)]


def compress_unit(unit: AbstractUnit) -> CompressedUnit:
    """Fold one live unit. Requires populated BN running statistics."""
    if not isinstance(unit, AbstractUnit):
        raise ValueError(f"compress_unit: expected a live AbstractUnit, got "
                         f"{type(unit).__name__} (already folded?)")
    for label, bn in unit.children():
        if bn.updates < 1:
            raise ValueError(
                f"compress_unit: {label} running statistics are unpopulated; "
                "train at least one step or load trained statistics first"
            )
    _, w = unit.masked()  # exact mask zeros give exactly-zero columns
    d = unit.out_dim
    return CompressedUnit(a1=np.column_stack(fold_bn(w[:d], unit.bn1)),
                          a2=np.column_stack(fold_bn(w[d:], unit.bn2)))


def _fold_units(model: DANet, fold) -> DANet:
    """A shallow copy of ``model`` (its blocks and layers too) with every unit
    replaced by ``fold(unit)``; the live units are neither copied nor kept."""
    if model.compressed:
        raise ValueError("compress_model: model is already compressed")
    twin = copy.copy(model)
    twin.config = copy.deepcopy(model.config)
    twin.head = copy.deepcopy(model.head)
    twin.blocks = [copy.copy(block) for block in model.blocks]
    for block in twin.blocks:
        for role, layer in block.children():
            folded = copy.copy(layer)
            folded.units = [fold(u) for u in layer.units]
            setattr(block, role, folded)
    return twin


def compress_model(model: DANet) -> DANet:
    """Fold every abstraction unit; the head is copied unchanged."""
    return _fold_units(model, compress_unit)


def compressed_like(model: DANet) -> DANet:
    """A zero-filled compressed model with the tensor shapes ``model`` folds
    to, for a loader to fill."""
    def zeros(unit):
        shape = (unit.out_dim, unit.in_dim + 1)
        return CompressedUnit(a1=np.zeros(shape), a2=np.zeros(shape))
    return _fold_units(model, zeros)
