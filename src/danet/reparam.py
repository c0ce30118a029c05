"""Structure re-parameterization: fold masks and batch norm into plain affines.

An eval-mode abstraction unit is sigmoid(BN1(W1 (M*f))) * BN2(W2 (M*f))
through a ReLU. Because the mask M is input-independent and eval-mode BN is
an affine map per feature, the whole branch collapses into two biased affine
maps: scale each weight column by the mask entry, then scale each row by
gamma/sigma and fold the BN shift into a bias. The compressed model computes
exactly the same function (up to float round-off) with the mask projection
and normalization gone. Only the units change: the compressed model is a
``DANet`` with the live blocks and layers, each unit in its folded form.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .entmax import ShapeError
from .layers import AbstractUnit, GhostBatchNorm, Module, sigmoid
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


@dataclass
class CompressedUnit(Module):
    """One folded branch: relu(sigmoid(x w1s^T + b1s) * (x w2s^T + b2s))."""

    w1s: np.ndarray
    b1s: np.ndarray
    w2s: np.ndarray
    b2s: np.ndarray

    @property
    def in_dim(self) -> int:
        return self.w1s.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w1s.shape[0]

    def forward(self, x: np.ndarray, train: bool):
        """(out, None), as an eval-mode ``AbstractUnit.forward`` returns; a
        folded unit has no training mode."""
        if train:
            raise ValueError("CompressedUnit: a folded unit has no training mode")
        # in place, bitwise the class docstring's expression: two block-sized
        # arrays and sigmoid's one, not a fresh array per step
        z = x @ self.w1s.T
        z += self.b1s
        h = x @ self.w2s.T
        h += self.b2s
        h *= sigmoid(z)
        return np.maximum(h, 0.0, out=h), None

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
    _, w1p, w2p = unit.masked()  # exact mask zeros give exactly-zero columns
    w1s, b1s = fold_bn(w1p, unit.bn1)
    w2s, b2s = fold_bn(w2p, unit.bn2)
    return CompressedUnit(w1s=w1s, b1s=b1s, w2s=w2s, b2s=b2s)


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
        return CompressedUnit(w1s=np.zeros_like(unit.w1), b1s=np.zeros(unit.out_dim),
                              w2s=np.zeros_like(unit.w2), b2s=np.zeros(unit.out_dim))
    return _fold_units(model, zeros)
