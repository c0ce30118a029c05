"""Network building blocks with explicit forward/backward passes.

Three pieces live here:

* :class:`GhostBatchNorm`: batch normalization computed over consecutive
  sub-batches ("ghosts") so the normalization noise level is decoupled from
  the optimization batch size.
* :class:`AbstractUnit`: one feature-abstracting branch, a learnable sparse
  mask (entmax over logits, shared by every row of the batch) followed by two
  normalized linear maps, one of which gates the other through a sigmoid
  before a final ReLU.
* :class:`AbstractLayer`: K such branches over the same input, fused by
  elementwise sum.

Forward passes in training mode return a context object holding exactly the
intermediates the matching backward pass needs. A context is single-use and
tied to the layer that produced it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .entmax import EntmaxResult, entmax15, entmax15_backward
from .numerics import ShapeError


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form: stable for large |x| without branching on sign
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


class Module:
    """A node of the parameter tree.

    A subclass lists only its own tensors (``leaves``) and its direct
    sub-modules (``children``); the walk below composes the dotted names and
    fixes their order, which the optimizer state, ``DANet.state_dict``, the
    model container's tensor order and the backward passes' gradient dicts
    (through ``named_grads``) all follow.
    """

    CHILDREN = ()  # attribute names of the sub-modules, in walk order

    def leaves(self):
        """(name, kind, array) of this node's own tensors; kind "buffer"
        marks running statistics, every other kind is a trained parameter."""
        return ()

    def children(self):
        return [(name, getattr(self, name)) for name in self.CHILDREN]

    def walk(self, prefix: str = ""):
        """(prefix, module) for this node and every descendant, pre-order."""
        yield prefix, self
        for name, child in self.children():
            yield from child.walk(f"{prefix}{name}.")

    def _leaves(self, buffers: bool):
        return [(prefix + name, kind, arr) for prefix, module in self.walk()
                for name, kind, arr in module.leaves() if (kind == "buffer") == buffers]

    def named_params(self):
        """(name, kind, array) triples; arrays are the live parameters."""
        return self._leaves(buffers=False)

    def named_buffers(self):
        return [(name, arr) for name, _, arr in self._leaves(buffers=True)]

    def named_bns(self):
        return [(prefix[:-1], m) for prefix, m in self.walk() if isinstance(m, GhostBatchNorm)]

    def named_grads(self, own: dict, *child_grads: dict) -> dict:
        """This node's gradient dict, keyed and ordered as ``named_params``.

        ``own`` maps the names of this node's trained leaves to their
        gradients; ``child_grads`` holds one such (already named) dict per
        child, in ``children()`` order.
        """
        grads = {name: own[name] for name, kind, _ in self.leaves() if kind != "buffer"}
        for (name, _), sub in zip(self.children(), child_grads, strict=True):
            grads.update((f"{name}.{key}", g) for key, g in sub.items())
        return grads

    @contextmanager
    def one_stat_update(self):
        """Training forwards inside the ``with`` statement add each batch
        norm's ghost means and variances up; a normal exit then updates every
        running statistic once from those sums, as one training forward over
        all the rows would have done."""
        bns = [bn for _, bn in self.named_bns()]
        for bn in bns:
            bn.pending = [np.zeros(bn.dim), np.zeros(bn.dim), 0]
        try:
            yield
            for bn in bns:
                bn.update_running(*bn.pending)
        finally:
            for bn in bns:
                bn.pending = None


@dataclass
class BatchNormCtx:
    bounds: list  # (start, stop) row ranges, one per ghost
    xhat: np.ndarray
    inv_std: list  # per-ghost 1/sqrt(var + eps), each shape (dim,)


class GhostBatchNorm(Module):
    """Batch norm over consecutive ghost sub-batches.

    In training mode each ghost of ``ghost_size`` rows (the last one may be
    smaller) is normalized with its own mean and biased variance. Running
    statistics are an exponential moving average of the per-ghost statistics
    averaged over ghosts, one step per training forward (or per
    ``Module.one_stat_update`` statement), and are the ones used in eval mode.
    """

    momentum = 0.01  # weight of the newest ghost-averaged statistics
    eps = 1e-5  # added to the variance before the square root
    pending = None  # [mean sum, var sum, ghosts] inside Module.one_stat_update

    def __init__(self, dim: int, ghost_size: int = 256):
        if dim < 1:
            raise ValueError(f"GhostBatchNorm: dim must be >= 1, got {dim}")
        if ghost_size < 1:
            raise ValueError(f"GhostBatchNorm: ghost_size must be >= 1, got {ghost_size}")
        self.dim = dim
        self.ghost_size = ghost_size
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.updates = 0

    def forward(self, x: np.ndarray, train: bool):
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeError(f"GhostBatchNorm: expected (rows, {self.dim}), got {x.shape}")
        if not train:
            inv = 1.0 / np.sqrt(self.running_var + self.eps)
            return (x - self.running_mean) * (self.gamma * inv) + self.beta, None

        rows = x.shape[0]
        if rows < 1:
            raise ValueError("GhostBatchNorm: empty batch in training mode")
        bounds = [(s, min(s + self.ghost_size, rows)) for s in range(0, rows, self.ghost_size)]
        y = np.empty_like(x)
        xhat = np.empty_like(x)
        inv_stds = []
        deferred = self.pending is not None
        sums = self.pending if deferred else [np.zeros(self.dim), np.zeros(self.dim), 0]
        for s, e in bounds:
            chunk = x[s:e]
            mu = chunk.mean(axis=0)
            var = chunk.var(axis=0)  # biased, matching the normalization
            inv = 1.0 / np.sqrt(var + self.eps)
            xh = (chunk - mu) * inv
            xhat[s:e] = xh
            y[s:e] = self.gamma * xh + self.beta
            inv_stds.append(inv)
            sums[0] += mu
            sums[1] += var
        sums[2] += len(bounds)
        if not deferred:
            self.update_running(*sums)
        return y, BatchNormCtx(bounds=bounds, xhat=xhat, inv_std=inv_stds)

    def update_running(self, mean_sum: np.ndarray, var_sum: np.ndarray, n_ghosts: int):
        """One moving-average step towards the mean of the ghost statistics."""
        m = self.momentum
        self.running_mean = (1.0 - m) * self.running_mean + m * (mean_sum / n_ghosts)
        self.running_var = (1.0 - m) * self.running_var + m * (var_sum / n_ghosts)
        self.updates += 1

    def backward(self, ctx: BatchNormCtx, dy: np.ndarray):
        """Returns (dx, dgamma, dbeta). Gradients do not flow through the
        running-statistic buffers."""
        dgamma = (dy * ctx.xhat).sum(axis=0)
        dbeta = dy.sum(axis=0)
        dx = np.empty_like(dy)
        for (s, e), inv in zip(ctx.bounds, ctx.inv_std):
            n = e - s
            dxh = dy[s:e] * self.gamma
            xh = ctx.xhat[s:e]
            dx[s:e] = (inv / n) * (n * dxh - dxh.sum(axis=0) - xh * (dxh * xh).sum(axis=0))
        return dx, dgamma, dbeta

    def leaves(self):
        return [("gamma", "bn", self.gamma), ("beta", "bn", self.beta),
                ("running_mean", "buffer", self.running_mean),
                ("running_var", "buffer", self.running_var)]


@dataclass
class UnitCtx:
    f: np.ndarray
    mask: EntmaxResult
    bn1_ctx: BatchNormCtx
    bn2_ctx: BatchNormCtx
    q: np.ndarray


class AbstractUnit(Module):
    """One mask-then-abstract branch.

    ``mask_logits`` start at zero so the initial mask is uniform over the
    input features; the two weight matrices are (out_dim, in_dim) with
    uniform(-a, a) entries, a = sqrt(6 / (in_dim + out_dim)). The linear maps
    carry no bias; the batch-norm shift plays that role.
    """

    CHILDREN = ("bn1", "bn2")

    def __init__(self, in_dim: int, out_dim: int, ghost_size: int, rng: np.random.Generator):
        if in_dim < 1 or out_dim < 1:
            raise ValueError(f"AbstractUnit: dims must be >= 1, got ({in_dim}, {out_dim})")
        a = math.sqrt(6.0 / (in_dim + out_dim))
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.mask_logits = np.zeros(in_dim)
        self.w1 = rng.uniform(-a, a, (out_dim, in_dim))
        self.w2 = rng.uniform(-a, a, (out_dim, in_dim))
        self.bn1 = GhostBatchNorm(out_dim, ghost_size)
        self.bn2 = GhostBatchNorm(out_dim, ghost_size)

    def forward(self, f: np.ndarray, train: bool):
        """q = sigmoid(BN1(f (W1*p)^T)) gates h2 = BN2(f (W2*p)^T), p the
        learned sparse mask shared by every row; ReLU on the product. The
        context keeps f, the mask, both batch norms' contexts and q; the
        backward recomputes h2 from bn2's xhat."""
        if f.ndim != 2 or f.shape[1] != self.in_dim:
            raise ShapeError(f"AbstractUnit: expected (rows, {self.in_dim}), got {f.shape}")
        mask = entmax15(self.mask_logits)
        h1, bn1_ctx = self.bn1.forward(f @ (self.w1 * mask.probs).T, train)
        q = sigmoid(h1)
        h2, bn2_ctx = self.bn2.forward(f @ (self.w2 * mask.probs).T, train)
        out = relu(q * h2)
        if not train:
            return out, None
        return out, UnitCtx(f=f, mask=mask, bn1_ctx=bn1_ctx, bn2_ctx=bn2_ctx, q=q)

    def backward(self, ctx: UnitCtx, dout: np.ndarray):
        """Returns (df, grads) with grads keyed like ``named_params``."""
        p, q = ctx.mask.probs, ctx.q
        h2 = self.bn2.gamma * ctx.bn2_ctx.xhat + self.bn2.beta  # bn2's output, bit for bit
        dgated = dout * (q * h2 > 0.0)
        dq = dgated * h2
        dh2 = dgated * q
        dh1 = dq * q * (1.0 - q)
        da1, dg1, db1 = self.bn1.backward(ctx.bn1_ctx, dh1)
        da2, dg2, db2 = self.bn2.backward(ctx.bn2_ctx, dh2)
        g1 = da1.T @ ctx.f
        g2 = da2.T @ ctx.f
        df = da1 @ (self.w1 * p) + da2 @ (self.w2 * p)
        dmask = (g1 * self.w1 + g2 * self.w2).sum(axis=0)
        dlogits = entmax15_backward(ctx.mask, dmask)
        return df, self.named_grads({"mask": dlogits, "w1": g1 * p, "w2": g2 * p},
                                    {"gamma": dg1, "beta": db1}, {"gamma": dg2, "beta": db2})

    def leaves(self):
        return [("mask", "mask", self.mask_logits), ("w1", "weight", self.w1),
                ("w2", "weight", self.w2)]


@dataclass
class LayerCtx:
    owner: object
    unit_ctxs: list
    used: bool = field(default=False)


class AbstractLayer(Module):
    """K parallel abstraction branches fused by elementwise sum."""

    def __init__(self, in_dim: int, out_dim: int, branches: int, ghost_size: int,
                 rng: np.random.Generator):
        if branches < 1:
            raise ValueError(f"AbstractLayer: branches must be >= 1, got {branches}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.units = [AbstractUnit(in_dim, out_dim, ghost_size, rng) for _ in range(branches)]

    def forward(self, f: np.ndarray, train: bool):
        total = None
        ctxs = []
        for unit in self.units:
            out, ctx = unit.forward(f, train)
            total = out if total is None else total + out
            ctxs.append(ctx)
        if not train:
            return total, None
        return total, LayerCtx(owner=self, unit_ctxs=ctxs)

    def backward(self, ctx: LayerCtx, dout: np.ndarray):
        """Returns (df, grads), grads keyed like ``named_params``. The context
        is consumed: reusing it, or passing one from another layer, raises."""
        if ctx is None:
            raise RuntimeError("AbstractLayer.backward: no context (forward ran in eval mode?)")
        if ctx.owner is not self:
            raise RuntimeError("AbstractLayer.backward: context belongs to a different layer")
        if ctx.used:
            raise RuntimeError("AbstractLayer.backward: context already consumed")
        ctx.used = True
        df = np.zeros((dout.shape[0], self.in_dim))
        unit_grads = []
        for unit, uctx in zip(self.units, ctx.unit_ctxs):
            dfu, ug = unit.backward(uctx, dout)
            df += dfu
            unit_grads.append(ug)
        return df, self.named_grads({}, *unit_grads)

    def children(self):
        return [(f"u{k}", unit) for k, unit in enumerate(self.units)]
