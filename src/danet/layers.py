"""Building blocks of the network, with explicit forward/backward passes.

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

from .entmax import EntmaxResult, ShapeError, entmax15, entmax15_backward


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form: stable for large |x| without branching on sign. The same
    # bits as 0.5 * (1.0 + np.tanh(0.5 * x)), computed in one array
    t = np.asarray(0.5 * x)  # a 0-d array for a scalar, so tanh can write in place
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5
    return t


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


class Module:
    """A node of the parameter tree.

    A subclass lists only its own tensors (``leaves``) and its direct
    sub-modules (``children``); the walk below composes the dotted names and
    fixes their order, which the optimizer state, ``DANet.state_dict``, the
    model container's tensor order and the backward passes' gradient dicts
    (through ``summing_grads``) all follow.
    """

    CHILDREN = ()  # attribute names of the sub-modules, in walk order
    grad_sums = None  # {leaf name: gradient sum} while ``summing_grads`` holds them open

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

    def add_grads(self, **grads):
        """Adds gradients, keyed by leaf name, into this node's open sums."""
        sums = self.grad_sums
        for name, g in grads.items():
            if name in sums:
                sums[name] += g
            else:
                sums[name] = g

    def finished_grads(self) -> dict:
        """This node's own gradients, keyed by leaf name, from its sums."""
        return self.grad_sums

    @contextmanager
    def summing_grads(self):
        """For a ``with`` statement around a backward pass or a training step.

        Backward passes add their gradients into the sums of the modules
        they cover. If this node's sums are open already (inside a step, or
        inside a parent's backward), the yielded dict stays empty and whoever
        opened them finishes them. Otherwise this opens the sums of this node
        and every descendant, and a normal exit fills the yielded dict with
        the finished gradients, keyed and ordered as ``named_params``. The
        sums are dropped on any exit.
        """
        grads = {}
        if self.grad_sums is not None:
            yield grads
            return
        walked = list(self.walk())
        for _, m in walked:
            m.grad_sums = {}
        try:
            yield grads
            for prefix, m in walked:
                own = m.finished_grads()
                grads.update((prefix + name, own[name]) for name, kind, _ in m.leaves()
                             if kind != "buffer")
        finally:
            for _, m in walked:
                m.grad_sums = None

    @contextmanager
    def fixed_params(self):
        """For a ``with`` statement over which the parameters stay fixed, as
        in one optimizer step or one scoring call.

        Each unit computes its mask and masked weights once, in its first
        forward inside, and every later forward and backward reuses them.
        Training forwards add each batch norm's ghost means and variances up;
        a normal exit then moves the running statistics of each batch norm
        that ran in training mode once, from those sums, as one training
        forward over all the rows would have done. The cached masks and the
        sums are dropped on any exit.
        """
        modules = [m for _, m in self.walk()]
        bns = [m for m in modules if isinstance(m, GhostBatchNorm)]
        units = [m for m in modules if isinstance(m, AbstractUnit)]
        for bn in bns:
            bn.pending = [0.0, 0.0, 0]  # the first ghost's += makes the arrays
        try:
            for unit in units:
                unit.mask_cache = ()  # filled by the unit's first masked()
            yield
            for bn in bns:
                if bn.pending[2]:
                    bn.update_running(*bn.pending)
        finally:
            for bn in bns:
                bn.pending = None
            for unit in units:
                unit.mask_cache = None


@dataclass
class BatchNormCtx:
    bounds: list  # (start, stop) row ranges, one per ghost
    xc: np.ndarray  # the input minus its ghost's mean
    inv: list  # per-ghost 1/sqrt(var + eps), each shape (dim,)


class GhostBatchNorm(Module):
    """Batch norm over consecutive ghost sub-batches.

    In training mode each ghost of ``ghost_size`` rows (the last one may be
    smaller) is normalized with its own mean and biased variance. Running
    statistics are an exponential moving average of the per-ghost statistics
    averaged over ghosts, one step per training forward (or per
    ``Module.fixed_params`` statement), and are the ones used in eval mode.
    """

    momentum = 0.01  # weight of the newest ghost-averaged statistics
    eps = 1e-5  # added to the variance before the square root
    pending = None  # [mean sum, var sum, ghosts] inside Module.fixed_params

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
        xc = np.empty_like(x)
        invs = []
        deferred = self.pending is not None
        sums = self.pending if deferred else [0.0, 0.0, 0]
        for s, e in bounds:
            # column sums in one pass each: the mean, then the biased
            # variance from the centred ghost
            n = e - s
            mu = x[s:e].sum(axis=0) / n
            c = np.subtract(x[s:e], mu, out=xc[s:e])
            var = np.einsum("ij,ij->j", c, c) / n
            invs.append(1.0 / np.sqrt(var + self.eps))
            sums[0] += mu
            sums[1] += var
        sums[2] += len(bounds)
        if not deferred:
            self.update_running(*sums)
        ctx = BatchNormCtx(bounds=bounds, xc=xc, inv=invs)
        return self.output(ctx), ctx

    def output(self, ctx: BatchNormCtx) -> np.ndarray:
        """The training-mode output of the forward that made ``ctx``, bit for
        bit: ``xc * (gamma * inv) + beta``, ghost by ghost."""
        y = np.empty_like(ctx.xc)
        for (s, e), inv in zip(ctx.bounds, ctx.inv):
            ys = np.multiply(ctx.xc[s:e], self.gamma * inv, out=y[s:e])
            ys += self.beta
        return y

    def update_running(self, mean_sum: np.ndarray, var_sum: np.ndarray, n_ghosts: int):
        """One moving-average step towards the mean of the ghost statistics."""
        m = self.momentum
        self.running_mean = (1.0 - m) * self.running_mean + m * (mean_sum / n_ghosts)
        self.running_var = (1.0 - m) * self.running_var + m * (var_sum / n_ghosts)
        self.updates += 1

    def backward(self, ctx: BatchNormCtx, dy: np.ndarray):
        """Returns (dx, dgamma, dbeta). Gradients do not flow through the
        running-statistic buffers.

        Per ghost of n rows, with a = gamma * inv, db = sum(dy) and
        sxc = sum(dy * xc) over the ghost's rows (dgamma is sxc * inv):
        dx = a * dy - a * db / n - xc * (a * inv**2 * sxc / n).
        """
        dx = np.empty_like(dy)
        dgamma = np.zeros(self.dim)
        dbeta = np.zeros(self.dim)
        for (s, e), inv in zip(ctx.bounds, ctx.inv):
            n = e - s
            g, xc = dy[s:e], ctx.xc[s:e]
            db = g.sum(axis=0)
            sxc = np.einsum("ij,ij->j", g, xc)
            a = self.gamma * inv
            d = np.multiply(g, a, out=dx[s:e])
            d -= a * db / n
            d -= xc * (a * inv * inv * sxc / n)
            dgamma += sxc * inv
            dbeta += db
        return dx, dgamma, dbeta

    def leaves(self):
        return [("gamma", "bn", self.gamma), ("beta", "bn", self.beta),
                ("running_mean", "buffer", self.running_mean),
                ("running_var", "buffer", self.running_var)]


@dataclass
class UnitCtx:
    f: np.ndarray
    mask: EntmaxResult
    w1p: np.ndarray  # w1 * mask.probs
    w2p: np.ndarray  # w2 * mask.probs
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
    mask_cache = None  # inside Module.fixed_params: () until masked() fills it

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

    def masked(self):
        """(mask, w1 * p, w2 * p) with mask = entmax15(mask_logits) and p its
        probabilities, computed from the current logits and weights; inside
        ``Module.fixed_params`` the first call's triple is kept and returned
        again."""
        if self.mask_cache:
            return self.mask_cache
        mask = entmax15(self.mask_logits)
        triple = mask, self.w1 * mask.probs, self.w2 * mask.probs
        if self.mask_cache is not None:
            self.mask_cache = triple
        return triple

    def forward(self, f: np.ndarray, train: bool):
        """q = sigmoid(BN1(f (W1*p)^T)) gates h2 = BN2(f (W2*p)^T), p the
        learned sparse mask shared by every row; ReLU on the product. The
        context keeps f, the mask and masked weights, both batch norms'
        contexts and q; the backward rebuilds h2 with ``bn2.output``."""
        if f.ndim != 2 or f.shape[1] != self.in_dim:
            raise ShapeError(f"AbstractUnit: expected (rows, {self.in_dim}), got {f.shape}")
        mask, w1p, w2p = self.masked()
        h1, bn1_ctx = self.bn1.forward(f @ w1p.T, train)
        q = sigmoid(h1)
        h2, bn2_ctx = self.bn2.forward(f @ w2p.T, train)
        out = np.multiply(q, h2, out=h2)  # no context keeps h2
        np.maximum(out, 0.0, out=out)
        if not train:
            return out, None
        return out, UnitCtx(f=f, mask=mask, w1p=w1p, w2p=w2p, bn1_ctx=bn1_ctx,
                            bn2_ctx=bn2_ctx, q=q)

    @staticmethod
    def forward_sum(units, f: np.ndarray, train: bool):
        """(sum of the units' outputs on f, their contexts): how a layer runs
        its units. A folded unit class (``reparam.CompressedUnit``) has its
        own, which prepares f once for all of them."""
        total, ctx = units[0].forward(f, train)
        ctxs = [ctx]
        for unit in units[1:]:
            out, ctx = unit.forward(f, train)
            total += out  # into the first unit's output, which no context keeps
            ctxs.append(ctx)
        return total, ctxs

    def backward(self, ctx: UnitCtx, dout: np.ndarray):
        """Returns (df, grads), grads keyed like ``named_params`` (empty inside
        an enclosing ``summing_grads``). Adds the raw weight gradients
        da^T f and both batch norms' gradients into the sums; the mask is
        applied when they are finished (``finished_grads``)."""
        with self.summing_grads() as grads:
            q = ctx.q
            h2 = self.bn2.output(ctx.bn2_ctx)
            dgated = np.multiply(q, h2)
            np.greater(dgated, 0.0, out=dgated)  # the ReLU's gate, as 1.0 or 0.0
            dgated *= dout
            dh1 = np.multiply(h2, dgated, out=h2)  # dq, taken through the sigmoid below
            dh2 = np.multiply(dgated, q, out=dgated)
            dh1 *= q
            dh1 *= 1.0 - q
            da1, dg1, db1 = self.bn1.backward(ctx.bn1_ctx, dh1)
            da2, dg2, db2 = self.bn2.backward(ctx.bn2_ctx, dh2)
            self.grad_sums["entmax"] = ctx.mask  # the mask finished_grads applies
            self.add_grads(w1=da1.T @ ctx.f, w2=da2.T @ ctx.f)
            self.bn1.add_grads(gamma=dg1, beta=db1)
            self.bn2.add_grads(gamma=dg2, beta=db2)
            df = da1 @ ctx.w1p
            df += da2 @ ctx.w2p
        return df, grads

    def finished_grads(self) -> dict:
        """The masked weight gradients G * p from the summed raw ones G, and
        one entmax backward of the summed mask gradient (linear in it for a
        fixed mask)."""
        sums = self.grad_sums
        mask, g1, g2 = sums["entmax"], sums["w1"], sums["w2"]
        dmask = np.einsum("ij,ij->j", g1, self.w1) + np.einsum("ij,ij->j", g2, self.w2)
        return {"mask": entmax15_backward(mask, dmask), "w1": g1 * mask.probs,
                "w2": g2 * mask.probs}

    def leaves(self):
        return [("mask", "mask", self.mask_logits), ("w1", "weight", self.w1),
                ("w2", "weight", self.w2)]


@dataclass
class LayerCtx:
    owner: object
    unit_ctxs: list
    used: bool = field(default=False)


class AbstractLayer(Module):
    """K parallel abstraction branches fused by elementwise sum; in a
    compressed model the branches are folded units."""

    def __init__(self, in_dim: int, out_dim: int, branches: int, ghost_size: int,
                 rng: np.random.Generator):
        if branches < 1:
            raise ValueError(f"AbstractLayer: branches must be >= 1, got {branches}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.units = [AbstractUnit(in_dim, out_dim, ghost_size, rng) for _ in range(branches)]

    def forward(self, f: np.ndarray, train: bool):
        total, ctxs = self.units[0].forward_sum(self.units, f, train)
        if not train:
            return total, None
        return total, LayerCtx(owner=self, unit_ctxs=ctxs)

    def backward(self, ctx: LayerCtx, dout: np.ndarray):
        """Returns (df, grads), grads keyed like ``named_params`` (empty
        inside an enclosing ``summing_grads``). The context is consumed:
        reusing it, or passing one from another layer, raises."""
        if ctx is None:
            raise RuntimeError("AbstractLayer.backward: no context (forward ran in eval mode?)")
        if ctx.owner is not self:
            raise RuntimeError("AbstractLayer.backward: context belongs to a different layer")
        if ctx.used:
            raise RuntimeError("AbstractLayer.backward: context already consumed")
        ctx.used = True
        with self.summing_grads() as grads:
            df = np.zeros((dout.shape[0], self.in_dim))
            for unit, uctx in zip(self.units, ctx.unit_ctxs):
                df += unit.backward(uctx, dout)[0]
        return df, grads

    def children(self):
        return [(f"u{k}", unit) for k, unit in enumerate(self.units)]
