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

In training mode a unit does not run its batch norms as layers: within one
ghost a training-mode batch norm is an affine map too, whose statistics
follow from the ghost's input moments, so a layer folds both into each
unit's masked weights ghost by ghost (``AbstractLayer.forward``), in single
calls over its units' stacked weights (``UnitStack``): ``train_ref`` p50
8608 -> 6836 ms against per-unit folds (README). ``GhostBatchNorm`` keeps
the parameters, the running statistics and the eval-mode forward.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .entmax import ShapeError, entmax15, entmax15_backward


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form: stable for large |x| without branching on sign. The same
    # bits as 0.5 * (1.0 + np.tanh(0.5 * x)), computed in one new array
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

        Backward passes add their gradients, and training forwards their
        layers' ghost statistics, into the sums of the modules they cover.
        If this node's sums are open already (inside a step, or inside a
        parent's backward), the yielded dict stays empty and whoever opened
        them finishes them. Otherwise this opens the sums of this node
        and every descendant whose sums are not open, and a normal exit
        fills the yielded dict with the finished gradients, keyed and ordered
        as ``named_params``. The sums it opened are dropped on any exit.
        """
        grads = {}
        if self.grad_sums is not None:  # and so are its descendants'
            yield grads
            return
        walked = [(prefix, m) for prefix, m in self.walk() if m.grad_sums is None]
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
        """For a ``with`` statement around one training step, over which the
        parameters stay fixed.

        On entry each layer stacks its units' masks and masked weights
        (``UnitStack``), which every forward and backward of the step reuses;
        the stacks are dropped on any exit. Scoring needs no such context:
        ``predict`` scores a folded twin.
        """
        layers = [m for _, m in self.walk() if isinstance(m, AbstractLayer)]
        try:
            for layer in layers:
                layer.mask_cache = UnitStack.of(layer.units)
            yield
        finally:
            for layer in layers:
                layer.mask_cache = None


def centre_ghosts(x: np.ndarray, ghost_size: int, out: np.ndarray | None = None):
    """(bounds, xc, means) of a training-mode input: each ghost's (start,
    stop) rows (the last ghost may be shorter), x minus its ghost's column
    means (in ``out`` if given), and those means, one (cols,) per ghost."""
    rows = x.shape[0]
    if rows < 1:
        raise ValueError("ghost batch norm: empty batch in training mode")
    bounds = [(s, min(s + ghost_size, rows)) for s in range(0, rows, ghost_size)]
    xc = np.empty_like(x) if out is None else out
    means = []
    for s, e in bounds:
        mu = x[s:e].sum(axis=0) / (e - s)
        np.subtract(x[s:e], mu, out=xc[s:e])
        means.append(mu)
    return bounds, xc, means


class GhostBatchNorm(Module):
    """Batch norm over consecutive ghost sub-batches.

    In training mode each ghost of ``ghost_size`` rows (the last one may be
    smaller) is normalized with its own mean and biased variance; the
    abstraction layer does this, folded into its units' weights, and hands
    the ghost statistics to ``update_running``. Running statistics are an
    exponential moving average of the per-ghost statistics averaged over
    ghosts, one step per training forward, or per ``Module.summing_grads``
    statement that holds the layer's sums open around its forwards, and are
    the ones used in eval mode.
    """

    momentum = 0.01  # weight of the newest ghost-averaged statistics
    eps = 1e-5  # added to the variance before the square root

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

    def forward(self, x: np.ndarray, train: bool = False):
        """Eval mode: (x normalized with the running statistics, None). A
        batch norm trains folded into its unit's weights (``AbstractLayer``),
        never on its own."""
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeError(f"GhostBatchNorm: expected (rows, {self.dim}), got {x.shape}")
        if train:
            raise RuntimeError("GhostBatchNorm: trains inside its abstraction layer "
                               "(AbstractLayer.forward), not on its own")
        inv = 1.0 / np.sqrt(self.running_var + self.eps)
        return (x - self.running_mean) * (self.gamma * inv) + self.beta, None

    def update_running(self, mean_sum: np.ndarray, var_sum: np.ndarray, n_ghosts: int):
        """One moving-average step towards the mean of the ghost statistics."""
        m = self.momentum
        self.running_mean = (1.0 - m) * self.running_mean + m * (mean_sum / n_ghosts)
        self.running_var = (1.0 - m) * self.running_var + m * (var_sum / n_ghosts)
        self.updates += 1

    def leaves(self):
        return [("gamma", "bn", self.gamma), ("beta", "bn", self.beta),
                ("running_mean", "buffer", self.running_mean),
                ("running_var", "buffer", self.running_var)]


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

    def masked(self):
        """(mask, [w1; w2] * p) with mask = entmax15(mask_logits) and p its
        probabilities, computed from the current logits and weights."""
        mask = entmax15(self.mask_logits)
        return mask, np.concatenate((self.w1, self.w2)) * mask.probs

    def forward(self, f: np.ndarray, train: bool):
        """Eval mode: (q = sigmoid(BN1(f (W1*p)^T)) gating h2 = BN2(f (W2*p)^T),
        None), W = [w1; w2] * p the weights under the learned sparse mask p
        shared by every row; ReLU on the product. A unit trains inside its
        abstraction layer (``AbstractLayer``), never on its own."""
        if f.ndim != 2 or f.shape[1] != self.in_dim:
            raise ShapeError(f"AbstractUnit: expected (rows, {self.in_dim}), got {f.shape}")
        if train:
            raise RuntimeError("AbstractUnit: trains inside its abstraction layer "
                               "(AbstractLayer.forward), not on its own")
        _, w = self.masked()
        d = self.out_dim
        h1, _ = self.bn1.forward(f @ w[:d].T, False)
        q = sigmoid(h1)
        h2, _ = self.bn2.forward(f @ w[d:].T, False)
        out = np.multiply(q, h2, out=h2)
        np.maximum(out, 0.0, out=out)
        return out, None

    def leaves(self):
        return [("mask", "mask", self.mask_logits), ("w1", "weight", self.w1),
                ("w2", "weight", self.w2)]


@dataclass
class UnitStack:
    """A layer's K units stacked for the training-mode fold, once per step."""

    masks: tuple  # each unit's EntmaxResult
    w: np.ndarray  # (K, 2 * out_dim, in_dim): each unit's [w1; w2] * p
    gamma: np.ndarray  # (K, 2 * out_dim): each unit's [bn1.gamma, bn2.gamma]
    beta: np.ndarray  # (K, 2 * out_dim): each unit's [bn1.beta, bn2.beta]

    @classmethod
    def of(cls, units) -> UnitStack:
        masks, ws = zip(*(unit.masked() for unit in units))
        return cls(masks=masks, w=np.stack(ws),
                   gamma=np.stack([np.concatenate((u.bn1.gamma, u.bn2.gamma)) for u in units]),
                   beta=np.stack([np.concatenate((u.bn1.beta, u.bn2.beta)) for u in units]))

    def fold(self, fc: np.ndarray, mu: np.ndarray):
        """((inv, a, W S, [a W | beta]), (W mu, variances)) of every unit for
        one ghost of centred input fc and column means mu: the fold, and the
        ghost's batch-norm statistics."""
        w = self.w
        ws = np.matmul(w.reshape(-1, w.shape[2]), fc.T @ fc).reshape(w.shape)
        var = np.einsum("kij,kij->ki", ws, w) / fc.shape[0]
        inv = 1.0 / np.sqrt(var + GhostBatchNorm.eps)
        a = self.gamma * inv
        aw = np.concatenate((a[..., None] * w, self.beta[..., None]), axis=2)
        return (inv, a, ws, aw), (w @ mu, var)


@dataclass
class LayerCtx:
    owner: object
    stack: UnitStack  # the units' masks and stacked weights
    xa: np.ndarray  # (rows, in_dim + 1): [fc / 2 | 1 / 2]
    z: np.ndarray  # (K, 2, rows, out_dim): per unit tanh(h1 / 2) + 1 = 2 q, and h2 / 2
    ghosts: list  # per ghost ((start, stop), inv, a, W S, [a W | beta])
    used: bool = field(default=False)


class AbstractLayer(Module):
    """K parallel abstraction branches fused by elementwise sum; in a
    compressed model the branches are folded units."""

    mask_cache = None  # inside Module.fixed_params: the step's UnitStack

    def __init__(self, in_dim: int, out_dim: int, branches: int, ghost_size: int,
                 rng: np.random.Generator):
        if branches < 1:
            raise ValueError(f"AbstractLayer: branches must be >= 1, got {branches}")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.units = [AbstractUnit(in_dim, out_dim, ghost_size, rng) for _ in range(branches)]

    def forward(self, f: np.ndarray, train: bool):
        """(sum of the units' outputs on f, context or None). Training mode,
        per ghost of n rows with centred input fc and column means mu, for all
        units at once: a batch norm's mean is W mu and its variance
        rowsum((W S) * W) / n, S = fc^T fc, so with inv = 1 / sqrt(var + eps)
        and a = gamma * inv the pre-activations are fc (a W)^T + beta. As for
        a folded unit, xa = [fc / 2 | 1 / 2] makes xa [a W | beta]^T half of
        them; each unit takes tanh(h1 / 2) + 1 = 2 q, times h2 / 2, and ReLU."""
        unit, units = self.units[0], self.units
        if not isinstance(unit, AbstractUnit):
            return unit.forward_sum(units, f, train)  # folded units raise in training mode
        if not train:
            total = unit.forward(f, False)[0]
            for other in units[1:]:
                total += other.forward(f, False)[0]  # into the first unit's output
            return total, None
        if f.ndim != 2 or f.shape[1] != self.in_dim:
            raise ShapeError(f"AbstractLayer: expected (rows, {self.in_dim}), got {f.shape}")
        xa = np.empty((f.shape[0], self.in_dim + 1))
        xa[:, -1] = 0.5
        bounds, fc, means = centre_ghosts(f, unit.bn1.ghost_size, out=xa[:, :-1])
        stack = self.mask_cache or UnitStack.of(units)
        ghosts, mean, var = [], 0.0, 0.0
        for (s, e), mu in zip(bounds, means):
            fold, (wmu, v) = stack.fold(fc[s:e], mu)
            ghosts.append(((s, e), *fold))
            mean, var = mean + wmu, var + v
            fc[s:e] *= 0.5
        if self.grad_sums is not None:  # inside open sums: finished_grads records them
            self.add_grads(mean=mean, var=var, ghosts=len(bounds))
        else:  # outside open sums the running statistics move now
            self.record(mean, var, len(bounds))
        z = np.empty((len(units), 2, f.shape[0], self.out_dim))
        total = None
        for j, zj in enumerate(z):  # each unit's own matmuls and gate
            for (s, e), *_, aw in ghosts:
                np.matmul(xa[s:e], aw[j].reshape(2, self.out_dim, -1).transpose(0, 2, 1),
                          out=zj[:, s:e])
            t = np.tanh(zj[0], out=zj[0])
            t += 1.0  # twice the gate
            out = t * zj[1]
            np.maximum(out, 0.0, out=out)
            total = out if total is None else np.add(total, out, out=total)
        return total, LayerCtx(owner=self, stack=stack, xa=xa, z=z, ghosts=ghosts)

    def backward(self, ctx: LayerCtx, dout: np.ndarray):
        """Returns (df, grads), grads keyed like ``named_params`` (empty
        inside an enclosing ``summing_grads``). The context is consumed:
        reusing it, or passing one from another layer, raises.

        From each unit's 2 D, D = [dh1 | dh2], (2 D)^T xa is [Pc | db] =
        [D^T fc | sum(D)]; then per ghost of n rows, for all units at once:
        sxc = rowsum(Pc * W) (dgamma is sxc * inv), c = a * inv**2 * sxc / n,
        the raw weight gradient a Pc - c (W S) and the input gradient, summed
        over the units, D (a W) - (a db / n) W - fc (W^T c W)."""
        if ctx is None:
            raise RuntimeError("AbstractLayer.backward: no context (forward ran in eval mode?)")
        if ctx.owner is not self:
            raise RuntimeError("AbstractLayer.backward: context belongs to a different layer")
        if ctx.used:
            raise RuntimeError("AbstractLayer.backward: context already consumed")
        ctx.used = True
        stack, xa, z = ctx.stack, ctx.xa, ctx.z
        k, d, m = len(self.units), self.out_dim, self.in_dim
        pds = [np.empty((k, 2 * d, m + 1)) for _ in ctx.ghosts]  # per ghost [Pc | db]
        df = np.zeros((z.shape[2], m))
        dz = np.empty_like(z[0])
        d1, d2 = dz
        for j, (t, h) in enumerate(z):  # each unit's own gate chain and matmuls
            np.greater(h, 0.0, out=d2)  # the ReLU's gate: t = 2 q >= 0 multiplies both rows
            d2 *= dout
            d2 *= t  # 2 dh2
            np.multiply(h, d2, out=d1)
            d1 *= 2.0 - t  # 2 dh1 = 2 dq q (1 - q), dq = dgated h2
            for ((s, e), *_, aw), pd in zip(ctx.ghosts, pds):
                np.matmul(dz[:, s:e].transpose(0, 2, 1), xa[s:e], out=pd[j].reshape(2, d, -1))
                df[s:e] += d1[s:e] @ aw[j, :d, :-1]
                df[s:e] += d2[s:e] @ aw[j, d:, :-1]
        w = stack.w.reshape(-1, m)
        with self.summing_grads() as grads:
            for ((s, e), inv, a, ws, _), pd in zip(ctx.ghosts, pds):
                pc, db = pd[..., :-1], pd[..., -1]
                sxc = np.einsum("kij,kij->ki", pc, stack.w)
                c = a * inv * inv * sxc / (e - s)
                dw = a[..., None] * pc
                dw -= c[..., None] * ws
                dfs = df[s:e]
                dfs *= 0.5
                dfs -= (a * db / (e - s)).reshape(-1) @ w
                dfs -= xa[s:e, :-1] @ (2.0 * (w.T @ (c[..., None] * stack.w).reshape(-1, m)))
                self.add_grads(w=dw, gamma=sxc * inv, beta=db.copy())  # not a view of pd
        return df, grads

    def record(self, mean, var, ghosts) -> None:
        """Moves the units' batch-norm running statistics by sums of their
        ghosts' means W mu and variances, each (K, 2 * out_dim), over
        ``ghosts`` ghosts."""
        d = self.out_dim
        for k, unit in enumerate(self.units):
            unit.bn1.update_running(mean[k, :d], var[k, :d], ghosts)
            unit.bn2.update_running(mean[k, d:], var[k, d:], ghosts)

    def finished_grads(self) -> dict:
        """Records the summed ghost statistics, if the sums hold any, and
        finishes the units' and batch norms' gradients from the stacked sums:
        each unit's masked weight gradients G * p from the summed raw ones G,
        and one entmax backward of its summed mask gradient (linear in it for
        a fixed mask). A layer has no tensors of its own."""
        sums, d = self.grad_sums, self.out_dim
        if "mean" in sums:
            self.record(sums["mean"], sums["var"], sums["ghosts"])
        masks = (self.mask_cache or UnitStack.of(self.units)).masks
        for k, (unit, mask) in enumerate(zip(self.units, masks)):
            g1, g2 = sums["w"][k, :d], sums["w"][k, d:]
            dmask = np.einsum("ij,ij->j", g1, unit.w1) + np.einsum("ij,ij->j", g2, unit.w2)
            unit.add_grads(mask=entmax15_backward(mask, dmask), w1=g1 * mask.probs,
                           w2=g2 * mask.probs)
            unit.bn1.add_grads(gamma=sums["gamma"][k, :d], beta=sums["beta"][k, :d])
            unit.bn2.add_grads(gamma=sums["gamma"][k, d:], beta=sums["beta"][k, d:])
        return {}

    def children(self):
        return [(f"u{k}", unit) for k, unit in enumerate(self.units)]
