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
follow from the ghost's input moments, so the unit folds both into its
masked weights ghost by ghost (``AbstractUnit.forward``), as ``reparam``
folds eval-mode ones. ``GhostBatchNorm`` stays the standalone layer and
keeps the running statistics for both.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .entmax import EntmaxResult, ShapeError, entmax15, entmax15_backward


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # tanh form: stable for large |x| without branching on sign. The same
    # bits as 0.5 * (1.0 + np.tanh(0.5 * x)), computed in one array: ``out``
    # (which may be x) or else a new one
    if out is None:
        t = np.asarray(0.5 * x)  # a 0-d array for a scalar, so tanh can write in place
    else:
        t = np.multiply(x, 0.5, out=out)
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


def centre_ghosts(x: np.ndarray, ghost_size: int):
    """(bounds, xc, means) of a training-mode input: each ghost's (start,
    stop) rows (the last ghost may be shorter), x minus its ghost's column
    means, and those means, one (cols,) array per ghost."""
    rows = x.shape[0]
    if rows < 1:
        raise ValueError("ghost batch norm: empty batch in training mode")
    bounds = [(s, min(s + ghost_size, rows)) for s in range(0, rows, ghost_size)]
    xc = np.empty_like(x)
    means = []
    for s, e in bounds:
        mu = x[s:e].sum(axis=0) / (e - s)
        np.subtract(x[s:e], mu, out=xc[s:e])
        means.append(mu)
    return bounds, xc, means


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
    An abstraction unit folds its two batch norms into its weights instead
    of running this forward, and hands its ghost statistics to ``record``.
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

        bounds, xc, means = centre_ghosts(x, self.ghost_size)
        invs, stats = [], []
        for (s, e), mu in zip(bounds, means):
            # the biased variance as one-pass column sums of the centred ghost
            c = xc[s:e]
            var = np.einsum("ij,ij->j", c, c) / (e - s)
            invs.append(1.0 / np.sqrt(var + self.eps))
            stats.append((mu, var))
        self.record(stats)
        ctx = BatchNormCtx(bounds=bounds, xc=xc, inv=invs)
        return self.output(ctx), ctx

    def record(self, stats: list):
        """Takes one training forward's ghost statistics, (mean, biased
        variance) pairs in ghost order: inside ``Module.fixed_params`` they
        are added to the step's sums, elsewhere the running statistics move
        by them at once."""
        deferred = self.pending is not None
        sums = self.pending if deferred else [0.0, 0.0, 0]
        for mu, var in stats:
            sums[0] += mu
            sums[1] += var
        sums[2] += len(stats)
        if not deferred:
            self.update_running(*sums)

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
class GhostMoments:
    """A training-mode layer input's ghost moments, made once for all the
    layer's units (``AbstractUnit.forward_sum``)."""

    bounds: list  # (start, stop) row ranges, one per ghost
    fc: np.ndarray  # the input minus its ghost's column means
    means: list  # per-ghost column means, each (in_dim,)
    scatter: list  # per-ghost fc^T fc, each (in_dim, in_dim)

    @classmethod
    def of(cls, f: np.ndarray, ghost_size: int) -> GhostMoments:
        bounds, fc, means = centre_ghosts(f, ghost_size)
        return cls(bounds=bounds, fc=fc, means=means,
                   scatter=[fc[s:e].T @ fc[s:e] for s, e in bounds])


@dataclass
class UnitCtx:
    mask: EntmaxResult
    w: np.ndarray  # [w1 * p; w2 * p], (2 * out_dim, in_dim)
    moments: GhostMoments  # the layer input's, shared with the layer's other units
    qh: np.ndarray  # (2, rows, out_dim): the gate q and the gated value h2
    ghosts: list  # per ghost (inv, a, w S, a w), a = gamma * inv


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
        """(mask, [w1; w2] * p) with mask = entmax15(mask_logits) and p its
        probabilities, computed from the current logits and weights; inside
        ``Module.fixed_params`` the first call's pair is kept and returned
        again."""
        if self.mask_cache:
            return self.mask_cache
        mask = entmax15(self.mask_logits)
        pair = mask, np.concatenate((self.w1, self.w2)) * mask.probs
        if self.mask_cache is not None:
            self.mask_cache = pair
        return pair

    def forward(self, f: np.ndarray, train: bool, moments: GhostMoments | None = None):
        """q = sigmoid(BN1(f (W1*p)^T)) gates h2 = BN2(f (W2*p)^T), W = [w1; w2]
        * p the weights under the learned sparse mask p shared by every row;
        ReLU on the product.

        Training mode folds both batch norms into W ghost by ghost. Within a
        ghost of n rows a training-mode batch norm is an affine map whose
        statistics follow from the input's moments (``moments``, which a
        layer makes once for all its units): the mean W mu and the variance
        rowsum((W S) * W) / n, S = fc^T fc. With inv = 1 / sqrt(var + eps)
        and a = gamma * inv the pre-activations h1 and h2 are
        fc (a W)^T + beta, kept as the two halves of one array."""
        if f.ndim != 2 or f.shape[1] != self.in_dim:
            raise ShapeError(f"AbstractUnit: expected (rows, {self.in_dim}), got {f.shape}")
        mask, w = self.masked()
        d = self.out_dim
        if not train:
            h1, _ = self.bn1.forward(f @ w[:d].T, False)
            q = sigmoid(h1)
            h2, _ = self.bn2.forward(f @ w[d:].T, False)
            out = np.multiply(q, h2, out=h2)
            np.maximum(out, 0.0, out=out)
            return out, None

        if moments is None:
            moments = GhostMoments.of(f, self.bn1.ghost_size)
        gamma = np.concatenate((self.bn1.gamma, self.bn2.gamma))
        beta = np.stack((self.bn1.beta, self.bn2.beta))[:, None, :]
        qh = np.empty((2, f.shape[0], d))
        ghosts, stats = [], []
        for (s, e), mu, scatter in zip(moments.bounds, moments.means, moments.scatter):
            ws = w @ scatter
            var = np.einsum("ij,ij->i", ws, w) / (e - s)
            inv = 1.0 / np.sqrt(var + GhostBatchNorm.eps)
            a = gamma * inv
            aw = a[:, None] * w
            h = np.matmul(moments.fc[s:e], aw.reshape(2, d, -1).transpose(0, 2, 1),
                          out=qh[:, s:e])
            h += beta
            ghosts.append((inv, a, ws, aw))
            stats.append((w @ mu, var))
        self.bn1.record([(mean[:d], var[:d]) for mean, var in stats])
        self.bn2.record([(mean[d:], var[d:]) for mean, var in stats])
        q = sigmoid(qh[0], out=qh[0])
        out = q * qh[1]
        np.maximum(out, 0.0, out=out)
        return out, UnitCtx(mask=mask, w=w, moments=moments, qh=qh, ghosts=ghosts)

    @staticmethod
    def forward_sum(units, f: np.ndarray, train: bool):
        """(sum of the units' outputs on f, their contexts): how a layer runs
        its units. In training mode f is centred once per ghost for all of
        them (``GhostMoments``), as a folded unit class
        (``reparam.CompressedUnit``) prepares its input once."""
        moments = GhostMoments.of(f, units[0].bn1.ghost_size) if train else None
        total, ctx = units[0].forward(f, train, moments)
        ctxs = [ctx]
        for unit in units[1:]:
            out, ctx = unit.forward(f, train, moments)
            total += out  # into the first unit's output, which no context keeps
            ctxs.append(ctx)
        return total, ctxs

    def backward(self, ctx: UnitCtx, dout: np.ndarray):
        """Returns (df, grads), grads keyed like ``named_params`` (empty
        inside an enclosing ``summing_grads``), as a layer of one unit
        (``backward_sum``)."""
        with self.summing_grads() as grads:
            df = self.backward_sum([self], [ctx], dout)
        return df, grads

    @staticmethod
    def backward_sum(units, ctxs, dout: np.ndarray) -> np.ndarray:
        """The input gradient of the sum of the units' outputs, from the
        contexts of their ``forward_sum``; each unit adds its gradients into
        the open sums. Per ghost the gradient is the units' summed
        D (a W) - (a db / n) W terms minus one fc @ sum(W^T c W)."""
        moments = ctxs[0].moments
        df = np.zeros_like(moments.fc)
        terms = [[0.0, 0.0] for _ in moments.bounds]
        for unit, ctx in zip(units, ctxs):
            unit.add_backward(ctx, dout, df, terms)
        for (s, e), (shift, m) in zip(moments.bounds, terms):
            d = df[s:e]
            d -= shift
            d -= moments.fc[s:e] @ m
        return df

    def add_backward(self, ctx: UnitCtx, dout: np.ndarray, df: np.ndarray, terms: list):
        """The unit's share of ``backward_sum``. From the gate chain's
        D = [dh1 | dh2], per ghost of n rows: db = sum(D),
        Pc = D^T fc, sxc = rowsum(Pc * W) (dgamma is sxc * inv) and
        c = a * inv**2 * sxc / n. The raw weight gradient is
        a Pc - c (W S); D (a W) goes into df, and (a db / n) W and W^T c W
        into the ghost's terms. The mask is applied to the weight gradients
        when they are finished (``finished_grads``)."""
        d = self.out_dim
        qh, w, moments = ctx.qh, ctx.w, ctx.moments
        q, h2 = qh
        dh = np.empty_like(qh)
        dh1, dh2 = dh
        np.multiply(q, h2, out=dh2)
        np.greater(dh2, 0.0, out=dh2)  # the ReLU's gate, as 1.0 or 0.0
        dh2 *= dout
        np.multiply(h2, dh2, out=dh1)  # dq, taken through the sigmoid below
        dh1 *= q
        dh1 *= 1.0 - q
        dh2 *= q
        self.grad_sums["entmax"] = ctx.mask  # the mask finished_grads applies
        for (s, e), (inv, a, ws, aw), term in zip(moments.bounds, ctx.ghosts, terms):
            n = e - s
            g = dh[:, s:e]
            db = g.sum(axis=1).reshape(-1)
            dw = np.matmul(g.transpose(0, 2, 1), moments.fc[s:e]).reshape(2 * d, -1)
            sxc = np.einsum("ij,ij->i", dw, w)
            c = a * inv * inv * sxc / n
            dw *= a[:, None]
            dw -= c[:, None] * ws
            dfs = df[s:e]
            dfs += g[0] @ aw[:d]
            dfs += g[1] @ aw[d:]
            term[0] += (a * db / n) @ w
            term[1] += w.T @ (c[:, None] * w)
            dgamma = sxc * inv
            self.add_grads(w1=dw[:d], w2=dw[d:])
            self.bn1.add_grads(gamma=dgamma[:d], beta=db[:d])
            self.bn2.add_grads(gamma=dgamma[d:], beta=db[d:])

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
            df = self.units[0].backward_sum(self.units, ctx.unit_ctxs, dout)
        return df, grads

    def children(self):
        return [(f"u{k}", unit) for k, unit in enumerate(self.units)]
