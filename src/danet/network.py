"""The full tabular network: stacked blocks with raw-feature shortcuts.

Each basic block runs two abstraction layers in sequence on the previous
block's output and adds a third abstraction layer applied directly to the raw
input features (so later blocks never lose access to the original columns).
Depth is quoted in main-path abstraction layers: a depth-L network has L/2
blocks. A three-layer MLP head turns the last block's output into class
logits or a regression score.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .entmax import ShapeError
from .layers import AbstractLayer, AbstractUnit, Module, relu


@dataclass
class DANetConfig:
    """Architecture knobs.

    depth     number of main-path abstraction layers; even, >= 2
    k0        branches per abstraction layer
    d0        block output width
    d1        width between the two main-path layers of a block
    dropout   drop probability on each block's shortcut output (train only)
    head_hidden  MLP head hidden width; 0 means 2 * d0
    task      "class" (num_classes-way classification) or "rank" (regression)
    """

    depth: int = 8
    k0: int = 5
    d0: int = 32
    d1: int = 64
    dropout: float = 0.1
    head_hidden: int = 0
    task: str = "class"
    num_classes: int = 2

    def __post_init__(self):
        if self.depth < 2 or self.depth % 2 != 0:
            raise ValueError(f"DANetConfig: depth must be even and >= 2, got {self.depth}")
        if self.k0 < 1 or self.d0 < 1 or self.d1 < 1:
            raise ValueError(
                f"DANetConfig: k0, d0, d1 must be >= 1, got ({self.k0}, {self.d0}, {self.d1})"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"DANetConfig: dropout must be in [0, 1), got {self.dropout}")
        if self.head_hidden < 0:
            raise ValueError(f"DANetConfig: head_hidden must be >= 0, got {self.head_hidden}")
        if self.task not in ("class", "rank"):
            raise ValueError(f"DANetConfig: task must be 'class' or 'rank', got {self.task!r}")
        if self.task == "class" and self.num_classes < 2:
            raise ValueError(f"DANetConfig: num_classes must be >= 2, got {self.num_classes}")

    @property
    def hidden_width(self) -> int:
        return self.head_hidden if self.head_hidden > 0 else 2 * self.d0

    @property
    def out_dim(self) -> int:
        return self.num_classes if self.task == "class" else 1

    @property
    def n_blocks(self) -> int:
        return self.depth // 2


@dataclass
class HeadCtx:
    z: np.ndarray
    a0: np.ndarray
    r0: np.ndarray
    a1: np.ndarray
    r1: np.ndarray


class MlpHead(Module):
    """Three affine layers with ReLU between: in -> hidden -> hidden -> out."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int, rng: np.random.Generator):
        def glorot(fi, fo):
            a = math.sqrt(6.0 / (fi + fo))
            return rng.uniform(-a, a, (fo, fi))

        self.in_dim = in_dim
        self.hidden = hidden
        self.out_dim = out_dim
        self.w0 = glorot(in_dim, hidden)
        self.b0 = np.zeros(hidden)
        self.w1 = glorot(hidden, hidden)
        self.b1 = np.zeros(hidden)
        self.w2 = glorot(hidden, out_dim)
        self.b2 = np.zeros(out_dim)

    def forward(self, z: np.ndarray, train: bool):
        a0 = z @ self.w0.T + self.b0
        r0 = relu(a0)
        a1 = r0 @ self.w1.T + self.b1
        r1 = relu(a1)
        out = r1 @ self.w2.T + self.b2
        if not train:
            return out, None
        return out, HeadCtx(z=z, a0=a0, r0=r0, a1=a1, r1=r1)

    def backward(self, ctx: HeadCtx, dout: np.ndarray):
        """Returns (dz, grads), grads empty inside an enclosing
        ``summing_grads``."""
        with self.summing_grads() as grads:
            dr1 = dout @ self.w2
            da1 = dr1 * (ctx.a1 > 0.0)
            dr0 = da1 @ self.w1
            da0 = dr0 * (ctx.a0 > 0.0)
            self.add_grads(w0=da0.T @ ctx.z, b0=da0.sum(axis=0), w1=da1.T @ ctx.r0,
                           b1=da1.sum(axis=0), w2=dout.T @ ctx.r1, b2=dout.sum(axis=0))
            dz = da0 @ self.w0
        return dz, grads

    def leaves(self):
        return [
            ("w0", "weight", self.w0), ("b0", "bias", self.b0),
            ("w1", "weight", self.w1), ("b1", "bias", self.b1),
            ("w2", "weight", self.w2), ("b2", "bias", self.b2),
        ]


@dataclass
class BlockCtx:
    main1_ctx: object
    main2_ctx: object
    shortcut_ctx: object
    drop_mask: np.ndarray | None


class BasicBlock(Module):
    """Two chained abstraction layers plus a raw-feature shortcut layer.

    out = main2(main1(f_prev)) + dropout(shortcut(x_raw))

    A compressed model keeps this block and its layers, with folded units.
    """

    CHILDREN = ("main1", "main2", "shortcut")

    def __init__(self, in_dim: int, n_raw: int, cfg: DANetConfig, ghost_size: int,
                 rng: np.random.Generator):
        self.in_dim = in_dim
        self.n_raw = n_raw
        self.dropout = cfg.dropout
        self.main1 = AbstractLayer(in_dim, cfg.d1, cfg.k0, ghost_size, rng)
        self.main2 = AbstractLayer(cfg.d1, cfg.d0, cfg.k0, ghost_size, rng)
        self.shortcut = AbstractLayer(n_raw, cfg.d0, cfg.k0, ghost_size, rng)

    def forward(self, f_prev: np.ndarray, x_raw: np.ndarray, train: bool,
                uniforms: np.ndarray | None = None):
        """``uniforms``: one uniform draw per shortcut output, which training
        mode needs when the block has dropout."""
        m1, c1 = self.main1.forward(f_prev, train)
        out, c2 = self.main2.forward(m1, train)
        del m1  # in eval mode nothing else holds it: freed before the shortcut runs
        s, cs = self.shortcut.forward(x_raw, train)
        drop_mask = None
        if train and self.dropout > 0.0:
            if uniforms is None:
                raise ValueError("BasicBlock: dropout in training mode needs the shortcut's "
                                 "dropout uniforms (DANet.forward draws them from its rng)")
            keep = uniforms >= self.dropout
            drop_mask = keep / (1.0 - self.dropout)  # inverted dropout
            s = s * drop_mask
        out += s  # into main2's output, which no context keeps
        if not train:
            return out, None
        return out, BlockCtx(main1_ctx=c1, main2_ctx=c2, shortcut_ctx=cs, drop_mask=drop_mask)

    def backward(self, ctx: BlockCtx, dout: np.ndarray):
        """Returns (df_prev, dx_raw, grads), grads empty inside an enclosing
        ``summing_grads``."""
        with self.summing_grads() as grads:
            ds = dout if ctx.drop_mask is None else dout * ctx.drop_mask
            dx_raw = self.shortcut.backward(ctx.shortcut_ctx, ds)[0]
            dm1 = self.main2.backward(ctx.main2_ctx, dout)[0]
            df_prev = self.main1.backward(ctx.main1_ctx, dm1)[0]
        return df_prev, dx_raw, grads


# rows per scoring call in ``predict``. A block's activations (1024 x 64
# float64 is 512 kB) stay in cache between the matmuls and the elementwise
# steps (8192-row blocks were 1.4x slower). Scored on a pool of two, at
# 512, 1024 and 2048 rows the benchmark's folded model scored 70k rows in
# 1.02, 1.03 and 1.05 s, within the runs' spread of 0.75-1.26 s, and the
# live model 14k rows in 0.43, 0.42 and 0.38 s, within 0.35-0.54 s (medians
# of 3 runs of 5, 2-core box, OpenBLAS on one thread)
PREDICT_BLOCK = 1024


def scoring_threads() -> int:
    """Threads ``predict`` scores on: the CPUs this process may run on over
    the threads BLAS runs each call on, the first positive integer of
    OPENBLAS_NUM_THREADS and OMP_NUM_THREADS (the variables OpenBLAS reads
    when it loads). With neither set BLAS is taken to use every CPU, and
    the width is 1, so pools never oversubscribe the CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, cpus // blas)
    return 1


@dataclass
class ModelCtx:
    x: np.ndarray
    block_ctxs: list
    head_ctx: HeadCtx
    used: bool = field(default=False)


class DANet(Module):
    """Stack of basic blocks plus the MLP head.

    ``depth`` main-path abstraction layers means depth/2 blocks; the first
    block reads the raw features, later blocks read the previous block's
    output, and every block's shortcut reads the raw features. A compressed
    model is a ``DANet`` whose units are folded; it has no training mode.
    """

    def __init__(self, n_features: int, config: DANetConfig, ghost_size: int = 256,
                 seed: int | np.random.Generator = 0):
        if n_features < 1:
            raise ValueError(f"DANet: n_features must be >= 1, got {n_features}")
        rng = np.random.default_rng(seed)
        self.n_features = n_features
        self.config = config
        self.ghost_size = ghost_size
        self.blocks = []
        in_dim = n_features
        for _ in range(config.n_blocks):
            self.blocks.append(BasicBlock(in_dim, n_features, config, ghost_size, rng))
            in_dim = config.d0
        self.head = MlpHead(config.d0, config.hidden_width, config.out_dim, rng)

    @property
    def task(self) -> str:
        return self.config.task

    @property
    def compressed(self) -> bool:
        """True when the units are folded (``reparam.CompressedUnit``)."""
        return not isinstance(self.blocks[0].main1.units[0], AbstractUnit)

    def children(self):
        return [(f"block{i}", block) for i, block in enumerate(self.blocks)] + [("head", self.head)]

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ShapeError(f"DANet: expected (rows, {self.n_features}), got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("DANet: non-finite input")
        return x

    def forward(self, x, train: bool = False, rng: np.random.Generator | None = None,
                uniforms: list | None = None):
        """Training mode takes its dropout from ``uniforms`` (as made by
        ``dropout_uniforms`` for these rows) or else draws them from ``rng``."""
        x = self._check_input(x)
        if train and uniforms is None and rng is not None:
            uniforms = self.dropout_uniforms(rng, x.shape[0])
        f = x
        block_ctxs = []
        for i, block in enumerate(self.blocks):
            f, ctx = block.forward(f, x, train, None if uniforms is None else uniforms[i])
            block_ctxs.append(ctx)
        out, head_ctx = self.head.forward(f, train)
        if not train:
            return out, None
        return out, ModelCtx(x=x, block_ctxs=block_ctxs, head_ctx=head_ctx)

    def dropout_uniforms(self, rng: np.random.Generator, rows: int) -> list:
        """Each block's dropout uniforms for ``rows`` rows, drawn from ``rng``
        in block order (None for a block without dropout)."""
        return [rng.random((rows, block.shortcut.out_dim)) if block.dropout > 0.0 else None
                for block in self.blocks]

    def backward(self, ctx: ModelCtx, dout: np.ndarray):
        """Returns (dx, grads). The raw-input gradient is the sum of every
        shortcut path's contribution plus the first block's main path. A
        whole-batch backward finishes its gradients before it returns; inside
        a training step (``training.batch_gradients``) grads is empty and the
        step finishes the gradients after its last ghost."""
        if ctx is None:
            raise RuntimeError("DANet.backward: no context (forward ran in eval mode?)")
        if ctx.used:
            raise RuntimeError("DANet.backward: context already consumed")
        ctx.used = True
        with self.summing_grads() as grads:
            df = self.head.backward(ctx.head_ctx, dout)[0]
            dx = np.zeros_like(ctx.x)
            for block, bctx in zip(reversed(self.blocks), reversed(ctx.block_ctxs)):
                df, dx_raw, _ = block.backward(bctx, df)
                dx += dx_raw
            dx += df  # the first block's f_prev is the raw input itself
        return dx, grads

    def scores(self, x) -> np.ndarray:
        """Eval-mode forward: logits (rows, num_classes) or scores (rows, 1)."""
        out, _ = self.forward(x, train=False)
        return out

    def predict(self, x) -> np.ndarray:
        """Class labels (argmax of the logits, ties to the lowest index) or
        the regression scores as a flat vector, scored in blocks of
        ``PREDICT_BLOCK`` rows (one call for an empty input).

        A live model scores its folded twin (``reparam.compress_model``,
        equal to the eval forward within rounding), made for this call. The
        blocks run on a pool of ``scoring_threads()`` threads made for this
        call too, which numpy's matmuls and ufuncs let run side by side; each
        block is scored as it would be alone, so the result does not depend
        on the width."""
        from concurrent.futures import ThreadPoolExecutor  # not an import-time cost
        from .reparam import compress_model  # reparam builds on this module

        x = self._check_input(x)
        model = self if self.compressed else compress_model(self)
        blocks = [x[s:s + PREDICT_BLOCK] for s in range(0, max(x.shape[0], 1), PREDICT_BLOCK)]
        with ThreadPoolExecutor(scoring_threads()) as pool:
            out = np.concatenate(list(pool.map(model.scores, blocks)))
        if self.config.task == "class":
            return np.argmax(out, axis=1)
        return out[:, 0]

    def state_dict(self) -> dict:
        """Deep copy of all parameters, running stats, and BN update counts."""
        return {
            "params": {n: arr.copy() for n, _, arr in self.named_params()},
            "buffers": {n: arr.copy() for n, arr in self.named_buffers()},
            "counters": {n: bn.updates for n, bn in self.named_bns()},
        }

    def load_state(self, state: dict) -> None:
        for n, _, arr in self.named_params():
            arr[...] = state["params"][n]
        for n, arr in self.named_buffers():
            arr[...] = state["buffers"][n]
        for n, bn in self.named_bns():
            bn.updates = state["counters"][n]


@dataclass
class FlopsReport:
    """Per-layer floating-point operation counts for one instance, eval mode.

    Convention (documented here and in the README): multiplies and adds count
    one each; an affine map from m to d inputs costs 2*d*m + d; the sparse
    mask projection over n logits costs n*ceil(log2 n) for the sort plus n
    for the threshold scan; batch norm in eval mode costs 2 per feature;
    sigmoid and ReLU cost 1 per feature. Counting stops at the head output.
    """

    lines: list  # (name, flops) in network order
    total: int

    def as_dict(self) -> dict:
        return dict(self.lines)


def _entmax_flops(n: int) -> int:
    return n * math.ceil(math.log2(n)) + n if n > 1 else 1


def _unit_flops(unit) -> int:
    m, d = unit.in_dim, unit.out_dim
    flops = 2 * (2 * d * m + d) + 3 * d  # two biased affines, sigmoid, gate product, ReLU
    if isinstance(unit, AbstractUnit):
        # the mask projection and product run every forward, and each
        # eval-mode batch norm costs 2 per feature where a bias costs 1
        flops += _entmax_flops(m) + m + 2 * d
    return flops


def count_flops(model) -> FlopsReport:
    """Inference cost of one instance for a live or compressed model. The
    count depends only on shapes, so ``count_flops(compressed_like(model))``
    is what the folded twin of an untrained model would cost."""
    lines = []
    for i, block in enumerate(model.blocks):
        for role, layer in block.children():
            flops = sum(_unit_flops(u) for u in layer.units)
            lines.append((f"block{i}.{role}", flops + (len(layer.units) - 1) * layer.out_dim))
        lines.append((f"block{i}.sum", block.main2.out_dim))
    head = model.head
    lines.append(("head.fc0", 2 * head.hidden * head.in_dim + head.hidden))
    lines.append(("head.relu0", head.hidden))
    lines.append(("head.fc1", 2 * head.hidden * head.hidden + head.hidden))
    lines.append(("head.relu1", head.hidden))
    lines.append(("head.fc2", 2 * head.out_dim * head.hidden + head.out_dim))
    return FlopsReport(lines=lines, total=sum(n for _, n in lines))
