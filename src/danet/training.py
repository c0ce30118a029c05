"""Losses, the quasi-hyperbolic Adam optimizer, and the training loop.

The optimizer interpolates between plain SGD and Adam through the two nu
discount factors: the numerator mixes the bias-corrected first moment with
the raw gradient, the denominator mixes the bias-corrected second moment
with the squared gradient (nu1 = nu2 = 1 would be Adam). These and the moment
decays are fixed constants of the recipe. Weight decay is decoupled (a
multiplicative shrink before the step) and applies to weight matrices only,
not biases, batch-norm affine parameters, or mask logits.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .layers import AbstractLayer
from .network import MlpHead, scoring_threads


class TrainingError(RuntimeError):
    """Training aborted (non-finite loss or invalid setup)."""


@dataclass
class TrainConfig:
    """Optimization knobs. Defaults are the reference recipe: batch 8192 with
    ghost batches of 256, initial lr 0.008. The recipe's schedule (lr times
    0.95 every 20 epochs) and decoupled weight decay 1e-5 are fixed
    constants."""

    decay_factor: ClassVar[float] = 0.95
    decay_every: ClassVar[int] = 20
    weight_decay: ClassVar[float] = 1e-5

    batch_size: int = 8192
    ghost_size: int = 256
    lr0: float = 0.008
    max_epochs: int = 200
    patience: int = 30
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"TrainConfig: batch_size must be >= 1, got {self.batch_size}")
        if self.ghost_size < 1 or self.ghost_size > self.batch_size:
            raise ValueError(
                f"TrainConfig: need 1 <= ghost_size <= batch_size, got "
                f"ghost_size={self.ghost_size}, batch_size={self.batch_size}"
            )
        if not 0.0 < self.lr0 < math.inf:  # false for nan too
            raise ValueError(f"TrainConfig: lr0 must be positive and finite, got {self.lr0}")
        if self.max_epochs < 1 or self.patience < 1:
            raise ValueError("TrainConfig: max_epochs and patience must be >= 1")
        if self.seed < 0:
            raise ValueError(f"TrainConfig: seed must be >= 0, got {self.seed}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step-decayed learning rate for a 0-based epoch index."""
    if epoch < 0:
        raise ValueError(f"lr_at: epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.decay_factor ** (epoch // cfg.decay_every)


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """Mean negative log-likelihood and its gradient w.r.t. the logits.

    Stabilized with the log-sum-exp shift; grad = (softmax - onehot) / batch.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"cross_entropy: labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"cross_entropy: labels must lie in [0, {c})")
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(n)
    loss = float(np.mean(lse - shifted[rows, labels]))
    probs = np.exp(shifted - lse[:, None])
    grad = probs
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


def mse(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and gradient 2*(pred - target)/n."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"mse: shapes differ, {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


def _bias_adj(beta: float, step: int) -> float:
    # weight of the running moment in the bias-corrected EMA at this step
    return 1.0 - (1.0 - beta) / (1.0 - beta ** step)


class QhAdam:
    """Quasi-hyperbolic Adam over a model's named parameters.

    Holds per-parameter first/second moment accumulators and a shared step
    counter. ``step`` expects a gradient dict keyed exactly like the
    parameter names handed to the constructor.
    """

    # the reference recipe's discount factors, moment decays and eps
    nu1, nu2 = 0.8, 1.0
    beta1, beta2 = 0.995, 0.999
    eps = 1e-8

    def __init__(self, named_params: list, cfg: TrainConfig):
        self.cfg = cfg
        self.params = list(named_params)  # (name, kind, array)
        self.exp_avg = {n: np.zeros_like(arr) for n, _, arr in self.params}
        self.exp_avg_sq = {n: np.zeros_like(arr) for n, _, arr in self.params}
        self.steps = 0

    def step(self, grads: dict, lr: float) -> None:
        self.steps += 1
        adj1 = _bias_adj(self.beta1, self.steps)
        adj2 = _bias_adj(self.beta2, self.steps)
        for name, kind, p in self.params:
            g = grads[name]
            if kind == "weight":
                p *= 1.0 - lr * self.cfg.weight_decay
            m = self.exp_avg[name]
            v = self.exp_avg_sq[name]
            m *= adj1
            m += (1.0 - adj1) * g
            v *= adj2
            v += (1.0 - adj2) * (g * g)
            num = self.nu1 * m + (1.0 - self.nu1) * g
            den = np.sqrt(self.nu2 * v + (1.0 - self.nu2) * (g * g)) + self.eps
            p -= lr * num / den


def _ghost_step(model, x, targets, uniforms, scale: float) -> float:
    # forward, loss and backward of one ghost; its context dies on return
    out, ctx = model.forward(x, train=True, uniforms=uniforms)
    if model.task == "class":
        loss, dout = cross_entropy(out, targets)
    else:
        loss, dout = mse(out[:, 0], targets)
        dout = dout[:, None]
    dout *= scale
    model.backward(ctx, dout)
    return loss * scale


def batch_gradients(model, x: np.ndarray, targets: np.ndarray, rng: np.random.Generator,
                    pool=None):
    """Mean loss and parameter gradients of one training batch, computed one
    ghost at a time.

    Rows of different ghosts meet only in the batch-norm running statistics
    and in the gradient sum, so the batch's dropout uniforms are drawn from
    ``rng`` first (in block order, as a whole-batch training forward draws
    them), then each ghost, the short tail one included, runs forward, loss
    scaled by its share of the rows, and backward, which adds its gradients
    into each module's sums before the next ghost's forward; each layer's
    forward adds its ghost's batch-norm statistics there too. Inside
    ``Module.fixed_params`` each layer stacks its units' masks and masked
    weights once for the step. Inside ``Module.summing_grads`` the sums are
    finished once, after the last ghost: each layer moves its batch norms'
    running statistics once, from the ghost statistics summed in ghost order,
    and finishes its units' gradients: it masks their summed weight
    gradients and runs one entmax backward each. The result equals a
    whole-batch ``forward(train=True)`` and ``backward`` up to the order of
    the sums, while only one ghost's activations are alive at a time.

    The ghosts run on ``pool`` (a ``GhostPool``, see ``ghost_pool``) when
    given, else in this process. The result is the same bits either way.
    """
    if pool is not None:
        return pool.gradients(model, x, targets, rng)
    rows, ghost = x.shape[0], model.ghost_size
    uniforms = model.dropout_uniforms(rng, rows)
    loss = 0.0
    with model.fixed_params(), model.summing_grads() as grads:
        for s in range(0, rows, ghost):
            loss += _ghost_step(model, *_ghost(x, targets, uniforms, s, ghost))
    return loss, grads


def _ghost(x, targets, uniforms, s: int, ghost: int):
    # the rows, targets, dropout uniforms and loss scale of the ghost at row s
    rows, rs = x.shape[0], slice(s, s + ghost)
    return (x[rs], targets[rs], [None if u is None else u[rs] for u in uniforms],
            (min(rows, s + ghost) - s) / rows)


def _addends(model) -> list:
    """(module, key, shape) of each array one ghost adds into the step's open
    sums, in walk order: each layer's stacked gradients ``w``, ``gamma`` and
    ``beta``, its ghost statistics ``mean`` and ``var`` and their count
    ``ghosts``, and the head's gradients."""
    out = []
    for _, m in model.walk():
        if isinstance(m, AbstractLayer):
            ks = (len(m.units), 2 * m.out_dim)
            out += [(m, "w", ks + (m.in_dim,)), (m, "ghosts", (1,))]
            out += [(m, key, ks) for key in ("gamma", "beta", "mean", "var")]
        elif isinstance(m, MlpHead):
            out += [(m, name, arr.shape) for name, _, arr in m.leaves()]
    return out


@contextmanager
def ghost_pool(model, rows: int):
    """A ``GhostPool`` for the training steps of ``model`` on batches of at
    most ``rows`` rows, closed on exit, or None where its width would be 1.

    The width is ``network.scoring_threads()``, the rule ``predict`` scores
    on (the CPUs over the BLAS threads, 1 with BLAS unpinned), capped at the
    ghosts of a ``rows``-row batch. It is 1 without ``os.fork`` and in a
    daemonic process (as in a ``multiprocessing.Pool``), which may not have
    children."""
    width = min(scoring_threads(), -(-rows // model.ghost_size))
    if width > 1 and hasattr(os, "fork"):
        import multiprocessing  # not an import-time cost

        if not multiprocessing.current_process().daemon:
            pool = GhostPool(model, rows, width)
            try:
                yield pool
            finally:
                pool.close()
            return
    yield None


class GhostPool:
    """``width`` worker processes, forked from this one, that run the ghosts
    of training steps, and the anonymous shared memory they work in.

    The memory holds the step's parameters (copied in once per step), the
    batch's rows, targets and dropout uniforms (drawn from the caller's
    ``rng`` straight into it, in the serial order), and a ring of ``slots``
    payloads per worker. This process hands each ghost, in ghost order, to
    the next idle worker with a free slot, so a worker slowed by the rest
    of the machine takes fewer ghosts instead of holding up the step. A
    worker writes into the slot one ghost's scaled loss and what its forward
    and backward add into the step's open sums (``_addends``: gradients,
    batch-norm statistics and their ghost count). This process merges the
    ghosts in ghost order, whoever ran them and whenever they finished, with
    the serial step's own additions (the first copies, later ones ``+=``),
    frees each slot as it merges it, and finishes the sums once, which moves
    the running statistics, so the step is the serial step bit for bit.
    Pipes carry only control messages. A worker exits at the end of its
    pipe, so it outlives neither ``close`` nor a killed parent; its
    exception is raised here.
    """

    slots = 3

    def __init__(self, model, rows: int, width: int):
        import mmap
        import multiprocessing

        self.width, self.ghost = width, model.ghost_size
        self.addends = _addends(model)
        params = [arr.shape for _, _, arr in model.named_params()]
        drops = [(rows, b.shortcut.out_dim) for b in model.blocks if b.dropout > 0.0]
        payload = [(1,)] + [shape for _, _, shape in self.addends]
        shapes = (params + [(rows, model.n_features), (rows,)] + drops
                  + payload * (width * self.slots))
        sizes = [-(-math.prod(shape) // 8) * 8 for shape in shapes]  # 64-byte aligned
        self.mem = mmap.mmap(-1, 8 * max(sum(sizes), 1))
        flat = np.frombuffer(self.mem, dtype=np.float64)
        offsets = np.cumsum([0] + sizes)
        views = [flat[o:o + math.prod(shape)].reshape(shape)
                 for o, shape in zip(offsets, shapes)]
        n = len(params)
        self.params, (self.x, self.t), rest = views[:n], views[n:n + 2], views[n + 2:]
        self.uniforms = [rest.pop(0) if b.dropout > 0.0 else None for b in model.blocks]
        per = len(payload)
        self.ring = [rest[i:i + per] for i in range(0, len(rest), per)]
        self.conns, self.procs = [], []
        ctx = multiprocessing.get_context("fork")
        try:
            for index in range(width):
                parent_end, child_end = ctx.Pipe()
                self.conns.append(parent_end)
                proc = ctx.Process(target=self._serve, args=(model, index, child_end),
                                   daemon=True, name=f"danet-ghosts-{index}")
                proc.start()
                child_end.close()
                self.procs.append(proc)
        except BaseException:
            self.close()
            raise

    def gradients(self, model, x, targets, rng):
        """``batch_gradients`` of one batch on the workers; any exception
        closes the pool."""
        try:
            return self._gradients(model, x, targets, rng)
        except BaseException:
            self.close()
            raise

    def _gradients(self, model, x, targets, rng):
        if not self.procs:
            raise RuntimeError("GhostPool: the pool is closed")
        rows = x.shape[0]
        for view, (_, _, arr) in zip(self.params, model.named_params()):
            view[...] = arr
        self.x[:rows] = model._check_input(x)
        targets = np.asarray(targets)
        self.t.view(targets.dtype)[:rows] = targets
        for u in self.uniforms:  # in block order, as dropout_uniforms draws them
            if u is not None:
                rng.random(out=u[:rows])
        ghosts = -(-rows // self.ghost)
        conns = self.conns[:min(self.width, ghosts)]
        for conn in conns:
            conn.send((rows, targets.dtype.str))
        loss = 0.0
        with model.fixed_params(), model.summing_grads() as grads:
            for loss_view, *views in self._in_ghost_order(conns, ghosts):
                loss += float(loss_view[0])
                for (m, key, _), view in zip(self.addends, views):
                    if key in m.grad_sums:
                        m.grad_sums[key] += view
                    else:
                        m.grad_sums[key] = view.copy()
        return loss, grads

    def _in_ghost_order(self, conns, ghosts: int):
        """Yields the payload of each of the step's ``ghosts`` in ghost
        order, each once its worker has written it; the slot is free again
        when the caller asks for the next one. Ghosts are handed out in ghost
        order, one at a time to each idle worker, while a slot is free; once
        the last is handed out, every worker is told the step is over."""
        from multiprocessing.connection import wait

        idle, free, slot_of, done = list(conns), list(range(len(self.ring))), {}, set()

        def hand_out():
            while idle and free and len(slot_of) < ghosts:
                g = len(slot_of)
                slot_of[g] = free.pop()
                idle.pop(0).send((g, slot_of[g]))
                if len(slot_of) == ghosts:
                    for conn in conns:
                        conn.send(None)  # after its last ghost, the worker leaves the step

        hand_out()
        for g in range(ghosts):
            while g not in done:
                for conn in wait([c for c in conns if c not in idle]):
                    done.add(self._receive(conn, g))
                    idle.append(conn)
                hand_out()  # before merging, so no worker waits on it
            yield self.ring[slot_of[g]]
            free.append(slot_of[g])
            hand_out()

    def _receive(self, conn, g: int) -> int:
        # the ghost a worker reports done; its exception, or its end, raised here
        try:
            message = conn.recv()
        except EOFError:
            index = self.conns.index(conn)
            raise TrainingError(f"GhostPool: worker {index} exited while ghost {g} "
                                f"was awaited") from None
        if isinstance(message, BaseException):
            raise message
        return message

    def _serve(self, model, index: int, conn) -> None:
        # a worker's loop: a step's shape, then its ghosts one message each
        # until None, until the pipe ends; after its exception it reads on
        # until then, so no message of the parent's breaks on its pipe
        import signal

        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C and closes
        for other in self.conns:  # only the parent holds the parent ends, so EOF reaches us
            other.close()
        params = [arr for _, _, arr in model.named_params()]
        modules = [m for _, m in model.walk()]
        try:
            while True:
                rows, dtype = conn.recv()
                for arr, view in zip(params, self.params):
                    arr[...] = view
                x, t = self.x[:rows], self.t.view(dtype)[:rows]
                uniforms = [None if u is None else u[:rows] for u in self.uniforms]
                with model.fixed_params():
                    while (job := conn.recv()) is not None:
                        g, slot = job
                        for m in modules:
                            m.grad_sums = {}
                        loss_view, *views = self.ring[slot]
                        loss_view[0] = _ghost_step(model, *_ghost(x, t, uniforms,
                                                                  g * self.ghost, self.ghost))
                        for (m, key, _), view in zip(self.addends, views):
                            view[...] = m.grad_sums[key]
                        conn.send(g)
        except (EOFError, OSError):
            return  # the parent closed the pool or is gone
        except Exception as exc:  # reported to the parent, which raises it
            try:
                conn.send(exc)
            except Exception:  # it does not pickle
                conn.send(RuntimeError(f"training worker {index}: {exc!r}"))
        with suppress(EOFError, OSError):
            while True:
                conn.recv()

    def close(self) -> None:
        """Ends the workers (they see their pipes end) and waits for them."""
        for conn in self.conns:
            conn.close()
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.terminate()
                proc.join()
        self.conns, self.procs = [], []


def evaluate(model, dataset) -> float:
    """Accuracy for classification, mean squared error for regression."""
    if dataset.n_rows < 1:
        raise ValueError("evaluate: empty dataset (0 rows), no metric to compute")
    preds = model.predict(dataset.features)
    if model.task == "class":
        return float(np.mean(preds == dataset.targets))
    return float(np.mean((preds - dataset.targets) ** 2))


@dataclass
class FitResult:
    history: list  # (epoch, lr, train_loss, valid_metric)
    best_epoch: int
    best_metric: float

    @property
    def epochs_run(self) -> int:
        return len(self.history)


def fit(model, train_set, valid_set, cfg: TrainConfig) -> FitResult:
    """Mini-batch training with best-validation parameter retention.

    Each epoch reshuffles with the seeded stream (the final short batch is
    kept), computes each batch's gradients ghost by ghost
    (``batch_gradients``, on one ``ghost_pool`` forked for the whole fit and
    closed on every exit), steps the optimizer at the epoch's decayed rate,
    then scores the validation set (``evaluate``, whose ``predict`` scores
    the model's folded twin). The parameters (and batch-norm statistics) of
    the best validation epoch are restored before returning. Stops early
    after ``patience`` epochs without improvement.
    """
    n = train_set.features.shape[0]
    if n < 1:
        raise TrainingError("fit: empty training set")
    if valid_set.n_rows < 1:
        raise TrainingError("fit: empty validation set (raise the validation fraction)")
    if cfg.ghost_size != model.ghost_size:
        raise TrainingError(f"fit: TrainConfig ghost_size={cfg.ghost_size} differs from the "
                            f"model's ghost_size={model.ghost_size}")
    rng = np.random.default_rng(cfg.seed)
    opt = QhAdam(model.named_params(), cfg)
    task = model.task
    history = []
    best_metric = -np.inf if task == "class" else np.inf
    best_epoch = -1
    best_state = None
    since_best = 0

    with ghost_pool(model, min(n, cfg.batch_size)) as pool:
        for epoch in range(cfg.max_epochs):
            lr = lr_at(epoch, cfg)
            perm = rng.permutation(n)
            loss_sum = 0.0
            for bi, start in enumerate(range(0, n, cfg.batch_size)):
                idx = perm[start:start + cfg.batch_size]
                loss, grads = batch_gradients(model, train_set.features[idx],
                                              train_set.targets[idx], rng, pool)
                if not np.isfinite(loss):
                    raise TrainingError(
                        f"fit: non-finite loss {loss} at epoch {epoch}, batch {bi} "
                        f"(lr={lr:.6g}, batch rows={len(idx)})"
                    )
                loss_sum += loss * len(idx)
                opt.step(grads, lr)
            train_loss = loss_sum / n
            valid_metric = evaluate(model, valid_set)
            history.append((epoch, lr, train_loss, valid_metric))
            improved = (valid_metric > best_metric if task == "class"
                        else valid_metric < best_metric)
            if improved:
                best_metric = valid_metric
                best_epoch = epoch
                best_state = model.state_dict()
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break

    if best_state is not None:
        model.load_state(best_state)
    return FitResult(history=history, best_epoch=best_epoch, best_metric=best_metric)


def history_to_csv(history: list, path) -> None:
    """Write fit history as CSV with columns epoch, lr, train_loss, valid_metric."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "lr", "train_loss", "valid_metric"])
        for epoch, lr, train_loss, valid_metric in history:
            writer.writerow([epoch, repr(float(lr)), repr(float(train_loss)),
                             repr(float(valid_metric))])
