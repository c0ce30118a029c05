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
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .reparam import compress_model


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


def batch_gradients(model, x: np.ndarray, targets: np.ndarray, rng: np.random.Generator):
    """Mean loss and parameter gradients of one training batch, computed one
    ghost at a time.

    Rows of different ghosts meet only in the batch-norm running statistics
    and in the gradient sum, so the batch's dropout uniforms are drawn from
    ``rng`` first (in block order, as a whole-batch training forward draws
    them), then each ghost, the short tail one included, runs forward, loss
    scaled by its share of the rows, and backward, which adds its gradients
    into each module's sums before the next ghost's forward. Inside
    ``Module.fixed_params`` each unit computes its mask and masked weights
    once for the step, and each batch norm updates its running statistics
    once, from the ghost statistics summed in ghost order. Inside
    ``Module.summing_grads`` the gradients are finished once, after the last
    ghost: each unit masks its summed weight gradients and runs one entmax
    backward. The result equals a whole-batch ``forward(train=True)`` and
    ``backward`` up to the order of the sums, while only one ghost's
    activations are alive at a time.
    """
    rows, ghost = x.shape[0], model.ghost_size
    uniforms = model.dropout_uniforms(rng, rows)
    loss = 0.0
    with model.fixed_params(), model.summing_grads() as grads:
        for s in range(0, rows, ghost):
            rs = slice(s, s + ghost)
            loss += _ghost_step(model, x[rs], targets[rs],
                                [None if u is None else u[rs] for u in uniforms],
                                (min(rows, s + ghost) - s) / rows)
    return loss, grads


def evaluate(model, dataset) -> float:
    """Accuracy for classification, mean squared error for regression."""
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
    (``batch_gradients``), steps the optimizer at the epoch's decayed rate,
    then scores the validation set with the model's folded twin
    (``compress_model``, equal to the eval-mode model within rounding; every
    batch norm has its statistics after the first step). The parameters (and
    batch-norm statistics) of the best validation epoch are restored before
    returning. Stops early after ``patience`` epochs without improvement.
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

    for epoch in range(cfg.max_epochs):
        lr = lr_at(epoch, cfg)
        perm = rng.permutation(n)
        loss_sum = 0.0
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            loss, grads = batch_gradients(model, train_set.features[idx],
                                          train_set.targets[idx], rng)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"fit: non-finite loss {loss} at epoch {epoch}, batch {bi} "
                    f"(lr={lr:.6g}, batch rows={len(idx)})"
                )
            loss_sum += loss * len(idx)
            opt.step(grads, lr)
        train_loss = loss_sum / n
        valid_metric = evaluate(compress_model(model), valid_set)
        history.append((epoch, lr, train_loss, valid_metric))
        improved = (valid_metric > best_metric) if task == "class" else (valid_metric < best_metric)
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
