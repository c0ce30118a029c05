"""Shared test utilities: independent oracles and gradient-check plumbing."""

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from danet import DANet, DANetConfig, DataError, Dataset, entmax15, network, training
from danet.entmax import EntmaxResult, entmax15_backward
from danet.layers import AbstractLayer, AbstractUnit, GhostBatchNorm, Module, relu, sigmoid


def finite_diff_grad(f, x, h=1e-5):
    """Central-difference gradient of a scalar function, one coordinate at a time.

    Accepts any array shape; the returned gradient has the same shape. Used
    as the independent check against the analytic backward passes.
    """
    x = np.array(x, dtype=np.float64)  # private copy; perturbed in place below
    if h <= 0:
        raise ValueError(f"finite_diff_grad: h must be positive, got {h}")
    g = np.empty_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(x))
        flat[i] = orig - h
        fm = float(f(x))
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError(f"finite_diff_grad: non-finite value at coordinate {i}")
        out[i] = (fp - fm) / (2.0 * h)
    return g


def entmax_bisect(z, iters=200):
    """Independent 1.5-entmax oracle: bisect the threshold tau so that
    sum(max(z/2 - tau, 0)^2) == 1. No sorting, no closed form."""
    z = np.asarray(z, dtype=np.float64)

    def mass(tau):
        return float(np.sum(np.maximum(z / 2.0 - tau, 0.0) ** 2))

    lo = z.min() / 2.0 - 1.0  # mass >= n >= 1 here
    hi = z.max() / 2.0        # mass == 0 here
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mass(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    tau = 0.5 * (lo + hi)
    return np.maximum(z / 2.0 - tau, 0.0) ** 2, tau


def entmax_margin(z):
    """Distance (in z/2 units) of the nearest coordinate to the support
    boundary; tiny values mean a +-h nudge could flip the support."""
    z = np.asarray(z, dtype=np.float64)
    r = entmax15(z)
    half = z / 2.0
    m = np.inf
    on = half[r.probs > 0] - r.tau
    off = r.tau - half[r.probs == 0]
    if on.size:
        m = min(m, float(on.min()))
    if off.size:
        m = min(m, float(off.min()))
    return m


def flatten_params(model):
    named = model.named_params()
    vec = np.concatenate([arr.ravel() for _, _, arr in named])
    return vec, named


def set_params(named, vec):
    pos = 0
    for _, _, arr in named:
        n = arr.size
        arr[...] = vec[pos:pos + n].reshape(arr.shape)
        pos += n


def flatten_grads(named, grads):
    return np.concatenate([grads[name].ravel() for name, _, _ in named])


def rel_err(got, expect):
    """Norm of the flattened difference over the norm of the flattened
    reference; ``got`` and ``expect`` are arrays or equal-length sequences
    of arrays, concatenated in order."""
    def flat(a):
        if isinstance(a, (list, tuple)):
            return np.concatenate([np.ravel(v) for v in a])
        return np.ravel(a)
    g, e = flat(got), flat(expect)
    assert g.shape == e.shape
    return float(np.linalg.norm(g - e) / np.linalg.norm(e))


def gated_value(lctx, k):
    """Unit k's pre-ReLU value q * h2 in a training forward, from the
    doubled gate 2 q and the halved value h2 / 2 that the layer's context
    keeps for its backward (their product is q * h2 exactly: the factors are
    powers of two)."""
    twice_q, half_h2 = lctx.z[k]
    return twice_q * half_h2


def _unit_margins(unit, lctx, k):
    half = unit.mask_logits / 2.0
    mask = lctx.stack.masks[k]
    on = half[mask.probs > 0] - mask.tau
    off = mask.tau - half[mask.probs == 0]
    m = float(on.min()) if on.size else np.inf
    if off.size:
        m = min(m, float(off.min()))
    return min(m, float(np.abs(gated_value(lctx, k)).min()))


def model_is_stable(model, x, margin=1e-3):
    """True when no entmax support edge or ReLU kink sits within ``margin``
    of the operating point, so central differences stay on one smooth piece."""
    _, ctx = model.forward(x, train=True)
    for block, bctx in zip(model.blocks, ctx.block_ctxs):
        pairs = ((block.main1, bctx.main1_ctx), (block.main2, bctx.main2_ctx),
                 (block.shortcut, bctx.shortcut_ctx))
        for layer, lctx in pairs:
            for k, unit in enumerate(layer.units):
                if _unit_margins(unit, lctx, k) < margin:
                    return False
    hctx = ctx.head_ctx
    if np.abs(hctx.a0).min() < margin or np.abs(hctx.a1).min() < margin:
        return False
    return True


def randomize_params(model, rng, mask_scale=1.0):
    """Scatter the parameters so gradient checks exercise sparse masks and
    varied batch-norm scales, not just the symmetric init."""
    for name, kind, arr in model.named_params():
        if kind == "mask":
            arr += mask_scale * rng.standard_normal(arr.shape)
        elif kind == "weight":
            arr += 0.3 * rng.standard_normal(arr.shape)
        elif name.endswith("gamma"):
            arr += 0.2 * rng.standard_normal(arr.shape)
        else:  # beta / bias
            arr += 0.2 * rng.standard_normal(arr.shape)


def make_small_danet(rng, depth=2):
    """Random tiny architecture + batch for gradient checking (dropout off,
    ghost size = batch size)."""
    m = int(rng.integers(2, 9, None))
    d0 = int(rng.integers(2, 5, None))
    d1 = int(rng.integers(2, 5, None))
    k0 = int(rng.integers(1, 4, None))
    batch = int(rng.integers(2, 17, None))
    task = "class" if rng.random(None) < 0.5 else "rank"
    cfg = DANetConfig(depth=depth, k0=k0, d0=d0, d1=d1, dropout=0.0,
                      task=task, num_classes=2)
    model = DANet(m, cfg, ghost_size=batch, seed=int(rng.integers(0, 10_000, None)))
    randomize_params(model, rng)
    x = rng.standard_normal((batch, m))
    return model, x


def grad_check_model(model, x, h=1e-5, rel_tol=1e-4, abs_floor=1e-8):
    """Compare the manual backward of loss = sum(forward(x)) against central
    finite differences over every parameter. Returns the worst error pair."""
    theta0, named = flatten_params(model)

    def loss_at(theta):
        set_params(named, theta)
        out, _ = model.forward(x, train=True)
        return float(out.sum())

    out, ctx = model.forward(x, train=True)
    _, grads = model.backward(ctx, np.ones_like(out))
    manual = flatten_grads(named, grads)
    fd = finite_diff_grad(loss_at, theta0, h=h)
    set_params(named, theta0)
    err = np.abs(manual - fd)
    bound = rel_tol * np.maximum(np.abs(manual), np.abs(fd)) + abs_floor
    worst = int(np.argmax(err - bound))
    return bool(np.all(err <= bound)), named, worst, float(err[worst]), float(bound[worst])


# -- the straight-line training step: the reference the fast step is held
# to within a stated tolerance. Each batch norm takes numpy's mean and var of
# every ghost, keeps xhat and computes its backward as one expression; each
# unit masks its weights on every forward and again in its backward; every
# ghost's backward builds each module's gradient dict, and the step adds the
# ghosts' dicts up; the per-step context pools the batch-norm statistics
# only, and scoring runs the live eval forward block by block, unfolded.

@dataclass
class RefBatchNormCtx:
    bounds: list
    xhat: np.ndarray
    inv_std: list


def ref_bn_forward(bn, x, train):
    if not train:
        inv = 1.0 / np.sqrt(bn.running_var + bn.eps)
        return (x - bn.running_mean) * (bn.gamma * inv) + bn.beta, None
    rows = x.shape[0]
    bounds = [(s, min(s + bn.ghost_size, rows)) for s in range(0, rows, bn.ghost_size)]
    y = np.empty_like(x)
    xhat = np.empty_like(x)
    inv_stds = []
    deferred = getattr(bn, "ref_sums", None) is not None  # set by ref_fixed_params
    sums = bn.ref_sums if deferred else [np.zeros(bn.dim), np.zeros(bn.dim), 0]
    for s, e in bounds:
        chunk = x[s:e]
        mu = chunk.mean(axis=0)
        var = chunk.var(axis=0)
        inv = 1.0 / np.sqrt(var + bn.eps)
        xh = (chunk - mu) * inv
        xhat[s:e] = xh
        y[s:e] = bn.gamma * xh + bn.beta
        inv_stds.append(inv)
        sums[0] += mu
        sums[1] += var
    sums[2] += len(bounds)
    if not deferred:
        bn.update_running(*sums)
    return y, RefBatchNormCtx(bounds=bounds, xhat=xhat, inv_std=inv_stds)


def ref_bn_backward(bn, ctx, dy):
    dgamma = (dy * ctx.xhat).sum(axis=0)
    dbeta = dy.sum(axis=0)
    dx = np.empty_like(dy)
    for (s, e), inv in zip(ctx.bounds, ctx.inv_std):
        n = e - s
        dxh = dy[s:e] * bn.gamma
        xh = ctx.xhat[s:e]
        dx[s:e] = (inv / n) * (n * dxh - dxh.sum(axis=0) - xh * (dxh * xh).sum(axis=0))
    return dx, dgamma, dbeta


@dataclass
class RefUnitCtx:
    f: np.ndarray
    mask: EntmaxResult
    bn1_ctx: RefBatchNormCtx
    bn2_ctx: RefBatchNormCtx
    q: np.ndarray


def ref_unit_forward(unit, f, train):
    mask = entmax15(unit.mask_logits)
    h1, bn1_ctx = unit.bn1.forward(f @ (unit.w1 * mask.probs).T, train)
    q = sigmoid(h1)
    h2, bn2_ctx = unit.bn2.forward(f @ (unit.w2 * mask.probs).T, train)
    out = relu(q * h2)
    if not train:
        return out, None
    return out, RefUnitCtx(f=f, mask=mask, bn1_ctx=bn1_ctx, bn2_ctx=bn2_ctx, q=q)


def ref_forward_sum(units, f, train):
    total, ctxs = 0.0, []
    for unit in units:
        out, ctx = ref_unit_forward(unit, f, train)
        total = total + out
        ctxs.append(ctx)
    return total, ctxs


@dataclass
class RefLayerCtx:
    unit_ctxs: list


def ref_layer_forward(layer, f, train):
    total, ctxs = ref_forward_sum(layer.units, f, train)
    return total, (RefLayerCtx(unit_ctxs=ctxs) if train else None)


def ref_named_grads(module, own, *child_grads):
    grads = {name: own[name] for name, kind, _ in module.leaves() if kind != "buffer"}
    for (name, _), sub in zip(module.children(), child_grads, strict=True):
        grads.update((f"{name}.{key}", g) for key, g in sub.items())
    return grads


def ref_unit_backward(unit, ctx, dout):
    p, q = ctx.mask.probs, ctx.q
    h2 = unit.bn2.gamma * ctx.bn2_ctx.xhat + unit.bn2.beta
    dgated = dout * (q * h2 > 0.0)
    dq = dgated * h2
    dh2 = dgated * q
    dh1 = dq * q * (1.0 - q)
    da1, dg1, db1 = ref_bn_backward(unit.bn1, ctx.bn1_ctx, dh1)
    da2, dg2, db2 = ref_bn_backward(unit.bn2, ctx.bn2_ctx, dh2)
    g1 = da1.T @ ctx.f
    g2 = da2.T @ ctx.f
    df = da1 @ (unit.w1 * p) + da2 @ (unit.w2 * p)
    dmask = (g1 * unit.w1 + g2 * unit.w2).sum(axis=0)
    dlogits = entmax15_backward(ctx.mask, dmask)
    return df, ref_named_grads(unit, {"mask": dlogits, "w1": g1 * p, "w2": g2 * p},
                               {"gamma": dg1, "beta": db1}, {"gamma": dg2, "beta": db2})


def ref_layer_backward(layer, ctx, dout):
    df = np.zeros((dout.shape[0], layer.in_dim))
    unit_grads = []
    for unit, uctx in zip(layer.units, ctx.unit_ctxs):
        dfu, ug = ref_unit_backward(unit, uctx, dout)
        df += dfu
        unit_grads.append(ug)
    return df, ref_named_grads(layer, {}, *unit_grads)


def ref_head_backward(head, ctx, dout):
    dw2 = dout.T @ ctx.r1
    db2 = dout.sum(axis=0)
    dr1 = dout @ head.w2
    da1 = dr1 * (ctx.a1 > 0.0)
    dw1 = da1.T @ ctx.r0
    db1 = da1.sum(axis=0)
    dr0 = da1 @ head.w1
    da0 = dr0 * (ctx.a0 > 0.0)
    dw0 = da0.T @ ctx.z
    db0 = da0.sum(axis=0)
    dz = da0 @ head.w0
    return dz, ref_named_grads(head, {"w0": dw0, "b0": db0, "w1": dw1, "b1": db1,
                                      "w2": dw2, "b2": db2})


def ref_model_backward(model, ctx, dout):
    df, head_grads = ref_head_backward(model.head, ctx.head_ctx, dout)
    dx = np.zeros_like(ctx.x)
    block_grads = []
    for block, bctx in zip(reversed(model.blocks), reversed(ctx.block_ctxs)):
        ds = df if bctx.drop_mask is None else df * bctx.drop_mask
        dx_raw, sg = ref_layer_backward(block.shortcut, bctx.shortcut_ctx, ds)
        dm1, g2 = ref_layer_backward(block.main2, bctx.main2_ctx, df)
        df, g1 = ref_layer_backward(block.main1, bctx.main1_ctx, dm1)
        dx += dx_raw
        block_grads.append(ref_named_grads(block, {}, g1, g2, sg))
    dx += df
    return dx, ref_named_grads(model, {}, *reversed(block_grads), head_grads)


def ref_batch_gradients(model, x, targets, rng, pool=None):
    # every ghost runs here, in order, whatever pool fit passes
    rows, ghost = x.shape[0], model.ghost_size
    uniforms = model.dropout_uniforms(rng, rows)
    loss, grads = 0.0, None
    with model.fixed_params():
        for s in range(0, rows, ghost):
            rs = slice(s, s + ghost)
            out, ctx = model.forward(x[rs], train=True,
                                     uniforms=[None if u is None else u[rs] for u in uniforms])
            if model.task == "class":
                gl, dout = training.cross_entropy(out, targets[rs])
            else:
                gl, dout = training.mse(out[:, 0], targets[rs])
                dout = dout[:, None]
            scale = (min(rows, s + ghost) - s) / rows
            dout *= scale
            loss += gl * scale
            gg = ref_model_backward(model, ctx, dout)[1]
            if grads is None:
                grads = gg
            else:
                for name, g in gg.items():
                    grads[name] += g
    return loss, grads


@contextmanager
def ref_fixed_params(model):
    bns = [bn for _, bn in model.named_bns()]
    for bn in bns:
        bn.ref_sums = [np.zeros(bn.dim), np.zeros(bn.dim), 0]
    try:
        yield
        for bn in bns:
            bn.update_running(*bn.ref_sums)
    finally:
        for bn in bns:
            del bn.ref_sums


def ref_predict(model, x):
    x = model._check_input(x)
    block = network.PREDICT_BLOCK
    starts = range(0, max(x.shape[0], 1), block)
    out = np.concatenate([model.scores(x[s:s + block]) for s in starts])
    if model.config.task == "class":
        return np.argmax(out, axis=1)
    return out[:, 0]


def set_scoring_width(monkeypatch, width):
    """Makes ``predict``'s pool ``width`` threads wide through the width
    rule's inputs: BLAS on one thread over ``width`` CPUs, or, for 1, BLAS
    left free to take every CPU."""
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    if width == 1:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(width)), raising=False)
    assert network.scoring_threads() == width


def use_reference_step(monkeypatch):
    """Swap the straight-line reference in for the fast training step
    (``training.batch_gradients``, which ``fit`` calls) and for scoring:
    ``predict`` scores the live model's eval forward, not its folded twin,
    so ``fit`` validates the live model."""
    monkeypatch.setattr(GhostBatchNorm, "forward", ref_bn_forward)
    monkeypatch.setattr(AbstractUnit, "forward", ref_unit_forward)
    monkeypatch.setattr(AbstractLayer, "forward", ref_layer_forward)
    monkeypatch.setattr(DANet, "backward", ref_model_backward)
    monkeypatch.setattr(training, "batch_gradients", ref_batch_gradients)
    monkeypatch.setattr(Module, "fixed_params", ref_fixed_params)
    monkeypatch.setattr(DANet, "predict", ref_predict)


def ref_load_csv(path, schema, task="class"):
    """``load_csv`` as the csv module and one cell at a time read it: the
    reference for the one-pass split path and for every error message."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: unreadable CSV: {e}") from None
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    missing = [c for c in schema if c not in header]
    if missing:
        raise DataError(f"{path}: schema column(s) missing from CSV header: {missing}")
    extra = [c for c in header if c not in schema]
    if extra:
        raise DataError(f"{path}: CSV column(s) not named in schema: {extra}")
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate CSV header columns")

    target = next(name for name, kind in schema.items() if kind == "target")
    names = [name for name in header if name != target]
    kinds = [schema[name] for name in names]
    checked = [name for name in names if schema[name] == "continuous"] + [target]
    values = {name: np.zeros(len(rows)) for name in checked}
    for r, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise DataError(f"row {r}: expected {len(header)} cells, got {len(row)}")
        for name in checked:
            cell = row[header.index(name)]
            try:
                v = float(cell)
            except ValueError:
                raise DataError(f"row {r}: non-numeric value {cell!r} in continuous "
                                f"column {name!r}") from None
            if not np.isfinite(v):
                raise DataError(f"row {r}: non-finite value {cell!r} in continuous "
                                f"column {name!r}")
            values[name][r - 1] = v
    features = np.zeros((len(rows), len(names)))
    cat_raw = {}
    for j, name in enumerate(names):
        if schema[name] == "continuous":
            features[:, j] = values[name]
        else:
            cat_raw[j] = [row[header.index(name)] for row in rows]
    targets = values[target]
    if task == "class":
        for r, t in enumerate(targets, start=1):
            if t > 2.0 ** 53:
                raise DataError(f"row {r}: classification target must be at most 2**53, "
                                f"got {float(t)!r}")
            if t < 0 or t != np.round(t):
                raise DataError(f"row {r}: classification target must be a non-negative "
                                f"integer, got {float(t)!r}")
        targets = targets.astype(np.int64)
    return Dataset(features=features, targets=targets, names=names, kinds=kinds,
                   task=task, cat_raw=cat_raw)
