"""Shared test utilities: independent oracles and gradient-check plumbing."""

import numpy as np

from danet import DANet, DANetConfig, entmax15


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


def gated_value(unit, uctx):
    """The unit's pre-ReLU value q * h2, with h2 rebuilt from bn2's xhat the
    way the unit's backward rebuilds it."""
    return uctx.q * (unit.bn2.gamma * uctx.bn2_ctx.xhat + unit.bn2.beta)


def _unit_margins(unit, uctx):
    half = unit.mask_logits / 2.0
    tau = uctx.mask.tau
    on = half[uctx.mask.probs > 0] - tau
    off = tau - half[uctx.mask.probs == 0]
    m = float(on.min()) if on.size else np.inf
    if off.size:
        m = min(m, float(off.min()))
    return min(m, float(np.abs(gated_value(unit, uctx)).min()))


def model_is_stable(model, x, margin=1e-3):
    """True when no entmax support edge or ReLU kink sits within ``margin``
    of the operating point, so central differences stay on one smooth piece."""
    _, ctx = model.forward(x, train=True)
    for block, bctx in zip(model.blocks, ctx.block_ctxs):
        pairs = ((block.main1, bctx.main1_ctx), (block.main2, bctx.main2_ctx),
                 (block.shortcut, bctx.shortcut_ctx))
        for layer, lctx in pairs:
            for unit, uctx in zip(layer.units, lctx.unit_ctxs):
                if _unit_margins(unit, uctx) < margin:
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
