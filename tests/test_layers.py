"""Ghost batch norm and abstraction units/layers: forward against straight-line
oracles, backward against finite differences, and the context discipline."""

import numpy as np
import pytest

from danet import (AbstractLayer, AbstractUnit, GhostBatchNorm, Rng, ShapeError,
                   entmax15, finite_diff_grad, sigmoid)
from helpers import entmax_margin, gated_value


def bn_train_oracle(x, gamma, beta, ghost, eps):
    """Straight-line duplicate of ghost-wise training normalization."""
    y = np.empty_like(x)
    means, variances = [], []
    for s in range(0, x.shape[0], ghost):
        chunk = x[s:s + ghost]
        mu = chunk.mean(axis=0)
        var = ((chunk - mu) ** 2).mean(axis=0)
        y[s:s + ghost] = gamma * (chunk - mu) / np.sqrt(var + eps) + beta
        means.append(mu)
        variances.append(var)
    return y, np.mean(means, axis=0), np.mean(variances, axis=0)


def test_bn_train_single_ghost_matches_oracle():
    rng = Rng(0)
    x = rng.standard_normal((12, 5))
    bn = GhostBatchNorm(5, ghost_size=12)
    bn.gamma[:] = rng.uniform(0.5, 1.5, 5)
    bn.beta[:] = rng.standard_normal(5)
    y, ctx = bn.forward(x, train=True)
    expect, _, _ = bn_train_oracle(x, bn.gamma, bn.beta, 12, bn.eps)
    assert np.max(np.abs(y - expect)) <= 1e-12
    assert ctx is not None and bn.updates == 1


def test_bn_ghost_chunking_and_running_stats():
    rng = Rng(1)
    x = rng.standard_normal((10, 3)) * 2.0 + 1.0
    bn = GhostBatchNorm(3, ghost_size=4)
    y, ctx = bn.forward(x, train=True)
    expect, mean_of_means, mean_of_vars = bn_train_oracle(x, bn.gamma, bn.beta, 4, bn.eps)
    assert [e - s for s, e in ctx.bounds] == [4, 4, 2]  # short final ghost kept
    assert np.max(np.abs(y - expect)) <= 1e-12
    assert np.max(np.abs(bn.running_mean - 0.01 * mean_of_means)) <= 1e-12
    assert np.max(np.abs(bn.running_var - (0.99 * 1.0 + 0.01 * mean_of_vars))) <= 1e-12


def test_bn_constant_column_trains_to_beta():
    bn = GhostBatchNorm(2, ghost_size=4)
    bn.beta[:] = np.array([0.7, -0.3])
    x = np.ones((8, 2)) * 5.0
    y, _ = bn.forward(x, train=True)
    assert np.max(np.abs(y - bn.beta)) <= 1e-9  # zero variance, eps floor


def test_bn_eval_uses_running_stats():
    rng = Rng(2)
    bn = GhostBatchNorm(4, ghost_size=8)
    bn.gamma[:] = rng.uniform(0.5, 2.0, 4)
    bn.beta[:] = rng.standard_normal(4)
    bn.running_mean[:] = rng.standard_normal(4)
    bn.running_var[:] = rng.uniform(0.5, 2.0, 4)
    x = rng.standard_normal((6, 4))
    y, ctx = bn.forward(x, train=False)
    expect = bn.gamma * (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps) + bn.beta
    assert np.max(np.abs(y - expect)) <= 1e-12
    assert ctx is None


def test_bn_backward_matches_finite_differences():
    rng = Rng(3)
    x0 = rng.standard_normal((10, 3))
    bn = GhostBatchNorm(3, ghost_size=4)
    bn.gamma[:] = rng.uniform(0.5, 1.5, 3)
    bn.beta[:] = rng.standard_normal(3)

    y, ctx = bn.forward(x0, train=True)
    dx, dgamma, dbeta = bn.backward(ctx, np.ones_like(y))

    def loss_x(v):
        out, _ = bn.forward(v.reshape(10, 3), train=True)
        return float(out.sum())

    fd_x = finite_diff_grad(loss_x, x0.ravel(), h=1e-5).reshape(10, 3)
    assert np.max(np.abs(dx - fd_x)) <= 1e-6

    def loss_gamma(g):
        keep = bn.gamma.copy()
        bn.gamma[:] = g
        out, _ = bn.forward(x0, train=True)
        bn.gamma[:] = keep
        return float(out.sum())

    fd_g = finite_diff_grad(loss_gamma, bn.gamma, h=1e-5)
    assert np.max(np.abs(dgamma - fd_g)) <= 1e-6
    assert np.max(np.abs(dbeta - np.full(3, 10.0))) <= 1e-12


def test_bn_validation():
    with pytest.raises(ValueError):
        GhostBatchNorm(0)
    with pytest.raises(ValueError):
        GhostBatchNorm(3, ghost_size=0)
    bn = GhostBatchNorm(3)
    with pytest.raises(ShapeError):
        bn.forward(np.zeros((4, 2)), train=True)


def unit_eval_oracle(unit, f):
    """Straight-line duplicate of the eval-mode unit: mask, two normalized
    affines, sigmoid gate, ReLU."""
    m = entmax15(unit.mask_logits).probs
    fp = f * m
    a1 = fp @ unit.w1.T
    h1 = unit.bn1.gamma * (a1 - unit.bn1.running_mean) / np.sqrt(
        unit.bn1.running_var + unit.bn1.eps) + unit.bn1.beta
    q = 1.0 / (1.0 + np.exp(-h1))
    a2 = fp @ unit.w2.T
    h2 = unit.bn2.gamma * (a2 - unit.bn2.running_mean) / np.sqrt(
        unit.bn2.running_var + unit.bn2.eps) + unit.bn2.beta
    return np.maximum(q * h2, 0.0)


def trained_unit(seed, in_dim=6, out_dim=4, steps=3):
    rng = Rng(seed)
    unit = AbstractUnit(in_dim, out_dim, ghost_size=8, rng=rng)
    unit.mask_logits[:] = rng.standard_normal(in_dim)
    unit.bn1.gamma[:] = rng.uniform(0.5, 1.5, out_dim)
    unit.bn2.beta[:] = rng.standard_normal(out_dim) * 0.3
    for _ in range(steps):  # populate running stats
        unit.forward(rng.standard_normal((16, in_dim)), train=True)
    return unit, rng


def test_unit_eval_matches_straight_line_oracle():
    unit, rng = trained_unit(4)
    f = rng.standard_normal((9, 6))
    out, ctx = unit.forward(f, train=False)
    assert ctx is None
    assert np.max(np.abs(out - unit_eval_oracle(unit, f))) <= 1e-12


def test_fresh_unit_maps_zero_input_to_zero():
    # zero masked features, running stats (0, 1), beta = 0: the gate is 0.5
    # but the gated value is exactly zero
    unit = AbstractUnit(5, 3, ghost_size=4, rng=Rng(5))
    out, _ = unit.forward(np.zeros((4, 5)), train=False)
    assert np.all(out == 0.0)


def test_gamma2_scales_positive_outputs():
    unit, rng = trained_unit(6)
    unit.bn2.beta[:] = 0.0  # scaling homogeneity needs a zero shift
    f = rng.standard_normal((7, 6))
    base, _ = unit.forward(f, train=False)
    unit.bn2.gamma *= 3.0
    scaled, _ = unit.forward(f, train=False)
    pos = base > 0
    assert np.max(np.abs(scaled[pos] - 3.0 * base[pos])) <= 1e-9
    assert np.all(scaled[~pos] == 0.0)


def test_masked_out_column_cannot_influence_output():
    unit, rng = trained_unit(7)
    unit.mask_logits[:] = 0.0
    unit.mask_logits[2] = 10.0  # saturates: all mass on feature 2
    assert entmax15(unit.mask_logits).probs[0] == 0.0
    f = rng.standard_normal((5, 6))
    g = f.copy()
    g[:, 0] = 99.0  # a column with zero mask weight
    out_f, _ = unit.forward(f, train=False)
    out_g, _ = unit.forward(g, train=False)
    assert np.array_equal(out_f, out_g)


def test_dead_branch_contributes_nothing_in_eval():
    rng = Rng(8)
    layer = AbstractLayer(5, 3, branches=2, ghost_size=4, rng=rng)
    f = rng.standard_normal((6, 5))
    solo, _ = layer.units[0].forward(f, train=False)
    # branch 2: zero weights with fresh stats (mean 0, beta 0) gives exactly 0
    layer.units[1].w1[:] = 0.0
    layer.units[1].w2[:] = 0.0
    both, _ = layer.forward(f, train=False)
    assert np.array_equal(both, solo)


def test_single_branch_layer_equals_its_unit():
    rng = Rng(9)
    layer = AbstractLayer(4, 3, branches=1, ghost_size=8, rng=rng)
    f = rng.standard_normal((8, 4))
    a, _ = layer.forward(f, train=False)
    b, _ = layer.units[0].forward(f, train=False)
    assert np.array_equal(a, b)


def test_layer_fusion_is_sum_of_branches():
    rng = Rng(10)
    layer = AbstractLayer(4, 3, branches=3, ghost_size=8, rng=rng)
    for unit in layer.units:
        unit.mask_logits[:] = rng.standard_normal(4) * 0.5
    f = rng.standard_normal((8, 4))
    total, _ = layer.forward(f, train=False)
    parts = [unit.forward(f, train=False)[0] for unit in layer.units]
    assert np.max(np.abs(total - (parts[0] + parts[1] + parts[2]))) <= 1e-12


def _stable_layer_case(seed):
    rng = Rng(seed)
    m = int(rng.integers(2, 9, None))
    d = int(rng.integers(2, 5, None))
    k = int(rng.integers(1, 4, None))
    batch = int(rng.integers(2, 17, None))
    layer = AbstractLayer(m, d, branches=k, ghost_size=batch, rng=rng)
    for unit in layer.units:
        unit.mask_logits[:] = rng.standard_normal(m)
        unit.bn1.gamma[:] = rng.uniform(0.7, 1.3, d)
        unit.bn2.gamma[:] = rng.uniform(0.7, 1.3, d)
        unit.bn1.beta[:] = 0.3 * rng.standard_normal(d)
        unit.bn2.beta[:] = 0.3 * rng.standard_normal(d)
    f = rng.standard_normal((batch, m))
    _, ctx = layer.forward(f, train=True)
    for unit, uctx in zip(layer.units, ctx.unit_ctxs):
        if entmax_margin(unit.mask_logits) < 1e-3:
            return None
        if np.abs(gated_value(unit, uctx)).min() < 1e-3:
            return None
    return layer, f


def test_layer_backward_matches_finite_differences():
    checked = 0
    seed = 100
    while checked < 8:
        seed += 1
        case = _stable_layer_case(seed)
        if case is None:
            continue
        layer, f = case
        out, ctx = layer.forward(f, train=True)
        df, grads = layer.backward(ctx, np.ones_like(out))

        named = layer.named_params()
        theta0 = np.concatenate([arr.ravel() for _, _, arr in named])

        def loss_at(theta):
            pos = 0
            for _, _, arr in named:
                arr[...] = theta[pos:pos + arr.size].reshape(arr.shape)
                pos += arr.size
            out2, _ = layer.forward(f, train=True)
            return float(out2.sum())

        manual = np.concatenate([grads[n].ravel() for n, _, _ in named])
        fd = finite_diff_grad(loss_at, theta0, h=1e-5)
        loss_at(theta0)  # restore
        err = np.abs(manual - fd)
        bound = 1e-4 * np.maximum(np.abs(manual), np.abs(fd)) + 1e-8
        assert np.all(err <= bound), f"seed {seed}: worst {err.max():.3g}"

        def loss_input(v):
            out2, _ = layer.forward(v.reshape(f.shape), train=True)
            return float(out2.sum())

        fd_in = finite_diff_grad(loss_input, f.ravel(), h=1e-5).reshape(f.shape)
        err_in = np.abs(df - fd_in)
        bound_in = 1e-4 * np.maximum(np.abs(df), np.abs(fd_in)) + 1e-8
        assert np.all(err_in <= bound_in), f"seed {seed}: worst {err_in.max():.3g}"
        checked += 1


def test_context_is_single_use_and_owner_checked():
    rng = Rng(20)
    layer = AbstractLayer(3, 2, branches=1, ghost_size=4, rng=rng)
    other = AbstractLayer(3, 2, branches=1, ghost_size=4, rng=rng)
    f = rng.standard_normal((4, 3))
    out, ctx = layer.forward(f, train=True)
    layer.backward(ctx, np.ones_like(out))
    with pytest.raises(RuntimeError):
        layer.backward(ctx, np.ones_like(out))  # consumed
    _, ctx2 = layer.forward(f, train=True)
    with pytest.raises(RuntimeError):
        other.backward(ctx2, np.ones_like(out))  # wrong owner
    with pytest.raises(RuntimeError):
        layer.backward(None, np.ones_like(out))  # eval-mode forward has no ctx


def test_mask_is_shared_across_rows():
    unit, rng = trained_unit(21)
    _, ctx = unit.forward(rng.standard_normal((30, 6)), train=True)
    mask = ctx.mask
    assert abs(mask.probs.sum() - 1.0) <= 1e-12
    # same mask applied to every row: each row scores as that row scaled by
    # the mask scores under a uniform mask (1/6 per feature, undone by the 6)
    f = rng.standard_normal((3, 6))
    out, _ = unit.forward(f, train=False)
    unit.mask_logits[:] = 0.0
    rescaled, _ = unit.forward(f * mask.probs * 6.0, train=False)
    assert np.max(np.abs(out - rescaled)) <= 1e-12


def test_sigmoid_stable_and_correct():
    x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
    s = sigmoid(x)
    assert np.all(np.isfinite(s))
    assert s[2] == 0.5
    assert s[0] == 0.0 and s[4] == 1.0  # saturates cleanly, no overflow
    mid = np.linspace(-20, 20, 41)
    assert np.max(np.abs(sigmoid(mid) - 1.0 / (1.0 + np.exp(-mid)))) <= 1e-12
