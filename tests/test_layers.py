"""Ghost batch norm and abstraction units/layers: forward against straight-line
oracles, backward against finite differences, and the context discipline."""

import copy

import numpy as np
import pytest

from danet import (AbstractLayer, AbstractUnit, GhostBatchNorm, Rng, ShapeError,
                   entmax15, sigmoid)
from danet.layers import relu
from helpers import (entmax_margin, finite_diff_grad, gated_value, ref_layer_backward, rel_err,
                     use_reference_step)


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


# A batch norm trains only inside its abstraction layer, folded into its
# unit's weights, so the training-mode batch norm is checked through a layer:
# each unit's gated value q * h2 against q = sigmoid(BN1(f (w1 p)^T)) and
# h2 = BN2(f (w2 p)^T) from the oracle above, and its running statistics.

def _bn_layer(seed, in_dim, out_dim, branches, ghost):
    rng = Rng(seed)
    layer = AbstractLayer(in_dim, out_dim, branches=branches, ghost_size=ghost, rng=rng)
    for unit in layer.units:
        unit.mask_logits[:] = rng.standard_normal(in_dim)
        for bn in (unit.bn1, unit.bn2):
            bn.gamma[:] = rng.uniform(0.5, 1.5, out_dim)
            bn.beta[:] = rng.standard_normal(out_dim)
    return layer, rng


def _bn_oracles(unit, f, ghost):
    p = entmax15(unit.mask_logits).probs
    return [bn_train_oracle(f @ (w * p).T, bn.gamma, bn.beta, ghost, bn.eps)
            for w, bn in ((unit.w1, unit.bn1), (unit.w2, unit.bn2))]


def test_bn_train_single_ghost_matches_oracle():
    layer, rng = _bn_layer(0, in_dim=5, out_dim=4, branches=2, ghost=12)
    f = rng.standard_normal((12, 5))
    oracles = [_bn_oracles(unit, f, 12) for unit in layer.units]
    _, ctx = layer.forward(f, train=True)
    for k, ((h1, _, _), (h2, _, _)) in enumerate(oracles):
        assert np.max(np.abs(gated_value(ctx, k) - sigmoid(h1) * h2)) <= 1e-12
    assert [bn.updates for _, bn in layer.named_bns()] == [1] * 4


def test_bn_ghost_chunking_and_running_stats():
    layer, rng = _bn_layer(1, in_dim=3, out_dim=3, branches=2, ghost=4)
    f = rng.standard_normal((10, 3)) * 2.0 + 1.0
    oracles = [_bn_oracles(unit, f, 4) for unit in layer.units]
    _, ctx = layer.forward(f, train=True)
    assert [bounds for bounds, *_ in ctx.ghosts] == [(0, 4), (4, 8), (8, 10)]  # short tail kept
    for k, (unit, ((h1, m1, v1), (h2, m2, v2))) in enumerate(zip(layer.units, oracles)):
        assert np.max(np.abs(gated_value(ctx, k) - sigmoid(h1) * h2)) <= 1e-12
        for bn, mean_of_means, mean_of_vars in ((unit.bn1, m1, v1), (unit.bn2, m2, v2)):
            assert np.max(np.abs(bn.running_mean - 0.01 * mean_of_means)) <= 1e-12
            assert np.max(np.abs(bn.running_var - (0.99 + 0.01 * mean_of_vars))) <= 1e-12


@pytest.mark.parametrize("ghost", [64, 8])  # one ghost; ghosts of 8 and a tail of 5
def test_bn_train_forward_and_backward_are_within_1e_12_of_the_reference(ghost, monkeypatch):
    # the layer's folded batch norms against the straight-line reference's
    # numpy mean and var, xhat and one-expression backward, on an offset input
    rng = Rng(2)
    layer = _moment_layer(rng, ghost=ghost)
    _assert_layer_is_the_reference(layer, 3.0 + 5.0 * rng.standard_normal((37, 6)), monkeypatch)


def test_bn_constant_column_trains_to_beta():
    # a unit that keeps only column 0, constant in the batch: both batch
    # norms see zero variance, so h1 and h2 are their betas
    layer, rng = _bn_layer(3, in_dim=4, out_dim=2, branches=1, ghost=4)
    unit = layer.units[0]
    unit.mask_logits[:] = -10.0
    unit.mask_logits[0] = 10.0
    f = rng.standard_normal((8, 4))
    f[:, 0] = 5.0
    _, ctx = layer.forward(f, train=True)
    expect = sigmoid(unit.bn1.beta) * unit.bn2.beta
    assert np.max(np.abs(gated_value(ctx, 0) - expect)) <= 1e-12


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
    # the batch-norm gradients and the input gradient through the layer's
    # folded batch norms, over ghosts of 4, 4 and 2 rows; beta2 = 3 keeps
    # h2 > 0 (|xhat| <= sqrt(3) in a ghost of 4), so no ReLU kink is near
    layer, rng = _bn_layer(3, in_dim=3, out_dim=3, branches=2, ghost=4)
    for unit in layer.units:
        unit.bn2.gamma[:] = rng.uniform(0.5, 1.0, 3)
        unit.bn2.beta[:] = 3.0
    x0 = rng.standard_normal((10, 3))
    dout = rng.standard_normal((10, 3))
    out, ctx = layer.forward(x0, train=True)
    dx, grads = layer.backward(ctx, dout)

    def loss_x(v):
        return float((layer.forward(v.reshape(10, 3), train=True)[0] * dout).sum())

    fd_x = finite_diff_grad(loss_x, x0.ravel(), h=1e-5).reshape(10, 3)
    assert np.max(np.abs(dx - fd_x)) <= 1e-6
    for name, arr in ((n, a) for n, kind, a in layer.named_params() if kind == "bn"):
        def loss_bn(v, arr=arr):
            keep = arr.copy()
            arr[:] = v
            value = float((layer.forward(x0, train=True)[0] * dout).sum())
            arr[:] = keep
            return value

        fd = finite_diff_grad(loss_bn, arr, h=1e-5)
        assert np.max(np.abs(grads[name] - fd)) <= 1e-6, name


def test_bn_validation():
    with pytest.raises(ValueError):
        GhostBatchNorm(0)
    with pytest.raises(ValueError):
        GhostBatchNorm(3, ghost_size=0)
    bn = GhostBatchNorm(3)
    with pytest.raises(ShapeError):
        bn.forward(np.zeros((4, 2)), train=True)
    with pytest.raises(RuntimeError, match="inside its abstraction layer"):
        bn.forward(np.zeros((4, 3)), train=True)


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
    # the unit of a one-branch layer, which draws what a lone unit draws
    rng = Rng(seed)
    layer = AbstractLayer(in_dim, out_dim, branches=1, ghost_size=8, rng=rng)
    unit = layer.units[0]
    unit.mask_logits[:] = rng.standard_normal(in_dim)
    unit.bn1.gamma[:] = rng.uniform(0.5, 1.5, out_dim)
    unit.bn2.beta[:] = rng.standard_normal(out_dim) * 0.3
    for _ in range(steps):  # populate running stats
        layer.forward(rng.standard_normal((16, in_dim)), train=True)
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
    for k, unit in enumerate(layer.units):
        if entmax_margin(unit.mask_logits) < 1e-3:
            return None
        if np.abs(gated_value(ctx, k)).min() < 1e-3:
            return None
    return layer, f


def test_gated_value_rebuilds_the_training_output_bitwise():
    # gate 1's stability screen reads gated_value; it must rebuild exactly
    # the value the unit's ReLU saw, ghost by ghost (8, 8 and a tail of 5)
    rng = Rng(21)
    layer = AbstractLayer(5, 4, branches=1, ghost_size=8, rng=rng)
    unit = layer.units[0]
    unit.mask_logits[:] = rng.standard_normal(5)
    for bn in (unit.bn1, unit.bn2):
        bn.gamma[:] = rng.uniform(0.5, 1.5, 4)
        bn.beta[:] = 0.5 * rng.standard_normal(4)
    out, ctx = layer.forward(3.0 * rng.standard_normal((21, 5)), train=True)
    assert (out == 0.0).any() and (out > 0.0).any()
    assert relu(gated_value(ctx, 0)).tobytes() == out.tobytes()


def _moment_layer(rng, in_dim=6, out_dim=4, branches=3, ghost=8, mask_scale=2.0):
    layer = AbstractLayer(in_dim, out_dim, branches=branches, ghost_size=ghost, rng=rng)
    for unit in layer.units:
        unit.mask_logits[:] = mask_scale * rng.standard_normal(in_dim)
        for bn in (unit.bn1, unit.bn2):
            bn.gamma[:] = rng.uniform(0.5, 1.5, out_dim)
            bn.beta[:] = 0.5 * rng.standard_normal(out_dim)
    return layer


def _fast_pass(layer, f, dout):
    # the moment-folded training forward and backward
    out, ctx = layer.forward(f, train=True)
    df, grads = layer.backward(ctx, dout)
    return out, df, grads, layer.named_buffers()


def _reference_pass(layer, f, dout, monkeypatch):
    # the straight-line units: numpy's ghost mean and var, xhat, the
    # one-expression batch norm backward
    use_reference_step(monkeypatch)
    try:
        out, ctx = layer.forward(f, train=True)
        df, grads = ref_layer_backward(layer, ctx, dout)
    finally:
        monkeypatch.undo()
    return out, df, grads, layer.named_buffers()


def _assert_close(fast, ref, names, buffers=("running_mean", "running_var")):
    # within 1e-12 relative: the output, the input gradient, the parameter
    # gradients as one flattened vector (named and ordered as named_params),
    # each running statistic of the kinds in ``buffers``
    (out, df, grads, bufs), (rout, rdf, rgrads, rbufs) = fast, ref
    assert list(grads) == names
    assert rel_err(out, rout) <= 1e-12
    assert rel_err(df, rdf) <= 1e-12
    assert rel_err([grads[n] for n in names], [rgrads[n] for n in names]) <= 1e-12
    for (name, a), (_, b) in zip(bufs, rbufs):
        if name.endswith(buffers):
            assert rel_err(a, b) <= 1e-12, name


def _assert_layer_is_the_reference(layer, f, monkeypatch):
    dout = Rng(0).standard_normal((f.shape[0], layer.out_dim))
    slow = copy.deepcopy(layer)
    fast = _fast_pass(layer, f, dout)
    _assert_close(fast, _reference_pass(slow, f, dout, monkeypatch),
                  [n for n, _, _ in layer.named_params()])
    assert [bn.updates for _, bn in layer.named_bns()] == [1] * 2 * len(layer.units)
    assert [bn.updates for _, bn in slow.named_bns()] == [1] * 2 * len(layer.units)
    return fast


def test_moment_path_with_a_one_row_tail_ghost(monkeypatch):
    # 17 rows at ghost 8: the tail ghost's row is its own mean, so its
    # centred input and scatter (and with it W S) are zero and its output is
    # beta, for every unit of the layer
    rng = Rng(30)
    layer = _moment_layer(rng)
    f = rng.standard_normal((17, 6))
    _assert_layer_is_the_reference(layer, f, monkeypatch)
    _, ctx = layer.forward(f, train=True)
    _, _, _, ws, _ = ctx.ghosts[2]
    assert not ctx.xa[16, :-1].any() and not ws.any()
    for unit, (twice_q, half_h2) in zip(layer.units, ctx.z):
        assert np.array_equal(2.0 * half_h2[16], unit.bn2.beta)
        assert np.array_equal(0.5 * twice_q[16], sigmoid(unit.bn1.beta))


def test_moment_path_with_a_column_constant_within_a_ghost(monkeypatch):
    # column 2 is constant in every ghost; one unit keeps only that column,
    # so its batch norms see zero variance and sit at the eps floor
    rng = Rng(31)
    layer = _moment_layer(rng)
    f = rng.standard_normal((16, 6))
    f[:8, 2], f[8:, 2] = 1.5, -0.25
    solo = layer.units[1]
    solo.mask_logits[:] = -10.0
    solo.mask_logits[2] = 10.0
    _assert_layer_is_the_reference(layer, f, monkeypatch)
    _, ctx = layer.forward(f, train=True)
    # the centred column is zero in every ghost, so is S's row and column 2
    assert not ctx.xa[:, 2].any()
    for inv in (inv for _, inv, _, _, _ in ctx.ghosts):
        assert np.array_equal(inv[1], np.full(8, 1.0 / np.sqrt(GhostBatchNorm.eps)))


def test_moment_path_with_a_large_common_offset(monkeypatch):
    # raw features 1e3 + N(0, 1). A common offset cancels in every ghost's
    # batch norm, so the output, the gradients and the running variance are
    # those of the input minus 1e3 (an exact subtraction here); the running
    # mean alone keeps the offset. The straight-line reference run on the
    # offset input itself is no yardstick for the gradients: it multiplies
    # da^T by features near 1e3 whose column sums cancel, and it lands about
    # 3e-10 from its own long-double evaluation, where the moment path lands
    # about 3e-13 from it.
    rng = Rng(32)
    layer = _moment_layer(rng, in_dim=5)
    f = 1e3 + rng.standard_normal((20, 5))
    dout = Rng(0).standard_normal((20, layer.out_dim))
    names = [n for n, _, _ in layer.named_params()]
    fast = _fast_pass(copy.deepcopy(layer), f, dout)
    centred = _reference_pass(copy.deepcopy(layer), f - 1e3, dout, monkeypatch)
    _assert_close(fast, centred, names, buffers=("running_var",))
    offset = _reference_pass(copy.deepcopy(layer), f, dout, monkeypatch)
    for (name, a), (_, b) in zip(fast[3], offset[3]):
        if name.endswith("running_mean"):
            assert rel_err(a, b) <= 1e-12, name


def test_moment_path_with_exactly_zero_mask_columns(monkeypatch):
    rng = Rng(33)
    layer = _moment_layer(rng, in_dim=7, mask_scale=3.0)
    probs = [entmax15(u.mask_logits).probs for u in layer.units]
    assert all((p == 0.0).any() for p in probs)
    f = rng.standard_normal((21, 7))
    grads = _assert_layer_is_the_reference(layer, f, monkeypatch)[2]
    for k, p in enumerate(probs):  # a masked-out column gets no weight gradient
        for w in ("w1", "w2"):
            assert not grads[f"u{k}.{w}"][:, p == 0.0].any()


def test_a_unit_trains_only_inside_its_layer():
    unit = AbstractUnit(5, 3, ghost_size=4, rng=Rng(41))
    with pytest.raises(ShapeError):
        unit.forward(np.zeros((4, 4)), train=True)
    with pytest.raises(RuntimeError, match="inside its abstraction layer"):
        unit.forward(np.zeros((4, 5)), train=True)


def test_a_backward_outside_a_step_is_the_backward_inside_one():
    # outside Module.fixed_params the layer masks its units again to finish
    # their gradients, inside it takes the step's stack: the same bits
    rng = Rng(40)
    layer = _moment_layer(rng)
    inside = copy.deepcopy(layer)
    f = rng.standard_normal((19, 6))
    dout = rng.standard_normal((19, 4))
    out, df, grads, bufs = _fast_pass(layer, f, dout)
    with inside.fixed_params():
        iout, idf, igrads, ibufs = _fast_pass(inside, f, dout)
    assert out.tobytes() == iout.tobytes() and df.tobytes() == idf.tobytes()
    assert list(grads) == list(igrads) == [n for n, _, _ in layer.named_params()]
    assert all(grads[n].tobytes() == igrads[n].tobytes() for n in grads)
    assert [(n, a.tobytes()) for n, a in bufs] == [(n, a.tobytes()) for n, a in ibufs]


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
    mask = entmax15(unit.mask_logits)
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
    # bit for bit the tanh expression, and the input is left as it was
    wide = np.linspace(-900, 900, 10001)
    before = wide.copy()
    assert np.array_equal(sigmoid(wide), 0.5 * (1.0 + np.tanh(0.5 * wide)))
    assert np.array_equal(wide, before)
