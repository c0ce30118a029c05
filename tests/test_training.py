"""Losses, optimizer steps against hand-unrolled oracles, and the fit loop."""

import copy
import math
import multiprocessing as mp
import os
import time
import tracemalloc
from multiprocessing.connection import Connection

import numpy as np
import pytest

from danet import (AbstractUnit, DANet, DANetConfig, Dataset, FitResult, QhAdam, Rng,
                   TrainConfig, TrainingError, batch_gradients, compress_model,
                   cross_entropy, entmax15, evaluate, fit, history_to_csv, layers, lr_at,
                   mse, network, stratified_split)
from danet import reparam, training
from danet.entmax import entmax15_backward
from danet.training import _bias_adj
from helpers import (finite_diff_grad, make_small_danet, randomize_params, rel_err,
                     set_scoring_width, use_reference_step)


def test_train_config_validation():
    for bad in (dict(batch_size=0), dict(ghost_size=0),
                dict(batch_size=4, ghost_size=8), dict(lr0=0.0),
                dict(max_epochs=0), dict(patience=0)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    # a non-finite rate fails here, naming its key, not steps later in entmax
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lr0"):
            TrainConfig(lr0=value)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)


def test_lr_schedule_steps_every_20_epochs():
    cfg = TrainConfig()
    assert lr_at(0, cfg) == 0.008
    assert lr_at(19, cfg) == 0.008
    assert lr_at(20, cfg) == 0.008 * 0.95
    assert abs(lr_at(40, cfg) - 0.00722) <= 1e-18
    assert abs(lr_at(199, cfg) - 0.008 * 0.95 ** 9) <= 1e-18
    with pytest.raises(ValueError):
        lr_at(-1, cfg)


def test_cross_entropy_known_values():
    loss, _ = cross_entropy(np.zeros((3, 4)), np.array([0, 1, 3]))
    assert abs(loss - np.log(4.0)) <= 1e-12
    loss, _ = cross_entropy(np.array([[50.0, 0.0]]), np.array([0]))
    assert loss <= 1e-20
    # huge logits must not overflow
    loss, grad = cross_entropy(np.array([[1000.0, -1000.0], [-1000.0, 1000.0]]),
                               np.array([0, 1]))
    assert np.isfinite(loss) and loss <= 1e-12
    assert np.all(np.isfinite(grad))


def test_cross_entropy_gradient_matches_finite_differences():
    rng = Rng(0)
    logits0 = rng.standard_normal((6, 3))
    labels = rng.integers(0, 3, 6)
    _, grad = cross_entropy(logits0, labels)

    def loss(v):
        return cross_entropy(v.reshape(6, 3), labels)[0]

    fd = finite_diff_grad(loss, logits0.ravel(), h=1e-6).reshape(6, 3)
    assert np.max(np.abs(grad - fd)) <= 1e-8
    # rows sum to zero: shifting all logits of an instance changes nothing
    assert np.max(np.abs(grad.sum(axis=1))) <= 1e-15


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([0]))


def test_mse_values_and_gradient():
    loss, grad = mse(np.array([1.0, 3.0]), np.array([0.0, 1.0]))
    assert loss == 2.5  # (1 + 4) / 2
    assert np.array_equal(grad, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        mse(np.zeros(3), np.zeros(4))


def test_bias_adjustment_weights():
    assert _bias_adj(0.0, 5) == 0.0
    assert _bias_adj(0.9, 1) == 0.0  # first step is all gradient
    # closed form: 1 - (1-b)/(1-b^t)
    assert abs(_bias_adj(0.9, 3) - (1.0 - 0.1 / (1.0 - 0.9 ** 3))) <= 1e-15


class _Param:
    """Minimal named-parameter holder for optimizer unit tests."""

    def __init__(self, values, kinds):
        self.arrays = [np.array(v, dtype=np.float64) for v in values]
        self.triples = [(f"p{i}", k, a) for i, (k, a) in enumerate(zip(kinds, self.arrays))]


def test_qhadam_two_steps_match_hand_unrolled_oracle(monkeypatch):
    # the recipe's constants, which the oracle below spells out
    assert (QhAdam.nu1, QhAdam.nu2, QhAdam.beta1, QhAdam.beta2, QhAdam.eps) == (
        0.8, 1.0, 0.995, 0.999, 1e-8)
    monkeypatch.setattr(TrainConfig, "weight_decay", 0.0)
    cfg = TrainConfig(lr0=0.1)
    p = _Param([[1.0, -2.0]], ["weight"])
    opt = QhAdam(p.triples, cfg)
    g1 = np.array([0.5, -1.5])
    g2 = np.array([-0.25, 2.0])

    x = np.array([1.0, -2.0])
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in ((1, g1), (2, g2)):
        a1 = 1.0 - (1.0 - 0.995) / (1.0 - 0.995 ** t)
        a2 = 1.0 - (1.0 - 0.999) / (1.0 - 0.999 ** t)
        m = a1 * m + (1.0 - a1) * g
        v = a2 * v + (1.0 - a2) * g * g
        num = 0.8 * m + 0.2 * g
        den = np.sqrt(1.0 * v + 0.0 * g * g) + 1e-8
        x = x - 0.1 * num / den

    opt.step({"p0": g1}, lr=0.1)
    opt.step({"p0": g2}, lr=0.1)
    assert np.max(np.abs(p.arrays[0] - x)) <= 1e-12


def test_qhadam_with_unit_discounts_is_adam(monkeypatch):
    for name, value in dict(nu1=1.0, nu2=1.0, beta1=0.9, beta2=0.99).items():
        monkeypatch.setattr(QhAdam, name, value)
    monkeypatch.setattr(TrainConfig, "weight_decay", 0.0)
    cfg = TrainConfig(lr0=0.01)
    p = _Param([[0.3, 0.7, -1.1]], ["mask"])
    opt = QhAdam(p.triples, cfg)
    rng = Rng(1)

    # reference Adam in the m-hat / v-hat formulation
    x = np.array([0.3, 0.7, -1.1])
    m = np.zeros(3)
    v = np.zeros(3)
    for t in range(1, 6):
        g = rng.standard_normal(3)
        m = 0.9 * m + 0.1 * g
        v = 0.99 * v + 0.01 * g * g
        mh = m / (1.0 - 0.9 ** t)
        vh = v / (1.0 - 0.99 ** t)
        x = x - 0.01 * mh / (np.sqrt(vh) + 1e-8)
        opt.step({"p0": g}, lr=0.01)
    assert np.max(np.abs(p.arrays[0] - x)) <= 1e-12


def test_qhadam_first_step_without_momentum_is_signed(monkeypatch):
    for name, value in dict(nu1=0.7, nu2=0.5, beta1=0.0, beta2=0.0).items():
        monkeypatch.setattr(QhAdam, name, value)
    monkeypatch.setattr(TrainConfig, "weight_decay", 0.0)
    cfg = TrainConfig(lr0=0.05)
    p = _Param([[2.0, -3.0]], ["weight"])
    opt = QhAdam(p.triples, cfg)
    g = np.array([4.0, -0.5])
    opt.step({"p0": g}, lr=0.05)
    # with both betas 0 every mixture collapses to g and |g|
    expect = np.array([2.0, -3.0]) - 0.05 * g / (np.abs(g) + 1e-8)
    assert np.max(np.abs(p.arrays[0] - expect)) <= 1e-15


def test_weight_decay_shrinks_only_weight_kind(monkeypatch):
    assert TrainConfig.weight_decay == 1e-5  # the recipe's
    monkeypatch.setattr(TrainConfig, "weight_decay", 0.01)
    cfg = TrainConfig(lr0=0.1)
    p = _Param([[10.0], [10.0], [10.0], [10.0]],
               ["weight", "bias", "bn", "mask"])
    opt = QhAdam(p.triples, cfg)
    zero = {f"p{i}": np.zeros(1) for i in range(4)}
    opt.step(zero, lr=0.1)  # zero grads: the only movement is the shrink
    assert abs(p.arrays[0][0] - 10.0 * (1.0 - 0.1 * 0.01)) <= 1e-15
    for i in (1, 2, 3):
        assert p.arrays[i][0] == 10.0


def test_evaluate_hand_checks():
    class ClassStub:
        task = "class"

        def predict(self, x):
            return np.array([0, 1, 1, 0])

    class RankStub:
        task = "rank"

        def predict(self, x):
            return np.array([1.0, 2.0, 4.0])

    ds = Dataset(features=np.zeros((4, 2)), targets=np.array([0, 1, 0, 0]),
                 names=["a", "b"], kinds=["continuous"] * 2, task="class")
    assert evaluate(ClassStub(), ds) == 0.75
    ds2 = Dataset(features=np.zeros((3, 2)), targets=np.array([0.0, 2.0, 1.0]),
                  names=["a", "b"], kinds=["continuous"] * 2, task="rank")
    assert evaluate(RankStub(), ds2) == pytest.approx((1.0 + 0.0 + 9.0) / 3.0)
    # no rows, no metric: a typed error, not numpy's mean of nothing (nan)
    empty = Dataset(features=np.zeros((0, 3)), targets=np.zeros(0, dtype=np.int64),
                    names=["a", "b", "c"], kinds=["continuous"] * 3, task="class")
    with pytest.raises(ValueError, match="evaluate: empty dataset"):
        evaluate(ClassStub(), empty)


def _toy_sets(rng, n=48, task="class"):
    x = rng.standard_normal((n, 4))
    if task == "class":
        y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(np.int64)
    else:
        y = x[:, 0] * 0.3 + 0.1 * x[:, 2]
    names = [f"v{i}" for i in range(4)]
    kinds = ["continuous"] * 4
    train = Dataset(features=x[:40], targets=y[:40], names=names, kinds=kinds, task=task)
    valid = Dataset(features=x[40:], targets=y[40:], names=names, kinds=kinds, task=task)
    return train, valid


def _toy_model(seed, task="class"):
    cfg = DANetConfig(depth=2, k0=2, d0=4, d1=4, dropout=0.1, task=task)
    return DANet(4, cfg, ghost_size=8, seed=seed)


def test_fit_is_deterministic():
    tcfg = TrainConfig(batch_size=16, ghost_size=8, max_epochs=5, patience=10, seed=3)
    runs = []
    for _ in range(2):
        model = _toy_model(4)
        train, valid = _toy_sets(Rng(5))
        res = fit(model, train, valid, tcfg)
        runs.append((res.history, {n: a.copy() for n, _, a in model.named_params()}))
    assert runs[0][0] == runs[1][0]
    for name in runs[0][1]:
        assert np.array_equal(runs[0][1][name], runs[1][1][name])


def test_fit_restores_the_best_epoch():
    tcfg = TrainConfig(batch_size=16, ghost_size=8, max_epochs=8, patience=20, seed=6)
    model = _toy_model(7)
    train, valid = _toy_sets(Rng(8))
    res = fit(model, train, valid, tcfg)
    metrics = [vm for _, _, _, vm in res.history]
    assert res.best_metric == max(metrics)
    assert res.best_epoch == int(np.argmax(metrics))  # first best wins (strict >)
    assert evaluate(model, valid) == res.best_metric  # state actually restored


def test_fit_history_rows_and_lr_column(monkeypatch):
    monkeypatch.setattr(TrainConfig, "decay_every", 2)
    monkeypatch.setattr(TrainConfig, "decay_factor", 0.5)
    tcfg = TrainConfig(batch_size=16, ghost_size=8, max_epochs=4, patience=10,
                       seed=9, lr0=0.02)
    model = _toy_model(10)
    train, valid = _toy_sets(Rng(11))
    res = fit(model, train, valid, tcfg)
    assert res.epochs_run == 4 and len(res.history) == 4
    assert [row[0] for row in res.history] == [0, 1, 2, 3]
    assert [row[1] for row in res.history] == [0.02, 0.02, 0.01, 0.01]
    assert all(np.isfinite(row[2]) for row in res.history)


def test_fit_stops_after_patience_without_improvement():
    # a learning rate this small cannot move the accuracy, so epoch 0 stays
    # best and the loop stops after exactly `patience` flat epochs
    tcfg = TrainConfig(batch_size=16, ghost_size=8, max_epochs=50, patience=3,
                       seed=12, lr0=1e-13)
    model = _toy_model(13)
    train, valid = _toy_sets(Rng(14))
    res = fit(model, train, valid, tcfg)
    assert res.best_epoch == 0
    assert res.epochs_run == 4


def test_fit_runs_every_batch_including_the_short_tail(monkeypatch):
    set_scoring_width(monkeypatch, 1)  # spies in this process see the serial step
    tcfg = TrainConfig(batch_size=16, ghost_size=8, max_epochs=2, patience=10, seed=15)
    model = _toy_model(16)
    train, valid = _toy_sets(Rng(17))  # 40 train rows: batches 16/16/8
    events = []
    orig_forward, orig_step = model.forward, QhAdam.step

    def spy(x, train=False, **kwargs):
        if train:
            events.append(x.shape[0])
        return orig_forward(x, train=train, **kwargs)

    def step_spy(opt, grads, lr):
        events.append("step")
        return orig_step(opt, grads, lr)

    model.forward = spy
    monkeypatch.setattr(QhAdam, "step", step_spy)
    fit(model, train, valid, tcfg)
    # one training forward per 8-row ghost, one optimizer step per batch
    assert events == [8, 8, "step", 8, 8, "step", 8, "step"] * 2


@pytest.mark.parametrize("task", ["class", "rank"])
def test_ghost_by_ghost_step_matches_the_whole_batch_pass(task):
    # 20 rows at ghost 8: ghosts of 8, 8 and a short tail of 4
    cfg = DANetConfig(depth=4, k0=2, d0=5, d1=6, dropout=0.3, task=task, num_classes=3)
    whole = DANet(7, cfg, ghost_size=8, seed=31)
    rng = Rng(32)
    x = rng.standard_normal((20, 7))
    y = rng.integers(0, 3, 20) if task == "class" else rng.standard_normal(20)
    ghostly = copy.deepcopy(whole)

    out, ctx = whole.forward(x, train=True, rng=Rng(33))
    if task == "class":
        loss, dout = cross_entropy(out, y)
    else:
        loss, dout = mse(out[:, 0], y)
        dout = dout[:, None]
    _, expect = whole.backward(ctx, dout)
    got_loss, got = batch_gradients(ghostly, x, y, Rng(33))

    assert got_loss == pytest.approx(loss, rel=1e-12)
    assert list(got) == list(expect)
    for name, g in expect.items():
        scale = np.abs(g).max()
        assert np.abs(got[name] - g).max() <= 1e-12 * scale, name
    for (name, a), (_, b) in zip(whole.named_buffers(), ghostly.named_buffers()):
        assert np.abs(a - b).max() <= 1e-15, name
    assert ([bn.updates for _, bn in whole.named_bns()]
            == [bn.updates for _, bn in ghostly.named_bns()] == [1] * 24)
    _no_step_state(ghostly)


def _state_bytes(model):
    return ([(n, a.tobytes()) for n, _, a in model.named_params()],
            [(n, a.tobytes()) for n, a in model.named_buffers()],
            [bn.updates for _, bn in model.named_bns()])


def _units(model):
    return [m for _, m in model.walk() if isinstance(m, AbstractUnit)]


def _layers(model):
    return [m for _, m in model.walk() if isinstance(m, layers.AbstractLayer)]


def _no_step_state(model):
    # no layer stack (masks and masked weights) or sum (gradients and ghost
    # statistics) of a step survives it
    assert all(layer.mask_cache is None for layer in _layers(model))
    assert all(m.grad_sums is None for _, m in model.walk())


def _sparse_mask_case(task, seed):
    # 37 rows at ghost 8 end in a short tail ghost of 5; scattered logits
    # give sparse, uneven masks
    cfg = DANetConfig(depth=4, k0=2, d0=5, d1=6, dropout=0.3, task=task, num_classes=3)
    model = DANet(7, cfg, ghost_size=8, seed=seed)
    rng = Rng(seed + 1)
    randomize_params(model, rng, mask_scale=2.0)
    assert any((entmax15(u.mask_logits).probs == 0.0).any() for u in _units(model))
    x = rng.standard_normal((37, 7))
    y = rng.integers(0, 3, 37) if task == "class" else rng.standard_normal(37)
    return model, x, y


def _state(model):
    return ([(n, a.copy()) for n, _, a in model.named_params()],
            [(n, a.copy()) for n, a in model.named_buffers()],
            [bn.updates for _, bn in model.named_bns()])


def _assert_state_close(state, ref_state):
    # parameters as one flattened vector, each running statistic on its own,
    # within 1e-12 of the reference's norm; names and update counts exact
    (params, buffers, updates), (rparams, rbuffers, rupdates) = state, ref_state
    assert [n for n, _ in params] == [n for n, _ in rparams]
    assert rel_err([a for _, a in params], [a for _, a in rparams]) <= 1e-12
    assert [n for n, _ in buffers] == [n for n, _ in rbuffers]
    for (name, a), (_, b) in zip(buffers, rbuffers):
        assert rel_err(a, b) <= 1e-12, name
    assert updates == rupdates


def _two_steps(model, x, y):
    # an optimizer step between the two moves the masks, so a mask kept
    # from the first step would show in the second; the step is looked up
    # on the module, so use_reference_step reaches it
    opt = QhAdam(model.named_params(), TrainConfig(batch_size=37, ghost_size=8))
    steps = []
    for seed in (43, 44):
        loss, grads = training.batch_gradients(model, x, y, Rng(seed))
        steps.append((loss, list(grads), [g.copy() for g in grads.values()], _state(model)))
        opt.step(grads, 0.05)
    return steps


@pytest.mark.parametrize("task", ["class", "rank"])
def test_step_is_within_1e_12_of_the_straight_line_step(task, monkeypatch):
    # within 1e-12 of the straight-line step: the loss relative to itself,
    # the gradients as one flattened vector (a per-tensor bound would judge
    # a tensor of tiny gradients by its own rounding), the running
    # statistics; gradient names, their order and update counts exact
    fast, x, y = _sparse_mask_case(task, 40)
    slow = copy.deepcopy(fast)
    got = _two_steps(fast, x, y)
    use_reference_step(monkeypatch)
    expect = _two_steps(slow, x, y)
    for (loss, names, grads, state), (rloss, rnames, rgrads, rstate) in zip(got, expect):
        assert loss == pytest.approx(rloss, rel=1e-12, abs=0.0)
        assert names == rnames
        assert rel_err(grads, rgrads) <= 1e-12
        _assert_state_close(state, rstate)


def test_fit_is_within_1e_12_of_the_straight_line_fit(monkeypatch):
    # batches of 12 at ghost 8: every step ends in a 4-row tail ghost. Over
    # 4 epochs the history's epochs, rates and validation metrics are
    # exact and its losses within 1e-12 relative; the kept state is held
    # as in the step test, parameters within 1e-12 as one vector
    tcfg = TrainConfig(batch_size=12, ghost_size=8, max_epochs=4, patience=10, seed=3)
    runs = []
    for reference in (False, True):
        if reference:
            use_reference_step(monkeypatch)
        model = _toy_model(4)
        randomize_params(model, Rng(6), mask_scale=2.0)
        train, valid = _toy_sets(Rng(5))
        res = fit(model, train, valid, tcfg)
        runs.append((res, _state(model)))
    (res, state), (ref, ref_state) = runs
    assert (res.best_epoch, res.best_metric) == (ref.best_epoch, ref.best_metric)
    assert len(res.history) == len(ref.history) == 4
    for (epoch, lr, loss, metric), (repoch, rlr, rloss, rmetric) in zip(res.history, ref.history):
        assert (epoch, lr, metric) == (repoch, rlr, rmetric)
        assert loss == pytest.approx(rloss, rel=1e-12, abs=0.0)
    _assert_state_close(state, ref_state)


def test_whole_batch_training_pass_is_the_straight_line_pass(monkeypatch):
    # one DANet.forward(train=True) and backward over 512 rows at ghost 256,
    # as the benchmark's probe runs them: the loss within 1e-12 relative,
    # the input gradient and the parameter gradients (as one flattened
    # vector) within 1e-12 of the reference's norm, each running statistic
    # within 1e-12, update counts exact
    cfg = DANetConfig(depth=4, k0=3, d0=6, d1=8, dropout=0.1)
    fast = DANet(9, cfg, ghost_size=256, seed=51)
    randomize_params(fast, Rng(52), mask_scale=2.0)
    slow = copy.deepcopy(fast)
    rng = Rng(53)
    x = rng.standard_normal((512, 9))
    y = rng.integers(0, 2, 512)
    runs = []
    for model in (fast, slow):
        if model is slow:
            use_reference_step(monkeypatch)
        out, ctx = model.forward(x, train=True, rng=Rng(54))
        loss, dout = cross_entropy(out, y)
        dx, grads = model.backward(ctx, dout)
        runs.append((loss, dx, [grads[n] for n, _, _ in model.named_params()], _state(model)))
    (loss, dx, grads, state), (rloss, rdx, rgrads, rstate) = runs
    assert loss == pytest.approx(rloss, rel=1e-12, abs=0.0)
    assert rel_err(dx, rdx) <= 1e-12
    assert rel_err(grads, rgrads) <= 1e-12
    _assert_state_close(state, rstate)
    assert state[2] == [1] * len(state[2])


def test_fit_validates_each_epoch_on_the_folded_model(monkeypatch):
    # predict, through evaluate, folds the live model; it looks the fold up
    # on reparam at each call
    folds = []
    monkeypatch.setattr(reparam, "compress_model",
                        lambda model: folds.append(model) or compress_model(model))
    tcfg = TrainConfig(batch_size=16, ghost_size=8, max_epochs=3, patience=10, seed=55)
    model = _toy_model(56)
    train, valid = _toy_sets(Rng(57))
    fit(model, train, valid, tcfg)
    assert folds == [model] * 3  # one fold per epoch, of the live model


@pytest.mark.parametrize("task", ["class", "rank"])
def test_a_folded_validation_metric_is_the_live_metric(task):
    # after a 1-epoch fit the kept parameters are the trained ones, and the
    # live model scores the validation set as the folded one did: the
    # accuracy exactly, the squared error within 1e-12 relative
    tcfg = TrainConfig(batch_size=16, ghost_size=8, max_epochs=1, patience=10, seed=58)
    model = _toy_model(59, task=task)
    train, valid = _toy_sets(Rng(60), task=task)
    res = fit(model, train, valid, tcfg)
    live = evaluate(model, valid)
    if task == "class":
        assert res.history[0][3] == res.best_metric == live
    else:
        assert res.history[0][3] == res.best_metric == pytest.approx(live, rel=1e-12, abs=0.0)


def test_each_unit_masks_once_per_step_and_per_scoring_call(monkeypatch):
    set_scoring_width(monkeypatch, 1)  # spies in this process see the serial step
    model, x, y = _sparse_mask_case("class", 45)
    calls, backward_calls, folds = [], [], []
    monkeypatch.setattr(layers, "entmax15", lambda z: calls.append(z) or entmax15(z))
    monkeypatch.setattr(layers, "entmax15_backward",
                        lambda r, g: backward_calls.append(g) or entmax15_backward(r, g))
    with model.fixed_params():  # each layer stacks its units on entry, before any forward
        assert all(isinstance(layer.mask_cache, layers.UnitStack) for layer in _layers(model))
        assert len(calls) == len(_units(model))
    _no_step_state(model)
    calls.clear()
    batch_gradients(model, x, y, Rng(46))  # five ghosts
    assert len(calls) == len(_units(model))
    # the mask gradient is finished once per step, not once per ghost
    assert len(backward_calls) == len(_units(model))
    # a scoring call masks each unit once, in the fold of its twin, however
    # many blocks it scores and on whatever width
    monkeypatch.setattr(reparam, "compress_model",
                        lambda model: folds.append(model) or compress_model(model))
    monkeypatch.setattr(network, "PREDICT_BLOCK", 4)
    state = _state_bytes(model)
    for rows, width in ((37, 1), (4, 1), (37, 2)):  # ten blocks, one, ten on a pool of two
        set_scoring_width(monkeypatch, width)
        calls.clear()
        folds.clear()
        model.predict(x[:rows])
        assert len(calls) == len(_units(model)) and folds == [model]
        assert _state_bytes(model) == state  # scoring moves no running statistic


def test_open_sums_move_the_running_statistics_once_when_they_finish():
    # a training forward inside open sums adds its ghosts' statistics to the
    # layer's sums; a normal exit moves each batch norm once by all of them,
    # a raising one moves none
    model, x, _ = _sparse_mask_case("class", 73)  # 37 rows: five ghosts
    bns = [bn for _, bn in model.named_bns()]
    state = _state_bytes(model)
    with pytest.raises(RuntimeError, match="step failed"):
        with model.summing_grads():
            model.forward(x, train=True, rng=Rng(74))
            raise RuntimeError("step failed")
    assert _state_bytes(model) == state
    with model.summing_grads():
        out, ctx = model.forward(x, train=True, rng=Rng(74))
        assert [bn.updates for bn in bns] == [0] * len(bns)  # none moved at the forward
        assert all(layer.grad_sums["ghosts"] == 5 for layer in _layers(model))
        model.backward(ctx, np.ones_like(out) / out.size)
    assert [bn.updates for bn in bns] == [1] * len(bns)
    # the first layer sees the raw input: its batch norms moved by the mean
    # of numpy's per-ghost mean and variance of the masked pre-activations
    for unit in model.blocks[0].main1.units:
        p = entmax15(unit.mask_logits).probs
        for w, bn in ((unit.w1, unit.bn1), (unit.w2, unit.bn2)):
            h = x @ (w * p).T
            ghosts = [h[s:s + 8] for s in range(0, 37, 8)]
            mean = np.mean([g.mean(axis=0) for g in ghosts], axis=0)
            var = np.mean([g.var(axis=0) for g in ghosts], axis=0)
            assert np.allclose(bn.running_mean, 0.01 * mean, rtol=1e-12, atol=1e-15)
            assert np.allclose(bn.running_var, 0.99 + 0.01 * var, rtol=1e-12, atol=1e-15)
    _no_step_state(model)


def test_a_step_keeps_one_copy_of_the_masked_weights():
    # inside a step each layer's stack holds its units' masks and masked
    # weights, with the values a fresh masking gives; the units keep none
    model, x, _ = _sparse_mask_case("class", 67)
    with model.fixed_params():
        model.forward(x, train=True, rng=Rng(68))
        for layer in _layers(model):
            stack = layer.mask_cache
            for k, unit in enumerate(layer.units):
                mask = entmax15(unit.mask_logits)
                assert np.array_equal(stack.masks[k].probs, mask.probs)
                assert np.array_equal(stack.w[k], np.concatenate((unit.w1, unit.w2)) * mask.probs)
                held = [a for v in vars(unit).values()
                        for a in (v if isinstance(v, tuple) else (v,))]
                assert not any(isinstance(a, np.ndarray) and np.shares_memory(a, stack.w)
                               for a in held)
    _no_step_state(model)


def test_the_mask_cache_does_not_outlive_its_step():
    model, x, y = _sparse_mask_case("class", 47)
    batch_gradients(model, x, y, Rng(48))
    _no_step_state(model)
    # new logits reach the next call: feature 0 alone is kept
    unit = model.blocks[0].main1.units[0]
    before, _ = unit.forward(x, train=False)
    scores = model.scores(x)
    unit.mask_logits[:] = -10.0
    unit.mask_logits[0] = 10.0
    assert np.array_equal(unit.masked()[0].probs, np.eye(7)[0])
    assert not np.array_equal(unit.forward(x, train=False)[0], before)
    assert not np.array_equal(model.scores(x), scores)


@pytest.mark.parametrize("width", [1, 2])
def test_the_next_finish_masks_with_the_new_logits(width, monkeypatch):
    # each step's finish masks the units' gradients with that step's masks:
    # once a unit keeps feature 0 alone, its weight gradients vanish off
    # column 0, and so does its mask gradient (a one-feature entmax is flat)
    set_scoring_width(monkeypatch, width)
    model, x, y = _sparse_mask_case("class", 51)
    unit = model.blocks[0].main1.units[0]
    names = [f"block0.main1.u0.{leaf}" for leaf in ("mask", "w1", "w2")]
    with training.ghost_pool(model, 37) as pool:
        _, grads = batch_gradients(model, x, y, Rng(52), pool)
        assert all(grads[n][..., 1:].any() for n in names)
        unit.mask_logits[:] = -10.0
        unit.mask_logits[0] = 10.0
        _, grads = batch_gradients(model, x, y, Rng(52), pool)
    assert grads[names[1]][:, 0].any() and grads[names[2]][:, 0].any()
    assert not any(grads[n][..., 1:].any() for n in names)
    assert not grads[names[0]].any()
    _no_step_state(model)


def test_a_step_that_raises_drops_the_mask_cache(monkeypatch):
    set_scoring_width(monkeypatch, 1)  # spies in this process see the serial step
    model, x, y = _sparse_mask_case("class", 49)
    state = _state_bytes(model)
    forward, seen = DANet.forward, []

    def fails_on_the_third_ghost(self, *args, **kwargs):
        seen.append(len(seen) + 1)
        if len(seen) == 3:
            # each layer's gradient and statistic sums hold ghosts 1 and 2
            assert all(layer.grad_sums["ghosts"] == 2 for layer in _layers(self))
            assert all(set(layer.grad_sums) == {"w", "gamma", "beta", "mean", "var", "ghosts"}
                       for layer in _layers(self))
            raise RuntimeError("ghost 3 failed")
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(DANet, "forward", fails_on_the_third_ghost)
    with pytest.raises(RuntimeError, match="ghost 3 failed"):
        batch_gradients(model, x, y, Rng(50))
    assert seen == [1, 2, 3]
    assert all(m.grad_sums is None for _, m in model.walk())  # every gradient sum dropped
    assert _state_bytes(model) == state  # no running statistic moved
    _no_step_state(model)


def test_each_layer_folds_once_per_ghost_for_all_its_units(monkeypatch):
    set_scoring_width(monkeypatch, 1)  # spies in this process see the serial step
    # the fold statistics (W S, the variances, inv, a, [a W | beta]) are
    # computed in one call per layer and ghost, not per unit and ghost, and
    # the units are stacked once per step
    model, x, y = _sparse_mask_case("class", 61)
    folds, stacks = [], []
    fold, of = layers.UnitStack.fold, layers.UnitStack.of.__func__
    monkeypatch.setattr(layers.UnitStack, "fold",
                        lambda self, fc, mu: folds.append(self) or fold(self, fc, mu))
    monkeypatch.setattr(layers.UnitStack, "of",
                        classmethod(lambda cls, units: stacks.append(units) or of(cls, units)))
    batch_gradients(model, x, y, Rng(62))  # five ghosts
    assert len(_layers(model)) == 6 and len(_units(model)) == 12
    assert len(stacks) == 6
    assert len(folds) == 6 * 5
    assert all(len(stack.masks) == 2 for stack in folds)


def test_the_reference_step_reaches_no_stacked_code(monkeypatch):
    # the straight-line oracle must not lean on the code it checks: with
    # every piece of the stacked fold made to raise, the reference step and
    # the reference fit still run
    def forbidden(*args, **kwargs):
        raise AssertionError("the reference reached the stacked fold")

    for name in ("of", "fold"):
        monkeypatch.setattr(layers.UnitStack, name, forbidden)
    for name in ("forward", "backward", "finished_grads", "record"):
        monkeypatch.setattr(layers.AbstractLayer, name, forbidden)
    use_reference_step(monkeypatch)  # puts its own AbstractLayer.forward in
    model, x, y = _sparse_mask_case("rank", 63)
    assert len(_two_steps(model, x, y)) == 2
    tcfg = TrainConfig(batch_size=12, ghost_size=8, max_epochs=2, patience=10, seed=3)
    train, valid = _toy_sets(Rng(64))
    assert fit(_toy_model(65), train, valid, tcfg).epochs_run == 2
    monkeypatch.undo()
    monkeypatch.setattr(layers.UnitStack, "fold", forbidden)
    with pytest.raises(AssertionError, match="stacked fold"):  # the fast step reaches it
        batch_gradients(model, x, y, Rng(66))


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = fn()  # noqa: F841  (what fn returns stays alive while measured)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def test_fit_steps_hold_one_ghost_of_activations():
    # Two 4096-row steps at ghost 256 must peak far below one whole-batch
    # training forward: only one ghost's context may be alive at a time,
    # and none may outlive its step. Holding the previous step's context
    # while the next one runs gives ~2x; a whole-batch step ~1x.
    cfg = DANetConfig(depth=2, k0=2, d0=8, d1=16, dropout=0.1)
    rng = Rng(34)
    x = rng.standard_normal((8192 + 64, 6))
    y = (x[:, 0] > 0).astype(np.int64)
    names, kinds = [f"v{i}" for i in range(6)], ["continuous"] * 6
    train = Dataset(features=x[:8192], targets=y[:8192], names=names, kinds=kinds, task="class")
    valid = Dataset(features=x[8192:], targets=y[8192:], names=names, kinds=kinds, task="class")
    tcfg = TrainConfig(batch_size=4096, ghost_size=256, max_epochs=1, seed=35)

    model = DANet(6, cfg, ghost_size=256, seed=36)
    forward_mb = _traced_peak_mb(lambda: model.forward(x[:4096], train=True, rng=Rng(37)))
    model = DANet(6, cfg, ghost_size=256, seed=36)
    fit_mb = _traced_peak_mb(lambda: fit(model, train, valid, tcfg))
    assert fit_mb < 0.3 * forward_mb, (fit_mb, forward_mb)


def test_fit_aborts_on_non_finite_loss():
    tcfg = TrainConfig(batch_size=16, ghost_size=8, max_epochs=5, patience=30, seed=18)
    model = _toy_model(19, task="rank")
    train, valid = _toy_sets(Rng(20), task="rank")
    train.targets *= 1e200  # the squared residual overflows on the first batch
    with np.errstate(over="ignore"):
        with pytest.raises(TrainingError, match="non-finite"):
            fit(model, train, valid, tcfg)


def test_fit_rejects_an_empty_validation_set():
    # a 1% split of 40 rows rounds to no validation rows at all
    data, _ = _toy_sets(Rng(21))
    train, valid = stratified_split(data, frac=0.01, seed=0)
    assert valid.n_rows == 0
    tcfg = TrainConfig(batch_size=16, ghost_size=8, max_epochs=2, seed=22)
    with pytest.raises(TrainingError, match="empty validation set"):
        fit(_toy_model(23), train, valid, tcfg)
    # an empty training split is refused too
    no_rows = train.subset(np.zeros(0, dtype=np.int64))
    with pytest.raises(TrainingError, match="empty training set"):
        fit(_toy_model(23), no_rows, valid, tcfg)


def test_fit_rejects_a_ghost_size_that_differs_from_the_model():
    # the model's batch norms split batches at its own ghost size (8), so a
    # config asking for 4 would silently train at 8
    train, valid = _toy_sets(Rng(24))
    tcfg = TrainConfig(batch_size=16, ghost_size=4, max_epochs=1, seed=25)
    with pytest.raises(TrainingError, match="ghost_size=4 differs from the model's ghost_size=8"):
        fit(_toy_model(26), train, valid, tcfg)


def test_small_steps_reduce_training_loss_on_most_seeds(monkeypatch):
    monkeypatch.setattr(TrainConfig, "weight_decay", 0.0)
    wins = 0
    for seed in range(20):
        rng = Rng(1000 + seed)
        model, x = make_small_danet(rng)
        if model.task == "class":
            labels = rng.integers(0, 2, x.shape[0])
            loss_of = lambda out: cross_entropy(out, labels)
        else:
            targets = rng.standard_normal(x.shape[0])
            loss_of = lambda out: (lambda l, g: (l, g[:, None]))(*mse(out[:, 0], targets))
        cfg = TrainConfig(lr0=1e-3)
        opt = QhAdam(model.named_params(), cfg)
        out, ctx = model.forward(x, train=True)
        first, _ = loss_of(out)
        for _ in range(10):
            out, ctx = model.forward(x, train=True)
            loss, dout = loss_of(out)
            _, grads = model.backward(ctx, dout)
            opt.step(grads, lr=1e-3)
        out, _ = model.forward(x, train=True)
        final, _ = loss_of(out)
        wins += final < first
    assert wins >= 19, f"loss decreased on only {wins}/20 seeds"


def test_history_csv_round_trips_floats(tmp_path):
    history = [(0, 0.008, 0.6931471805599453, 0.5),
               (1, 0.008, 1.0 / 3.0, 0.9125)]
    path = tmp_path / "history.csv"
    history_to_csv(history, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,lr,train_loss,valid_metric"
    parsed = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in parsed] == [0, 1]
    assert float(parsed[0][2]) == 0.6931471805599453
    assert float(parsed[1][2]) == 1.0 / 3.0


def test_fit_result_shape():
    res = FitResult(history=[(0, 0.1, 1.0, 0.5)], best_epoch=0, best_metric=0.5)
    assert res.best_epoch == 0 and res.epochs_run == 1


# -- the ghosts of a step on forked workers: the serial step's bits at every
# width, and no process left behind

def _step_case(task, rows, ghost=8):
    cfg = DANetConfig(depth=4, k0=2, d0=5, d1=6, dropout=0.3, task=task, num_classes=3)
    model = DANet(7, cfg, ghost_size=ghost, seed=70)
    randomize_params(model, Rng(71))
    rng = Rng(72)
    x = rng.standard_normal((rows, 7))
    y = rng.integers(0, 3, rows) if task == "class" else rng.standard_normal(rows)
    return model, x, y


def _step_at(width, monkeypatch, task, rows):
    set_scoring_width(monkeypatch, width)
    model, x, y = _step_case(task, rows)
    rng = Rng(73)
    with training.ghost_pool(model, rows) as pool:
        assert (pool is None) == (width == 1)
        loss, grads = batch_gradients(model, x, y, rng, pool)
    bns = [(bn.running_mean, bn.running_var, bn.updates) for _, bn in model.named_bns()]
    return loss, grads, bns, rng.random()


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("task, rows", [("class", 44), ("rank", 44), ("class", 12)],
                         ids=["class-tail", "rank-tail", "fewer-ghosts-than-workers"])
def test_a_pool_step_is_the_serial_step_bitwise(width, task, rows, monkeypatch):
    # 44 rows at ghost 8: five ghosts of 8 and a tail of 4; 12 rows: two
    # ghosts, fewer than three workers
    loss, grads, bns, after = _step_at(1, monkeypatch, task, rows)
    got_loss, got_grads, got_bns, got_after = _step_at(width, monkeypatch, task, rows)
    assert got_loss == loss and got_after == after  # the same rng draws, in order
    assert list(got_grads) == list(grads)
    assert all(np.array_equal(got_grads[n], grads[n]) for n in grads)
    for (mean, var, updates), (got_mean, got_var, got_updates) in zip(bns, got_bns):
        assert np.array_equal(got_mean, mean) and np.array_equal(got_var, var)
        assert got_updates == updates == 1
    assert not mp.active_children()


def test_a_slow_worker_takes_fewer_ghosts_and_the_step_keeps_its_bits(monkeypatch):
    # worker 0 sleeps through each of its ghosts, so ghost 0 finishes last;
    # worker 1 takes the ghosts it would have waited for, and the merge still
    # runs in ghost order
    loss, grads, bns, after = _step_at(1, monkeypatch, "class", 44)
    ran, ghost_step = mp.RawArray("i", 2), training._ghost_step

    def slow_first_worker(*args):
        index = int(mp.current_process().name.rsplit("-", 1)[1])
        ran[index] += 1
        if index == 0:
            time.sleep(0.2)
        return ghost_step(*args)

    monkeypatch.setattr(training, "_ghost_step", slow_first_worker)
    got_loss, got_grads, got_bns, got_after = _step_at(2, monkeypatch, "class", 44)
    assert got_loss == loss and got_after == after
    assert all(np.array_equal(got_grads[n], grads[n]) for n in grads)
    for (mean, var, _), (got_mean, got_var, _) in zip(bns, got_bns):
        assert np.array_equal(got_mean, mean) and np.array_equal(got_var, var)
    assert ran[0] + ran[1] == 6 and ran[0] < ran[1]
    assert not mp.active_children()


def _fit_at(width, monkeypatch, task):
    set_scoring_width(monkeypatch, width)
    model = _toy_model(74, task=task)
    train, valid = _toy_sets(Rng(75), task=task)  # 40 rows: batches 16/16/8 of 8-row ghosts
    res = fit(model, train, valid, TrainConfig(batch_size=16, ghost_size=8, max_epochs=4,
                                               patience=10, seed=76))
    return res, model.state_dict()


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("task", ["class", "rank"])
def test_a_pool_fit_is_the_serial_fit_bitwise(width, task, monkeypatch):
    res, state = _fit_at(1, monkeypatch, task)
    got, got_state = _fit_at(width, monkeypatch, task)
    assert got.history == res.history and got.best_epoch == res.best_epoch
    for part in ("params", "buffers"):
        assert all(np.array_equal(got_state[part][n], a) for n, a in state[part].items())
    assert got_state["counters"] == state["counters"]
    assert not mp.active_children()


def test_a_fit_that_raises_leaves_no_worker(monkeypatch):
    set_scoring_width(monkeypatch, 2)
    tcfg = TrainConfig(batch_size=16, ghost_size=8, max_epochs=3, patience=10, seed=77)
    train, valid = _toy_sets(Rng(78), task="rank")
    train.targets *= 1e200  # the squared residual overflows on the first batch
    with np.errstate(over="ignore"), pytest.raises(TrainingError, match="non-finite"):
        fit(_toy_model(79, task="rank"), train, valid, tcfg)
    assert not mp.active_children()

    def interrupted(opt, grads, lr):
        raise KeyboardInterrupt

    train, valid = _toy_sets(Rng(78))
    monkeypatch.setattr(QhAdam, "step", interrupted)
    with pytest.raises(KeyboardInterrupt):
        fit(_toy_model(79), train, valid, tcfg)
    assert not mp.active_children()


def test_a_worker_exception_is_raised_in_the_parent(monkeypatch):
    set_scoring_width(monkeypatch, 2)
    parent, ghost_step = os.getpid(), training._ghost_step

    def failing(model, x, targets, uniforms, scale):
        if os.getpid() != parent and scale <= 0.5:  # a ghost of a 16-row batch, in a worker
            raise ValueError("injected worker failure")
        return ghost_step(model, x, targets, uniforms, scale)

    monkeypatch.setattr(training, "_ghost_step", failing)
    train, valid = _toy_sets(Rng(80))
    tcfg = TrainConfig(batch_size=16, ghost_size=8, max_epochs=2, patience=10, seed=81)
    with pytest.raises(ValueError, match="injected worker failure"):
        fit(_toy_model(82), train, valid, tcfg)
    assert not mp.active_children()
    # a pool that has failed is closed, and says so
    model, x, y = _step_case("class", 16)
    with training.ghost_pool(model, 16) as pool:
        with pytest.raises(ValueError, match="injected"):
            batch_gradients(model, x, y, Rng(83), pool)
        with pytest.raises(RuntimeError, match="closed"):
            batch_gradients(model, x, y, Rng(83), pool)
    assert not mp.active_children()


def test_a_worker_exception_is_raised_when_its_step_ends_late(monkeypatch):
    # the parent ends a step at every worker after its last hand-out; a
    # worker that failed before that end reached it must still take it, or
    # the parent's send breaks and hides the worker's exception
    set_scoring_width(monkeypatch, 2)
    parent, ghost_step, send = os.getpid(), training._ghost_step, Connection.send

    def failing(*args):
        if os.getpid() != parent:
            raise ValueError("injected worker failure")
        return ghost_step(*args)

    def late_step_end(conn, obj):
        if obj is None and os.getpid() == parent:
            time.sleep(0.3)  # both workers fail and report first
        send(conn, obj)

    monkeypatch.setattr(training, "_ghost_step", failing)
    monkeypatch.setattr(Connection, "send", late_step_end)
    model, x, y = _step_case("class", 16)
    with training.ghost_pool(model, 16) as pool:
        with pytest.raises(ValueError, match="injected worker failure"):
            batch_gradients(model, x, y, Rng(83), pool)
    assert not mp.active_children()


def test_width_one_makes_no_pool(monkeypatch):
    set_scoring_width(monkeypatch, 1)
    model = _toy_model(84)
    with training.ghost_pool(model, 64) as pool:
        assert pool is None
    set_scoring_width(monkeypatch, 4)
    with training.ghost_pool(model, 8) as pool:  # one ghost
        assert pool is None
    with training.ghost_pool(model, 24) as pool:  # three ghosts cap the width
        assert pool.width == 3 and len(mp.active_children()) == 3
    assert not mp.active_children()
    monkeypatch.setattr(mp.current_process(), "daemon", True)  # as in a multiprocessing.Pool
    with training.ghost_pool(model, 24) as pool:
        assert pool is None
