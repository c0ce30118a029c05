"""Losses, optimizer steps against hand-unrolled oracles, and the fit loop."""

import copy
import tracemalloc

import numpy as np
import pytest

from danet import (DANet, DANetConfig, Dataset, FitResult, QhAdam, Rng,
                   TrainConfig, TrainingError, batch_gradients, cross_entropy, evaluate,
                   finite_diff_grad, fit, history_to_csv, lr_at, mse, stratified_split)
from danet.training import _bias_adj
from helpers import make_small_danet


def test_train_config_validation():
    for bad in (dict(batch_size=0), dict(ghost_size=0),
                dict(batch_size=4, ghost_size=8), dict(lr0=0.0),
                dict(decay_factor=0.0), dict(decay_factor=1.5),
                dict(decay_every=0), dict(nu1=-0.1), dict(beta2=1.2),
                dict(weight_decay=-1e-5), dict(eps=0.0),
                dict(max_epochs=0), dict(patience=0)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


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
    assert _bias_adj(1.0, 1) == 0.0
    assert _bias_adj(1.0, 4) == 0.75
    assert _bias_adj(0.0, 5) == 0.0
    assert _bias_adj(0.9, 1) == 0.0  # first step is all gradient
    # closed form: 1 - (1-b)/(1-b^t)
    assert abs(_bias_adj(0.9, 3) - (1.0 - 0.1 / (1.0 - 0.9 ** 3))) <= 1e-15


class _Param:
    """Minimal named-parameter holder for optimizer unit tests."""

    def __init__(self, values, kinds):
        self.arrays = [np.array(v, dtype=np.float64) for v in values]
        self.triples = [(f"p{i}", k, a) for i, (k, a) in enumerate(zip(kinds, self.arrays))]


def test_qhadam_two_steps_match_hand_unrolled_oracle():
    cfg = TrainConfig(lr0=0.1, weight_decay=0.0, nu1=0.8, nu2=1.0,
                      beta1=0.995, beta2=0.999, eps=1e-8)
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


def test_qhadam_with_unit_discounts_is_adam():
    cfg = TrainConfig(lr0=0.01, weight_decay=0.0, nu1=1.0, nu2=1.0,
                      beta1=0.9, beta2=0.99, eps=1e-8)
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


def test_qhadam_first_step_without_momentum_is_signed():
    cfg = TrainConfig(lr0=0.05, weight_decay=0.0, nu1=0.7, nu2=0.5,
                      beta1=0.0, beta2=0.0, eps=1e-8)
    p = _Param([[2.0, -3.0]], ["weight"])
    opt = QhAdam(p.triples, cfg)
    g = np.array([4.0, -0.5])
    opt.step({"p0": g}, lr=0.05)
    # with both betas 0 every mixture collapses to g and |g|
    expect = np.array([2.0, -3.0]) - 0.05 * g / (np.abs(g) + 1e-8)
    assert np.max(np.abs(p.arrays[0] - expect)) <= 1e-15


def test_weight_decay_shrinks_only_weight_kind():
    cfg = TrainConfig(lr0=0.1, weight_decay=0.01)
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


def test_fit_history_rows_and_lr_column():
    tcfg = TrainConfig(batch_size=16, ghost_size=8, max_epochs=4, patience=10,
                       seed=9, lr0=0.02, decay_every=2, decay_factor=0.5)
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
    assert all(bn.pending is None for _, bn in ghostly.named_bns())


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


def test_fit_rejects_a_ghost_size_that_differs_from_the_model():
    # the model's batch norms split batches at its own ghost size (8), so a
    # config asking for 4 would silently train at 8
    train, valid = _toy_sets(Rng(24))
    tcfg = TrainConfig(batch_size=16, ghost_size=4, max_epochs=1, seed=25)
    with pytest.raises(TrainingError, match="ghost_size=4 differs from the model's ghost_size=8"):
        fit(_toy_model(26), train, valid, tcfg)


def test_small_steps_reduce_training_loss_on_most_seeds():
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
        cfg = TrainConfig(lr0=1e-3, weight_decay=0.0)
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
    res = FitResult(history=[(0, 0.1, 1.0, 0.5)], best_epoch=0, best_metric=0.5,
                    epochs_run=1)
    assert res.best_epoch == 0 and res.epochs_run == 1
