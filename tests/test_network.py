"""Block wiring, full-model gradients, prediction, cost counting, and the
container round trip."""

import json

import numpy as np
import pytest

from danet import (ContainerError, DANet, DANetConfig, Dataset, PreprocessState, Rng,
                   ShapeError, count_flops, count_flops_folded, finite_diff_grad,
                   load_model, save_model)
from danet.network import BasicBlock, MlpHead
from helpers import grad_check_model, make_small_danet, model_is_stable


def test_config_validation():
    for bad in (dict(depth=3), dict(depth=0), dict(k0=0), dict(d0=0), dict(d1=-1),
                dict(dropout=1.0), dict(dropout=-0.1), dict(head_hidden=-1),
                dict(task="cluster"), dict(task="class", num_classes=1)):
        with pytest.raises(ValueError):
            DANetConfig(**bad)
    cfg = DANetConfig(depth=6, d0=20)
    assert cfg.n_blocks == 3
    assert cfg.hidden_width == 40      # default: twice the block width
    assert DANetConfig(head_hidden=7).hidden_width == 7
    assert DANetConfig(task="rank").out_dim == 1
    assert DANetConfig(task="class", num_classes=5).out_dim == 5


def test_block_forward_matches_manual_composition():
    cfg = DANetConfig(depth=2, k0=2, d0=3, d1=4, dropout=0.25)
    block = BasicBlock(5, 5, cfg, ghost_size=8, rng=Rng(0))
    data_rng = Rng(1)
    f = data_rng.standard_normal((8, 5))
    x = data_rng.standard_normal((8, 5))

    out, ctx = block.forward(f, x, train=True, uniforms=Rng(77).random((8, 3)))

    # replay: train-mode layer outputs depend only on batch stats, and the
    # dropout stream is reproducible from the same seed
    m1, _ = block.main1.forward(f, train=True)
    m2, _ = block.main2.forward(m1, train=True)
    s, _ = block.shortcut.forward(x, train=True)
    keep = Rng(77).random(s.shape) >= 0.25
    expect = m2 + s * (keep / 0.75)
    assert np.max(np.abs(out - expect)) <= 1e-12
    assert np.array_equal(ctx.drop_mask, keep / 0.75)


def test_block_eval_has_no_dropout_and_no_ctx():
    cfg = DANetConfig(depth=2, k0=1, d0=3, d1=3, dropout=0.5)
    block = BasicBlock(4, 4, cfg, ghost_size=4, rng=Rng(2))
    rng = Rng(3)
    f, x = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    a, ctx = block.forward(f, x, train=False)
    b, _ = block.forward(f, x, train=False)
    assert ctx is None
    assert np.array_equal(a, b)  # deterministic without a stream


def test_block_train_with_dropout_requires_rng():
    cfg = DANetConfig(depth=2, dropout=0.2)
    block = BasicBlock(4, 4, cfg, ghost_size=4, rng=Rng(4))
    rng = Rng(5)
    with pytest.raises(ValueError):
        block.forward(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), train=True)
    model = DANet(4, cfg, ghost_size=4, seed=6)
    with pytest.raises(ValueError):
        model.forward(rng.standard_normal((4, 4)), train=True)


def test_model_gradients_match_finite_differences():
    rng = Rng(2024)
    checked = 0
    tried = 0
    while checked < 6:
        tried += 1
        assert tried < 200, "stable configurations should not be this rare"
        model, x = make_small_danet(rng)
        if not model_is_stable(model, x):
            continue
        ok, named, worst, err, bound = grad_check_model(model, x)
        assert ok, f"{named[0][0]}...: worst err {err:.3g} > bound {bound:.3g}"
        checked += 1


@pytest.mark.parametrize("n_features, cfg", [
    (3, DANetConfig(depth=2, k0=1, d0=2, d1=3)),
    (5, DANetConfig(depth=4, k0=2, d0=3, d1=2, head_hidden=5, task="rank")),
    (4, DANetConfig(depth=6, k0=3, d0=2, d1=4, num_classes=3)),
])
def test_backward_grads_are_keyed_and_ordered_like_named_params(n_features, cfg):
    def names(module):
        return [n for n, _, _ in module.named_params()]

    rng = Rng(cfg.depth)
    model = DANet(n_features, cfg, ghost_size=4, seed=cfg.k0)
    out, ctx = model.forward(rng.standard_normal((8, n_features)), train=True, rng=rng)
    _, grads = model.backward(ctx, np.ones_like(out))
    assert list(grads) == names(model)
    for module in (model.blocks[-1].main1, model.blocks[0].shortcut, model.head):
        out, ctx = module.forward(rng.standard_normal((8, module.in_dim)), train=True)
        _, grads = module.backward(ctx, np.ones_like(out))
        assert list(grads) == names(module)


def test_input_gradient_matches_finite_differences():
    rng = Rng(7)
    model, x = make_small_danet(rng)
    while not model_is_stable(model, x):
        model, x = make_small_danet(rng)
    out, ctx = model.forward(x, train=True)
    dx, _ = model.backward(ctx, np.ones_like(out))

    def loss(v):
        o, _ = model.forward(v.reshape(x.shape), train=True)
        return float(o.sum())

    fd = finite_diff_grad(loss, x.ravel(), h=1e-5).reshape(x.shape)
    err = np.abs(dx - fd)
    assert np.all(err <= 1e-4 * np.maximum(np.abs(dx), np.abs(fd)) + 1e-8)


def test_backward_context_discipline():
    model, x = make_small_danet(Rng(8))
    out, ctx = model.forward(x, train=True)
    model.backward(ctx, np.ones_like(out))
    with pytest.raises(RuntimeError):
        model.backward(ctx, np.ones_like(out))
    with pytest.raises(RuntimeError):
        model.backward(None, np.ones_like(out))


def test_input_validation():
    model = DANet(4, DANetConfig(depth=2, k0=1, d0=2, d1=2))
    with pytest.raises(ShapeError):
        model.scores(np.zeros((3, 5)))
    with pytest.raises(ShapeError):
        model.scores(np.zeros(4))
    with pytest.raises(ValueError):
        model.scores(np.array([[1.0, np.nan, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        DANet(0, DANetConfig())


def test_predict_argmax_and_tie_to_lowest_index():
    model = DANet(3, DANetConfig(depth=2, k0=1, d0=2, d1=2, num_classes=3), seed=11)
    model.head.w2[:] = 0.0  # constant logits: three-way tie everywhere
    model.head.b2[:] = 0.0
    x = Rng(12).standard_normal((5, 3))
    assert np.array_equal(model.predict(x), np.zeros(5, dtype=np.intp))
    model.head.b2[:] = np.array([0.0, 1.0, 1.0])  # tie between 1 and 2
    assert np.array_equal(model.predict(x), np.ones(5, dtype=np.intp))


def test_rank_predict_returns_flat_scores():
    model = DANet(3, DANetConfig(depth=2, k0=1, d0=2, d1=2, task="rank"), seed=13)
    x = Rng(14).standard_normal((6, 3))
    p = model.predict(x)
    assert p.shape == (6,)
    assert np.array_equal(p, model.scores(x)[:, 0])


def test_eval_forward_is_rowwise_independent():
    rng = Rng(15)
    model = DANet(5, DANetConfig(depth=4, k0=2, d0=3, d1=4, dropout=0.0),
                  ghost_size=8, seed=16)
    model.forward(rng.standard_normal((16, 5)), train=True)  # populate stats
    x = rng.standard_normal((7, 5))
    batch = model.scores(x)
    rows = np.vstack([model.scores(x[i:i + 1]) for i in range(7)])
    assert np.max(np.abs(batch - rows)) <= 1e-12


def test_depth_counts_blocks():
    model = DANet(5, DANetConfig(depth=8, k0=1, d0=2, d1=2))
    assert len(model.blocks) == 4
    assert model.blocks[0].in_dim == 5        # first block reads raw features
    assert model.blocks[1].in_dim == 2        # later blocks read block output
    assert all(b.n_raw == 5 for b in model.blocks)


def test_state_dict_round_trip_and_independence():
    model, x = make_small_danet(Rng(17))
    state = model.state_dict()
    before = model.scores(x)
    for _, _, arr in model.named_params():
        arr += 1.0
    model.forward(x, train=True)  # also moves buffers and counters
    assert np.max(np.abs(model.scores(x) - before)) > 0
    model.load_state(state)
    assert np.array_equal(model.scores(x), before)
    state["params"][next(iter(state["params"]))] += 5.0  # copies, not views
    assert np.array_equal(model.scores(x), before)


def head_flops(head):
    h, i, o = head.hidden, head.in_dim, head.out_dim
    return (2 * h * i + h) + h + (2 * h * h + h) + h + (2 * o * h + o)


def test_flops_lines_follow_the_stated_convention():
    cfg = DANetConfig(depth=4, k0=3, d0=5, d1=7)
    model = DANet(11, cfg, seed=18)
    rep = count_flops(model)
    lines = rep.as_dict()
    # affine 11 -> 7 twice, two eval BNs, sigmoid + relu + gate product,
    # masking, and the sparse projection over 11 logits (ceil log2 = 4)
    unit = (11 * 4 + 11) + 11 + 2 * (2 * 7 * 11) + 2 * (2 * 7) + 3 * 7
    assert lines["block0.main1"] == 3 * unit + 2 * 7  # fuse K=3 by summing
    assert lines["block0.sum"] == 5
    assert lines["head.fc0"] == 2 * 10 * 5 + 10
    assert rep.total == sum(n for _, n in rep.lines)
    assert rep.total == sum(lines.values())


def test_folded_flops_are_cheaper_everywhere():
    for depth, k0, d0, d1, m in ((2, 1, 2, 2, 2), (4, 3, 5, 7, 11),
                                 (8, 5, 32, 64, 20), (6, 8, 48, 96, 100)):
        model = DANet(m, DANetConfig(depth=depth, k0=k0, d0=d0, d1=d1), seed=19)
        orig = count_flops(model)
        folded = count_flops_folded(model)
        assert folded.total < orig.total
        fl = folded.as_dict()
        for name, n in orig.lines:
            if ".main" in name or ".shortcut" in name:
                assert fl[name] < n
            else:
                assert fl[name] == n  # sums and the head do not change


def test_single_logit_mask_projection_costs_one():
    model = DANet(1, DANetConfig(depth=2, k0=1, d0=2, d1=2), seed=20)
    rep = count_flops(model)
    unit_cost = rep.as_dict()["block0.main1"]
    assert unit_cost == 1 + 1 + 2 * (2 * 2 * 1) + 2 * (2 * 2) + 3 * 2


def train_a_little(model, rng, steps=3):
    for _ in range(steps):
        x = rng.standard_normal((model.ghost_size, model.n_features))
        out, ctx = model.forward(x, train=True, rng=rng)
        model.backward(ctx, np.ones_like(out))
    return model


def test_container_round_trip_is_byte_identical(tmp_path):
    rng = Rng(21)
    model = DANet(6, DANetConfig(depth=4, k0=2, d0=3, d1=4, dropout=0.1),
                  ghost_size=8, seed=22)
    train_a_little(model, rng)
    p1, p2 = tmp_path / "a.danet", tmp_path / "b.danet"
    save_model(p1, model, feature_names=[f"v{i}" for i in range(6)],
               feature_kinds=["continuous"] * 6, target_name="y")
    loaded = load_model(p1)
    save_model(p2, loaded.model, feature_names=loaded.feature_names,
               feature_kinds=loaded.feature_kinds, target_name=loaded.manifest["target"])
    assert p1.read_bytes() == p2.read_bytes()

    x = rng.standard_normal((5, 6))
    assert np.array_equal(loaded.model.scores(x), model.scores(x))
    assert loaded.feature_names == [f"v{i}" for i in range(6)]
    assert loaded.feature_kinds == ["continuous"] * 6
    assert dict(loaded.model.state_dict()["counters"]) == dict(model.state_dict()["counters"])


def test_container_rejects_tampering(tmp_path):
    model = DANet(3, DANetConfig(depth=2, k0=1, d0=2, d1=2), seed=23)
    path = tmp_path / "m.danet"
    save_model(path, model)
    raw = path.read_bytes()

    bad = tmp_path / "bad.danet"
    bad.write_bytes(b"NOTME1\n" + raw[7:])
    with pytest.raises(ContainerError, match="magic"):
        load_model(bad)
    bad.write_bytes(raw[:-8])
    with pytest.raises(ContainerError, match="truncated|trailing"):
        load_model(bad)
    bad.write_bytes(raw + b"\x00" * 4)
    with pytest.raises(ContainerError, match="trailing"):
        load_model(bad)
    nl = raw.index(b"\n")
    bad.write_bytes(raw[:nl + 1] + b"{not json}\n" + raw[nl + 1:])
    with pytest.raises(ContainerError):
        load_model(bad)


def _without(key):
    return lambda m: {k: v for k, v in m.items() if k != key}


def _first_shape(shape):
    def edit(m):
        m["tensors"][0]["shape"] = shape
        return m
    return edit


def _preprocess(cols, n_stats, loo=()):
    tables = {j: {"means": {"a": 1.0}, "global_mean": 0.5} for j in loo}
    stats = {"cols": cols, "mean": [0.0] * n_stats, "std": [1.0] * n_stats}
    return lambda m: {**m, "preprocess": {"loo": tables, "zscore": stats}}


def _config_with(**extra):
    def edit(m):
        m["config"].update(extra)
        return m
    return edit


@pytest.mark.parametrize("edit", [
    _config_with(bogus=1),                                    # unknown config key
    _without("config"),
    _without("bn_updates"),
    lambda m: {**m, "tensors": {"block0.main1.u0.mask": [3]}},  # tensors not a list
    lambda m: [m],                                            # manifest a JSON list
    _first_shape([-1, 3]),                                    # negative dimension
    _first_shape([2 ** 20, 2 ** 20]),                         # huge shape: 8 TiB
    _config_with(depth=3),                                    # config that fails validation
    lambda m: {**m, "target": ["target"]},                    # target not a string
    lambda m: {**m, "features": [{"name": 0, "kind": "continuous"}] * 3},
    lambda m: {**m, "features": [{"name": "a", "kind": ["categorical"]}] * 3},
    lambda m: {**m, "features": [{"name": "a", "kind": "target"}] * 3},
    _preprocess([0, 1, 19], 3),                               # column 19 of 3 features
    _preprocess([0, 1, 2], 3, loo=["1"]),                     # column 1 encoded twice
    _preprocess([0], 1, loo=["1"]),                           # column 2 never encoded
    _preprocess([0, 0.5, 2], 3),                              # a column index not an int
    _preprocess([0, 1, 2], 2),                                # a mean and std short
], ids=["unknown-config-key", "no-config", "no-bn-updates", "tensors-not-a-list",
        "manifest-a-list", "negative-dimension", "huge-shape", "invalid-config",
        "target-a-list", "feature-name-not-a-string", "feature-kind-not-a-string",
        "feature-kind-not-a-feature-kind", "preprocess-column-out-of-range",
        "preprocess-column-twice", "preprocess-column-missing", "preprocess-column-a-float",
        "preprocess-stats-short"])
def test_malformed_manifest_raises_container_error(tmp_path, edit):
    path = tmp_path / "m.danet"
    save_model(path, DANet(3, DANetConfig(depth=2, k0=1, d0=2, d1=2), seed=24))
    magic, line, tensors = path.read_bytes().split(b"\n", 2)
    manifest = edit(json.loads(line))
    path.write_bytes(magic + b"\n" + json.dumps(manifest).encode() + b"\n" + tensors)
    with pytest.raises(ContainerError):
        load_model(path)


@pytest.mark.parametrize("names, kinds, target", [
    (["a", "b"], ["continuous", "target"], "y"),              # a kind load refuses
    ([0, "b"], ["continuous", "categorical"], "y"),           # a name that is no string
    (["a", "b"], ["continuous"], "y"),                        # a kind missing
    (["a", "b"], ["continuous", "categorical"], ["y"]),       # target not a string
], ids=["kind-target", "name-not-a-string", "kind-missing", "target-a-list"])
def test_save_refuses_a_schema_that_load_refuses(tmp_path, names, kinds, target):
    path = tmp_path / "m.danet"
    model = DANet(2, DANetConfig(depth=2, k0=1, d0=2, d1=2), seed=24)
    with pytest.raises(ContainerError, match="save_model"):
        save_model(path, model, feature_names=names, feature_kinds=kinds, target_name=target)
    assert not path.exists()


def test_save_refuses_preprocessing_fit_on_other_columns(tmp_path):
    ds = Dataset(features=Rng(3).standard_normal((8, 3)), targets=np.arange(8.0),
                 names=["a", "b", "c"], kinds=["continuous"] * 3, task="rank")
    pp = PreprocessState()
    pp.fit(ds)
    path = tmp_path / "m.danet"
    model = DANet(2, DANetConfig(depth=2, k0=1, d0=2, d1=2, task="rank"), seed=24)
    with pytest.raises(ContainerError, match="save_model: .*partition"):
        save_model(path, model, preprocess=pp)
    assert not path.exists()


def test_container_keeps_float_precision(tmp_path):
    model = DANet(3, DANetConfig(depth=2, k0=1, d0=2, d1=2), seed=24)
    model.head.b2[:] = np.array([np.pi, -1.0 / 3.0])
    model.blocks[0].main1.units[0].mask_logits[:] = [1e-300, 0.1, np.e]
    path = tmp_path / "m.danet"
    save_model(path, model)
    loaded = load_model(path)
    assert np.array_equal(loaded.model.head.b2, model.head.b2)
    assert np.array_equal(loaded.model.blocks[0].main1.units[0].mask_logits,
                          model.blocks[0].main1.units[0].mask_logits)


def test_head_backward_matches_finite_differences():
    rng = Rng(25)
    head = MlpHead(4, 6, 3, rng)
    z0 = rng.standard_normal((5, 4))
    out, ctx = head.forward(z0, train=True)
    dz, grads = head.backward(ctx, np.ones_like(out))
    assert abs(ctx.a0).min() > 1e-4 and abs(ctx.a1).min() > 1e-4

    named = head.named_params()
    theta0 = np.concatenate([a.ravel() for _, _, a in named])

    def loss(theta):
        pos = 0
        for _, _, a in named:
            a[...] = theta[pos:pos + a.size].reshape(a.shape)
            pos += a.size
        o, _ = head.forward(z0, train=True)
        return float(o.sum())

    fd = finite_diff_grad(loss, theta0, h=1e-6)
    loss(theta0)
    manual = np.concatenate([grads[n].ravel() for n, _, _ in named])
    assert np.max(np.abs(manual - fd)) <= 1e-6

    fd_z = finite_diff_grad(lambda v: float(head.forward(v.reshape(5, 4), True)[0].sum()),
                            z0.ravel(), h=1e-6).reshape(5, 4)
    assert np.max(np.abs(dz - fd_z)) <= 1e-6
