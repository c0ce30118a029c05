"""Folding masks and batch norm into affines must preserve the function."""

import json

import numpy as np
import pytest

from danet import (ContainerError, DANet, DANetConfig, GhostBatchNorm, Rng, ShapeError,
                   compress_model, compress_unit, count_flops, count_flops_folded,
                   fold_bn, fold_mask, load_model, save_model)
from danet.layers import AbstractUnit


def test_fold_mask_scales_columns_and_keeps_exact_zeros():
    w = np.arange(6.0).reshape(2, 3) + 1.0
    out = fold_mask(w, np.array([0.5, 0.0, 2.0]))
    assert np.array_equal(out, np.array([[0.5, 0.0, 6.0], [2.0, 0.0, 12.0]]))
    assert np.all(out[:, 1] == 0.0)
    assert np.array_equal(w, np.arange(6.0).reshape(2, 3) + 1.0)  # input untouched
    with pytest.raises(ShapeError):
        fold_mask(w, np.array([1.0, 2.0]))


def test_fold_bn_identity_when_stats_cancel():
    # gamma = 1, beta = 0, mean = 0, var = 1 - eps makes sigma exactly 1
    bn = GhostBatchNorm(3, ghost_size=4)
    bn.running_var[:] = 1.0 - bn.eps
    w = Rng(0).standard_normal((3, 5))
    w_star, b_star = fold_bn(w, bn)
    assert np.array_equal(w_star, w)
    assert np.array_equal(b_star, np.zeros(3))


def test_fold_bn_matches_eval_normalization():
    rng = Rng(1)
    bn = GhostBatchNorm(4, ghost_size=8)
    bn.gamma[:] = rng.uniform(0.5, 2.0, 4)
    bn.beta[:] = rng.standard_normal(4)
    bn.running_mean[:] = rng.standard_normal(4)
    bn.running_var[:] = rng.uniform(0.2, 3.0, 4)
    w = rng.standard_normal((4, 6))
    w_star, b_star = fold_bn(w, bn)
    x = rng.standard_normal((10, 6))
    direct, _ = bn.forward(x @ w.T, train=False)
    folded = x @ w_star.T + b_star
    assert np.max(np.abs(direct - folded)) <= 1e-12
    with pytest.raises(ShapeError):
        fold_bn(rng.standard_normal((5, 6)), bn)


def _populated_unit(seed, in_dim=7, out_dim=4):
    rng = Rng(seed)
    unit = AbstractUnit(in_dim, out_dim, ghost_size=8, rng=rng)
    unit.mask_logits[:] = rng.standard_normal(in_dim)
    unit.bn1.gamma[:] = rng.uniform(0.5, 1.5, out_dim)
    unit.bn2.gamma[:] = rng.uniform(0.5, 1.5, out_dim)
    unit.bn1.beta[:] = rng.standard_normal(out_dim) * 0.4
    unit.bn2.beta[:] = rng.standard_normal(out_dim) * 0.4
    for _ in range(4):
        unit.forward(rng.standard_normal((16, in_dim)), train=True)
    return unit, rng


def test_compress_unit_reproduces_eval_forward():
    unit, rng = _populated_unit(2)
    cunit = compress_unit(unit)
    x = rng.standard_normal((50, 7)) * 2.0
    live, _ = unit.forward(x, train=False)
    assert np.max(np.abs(cunit.forward(x) - live)) <= 1e-10
    assert cunit.in_dim == 7 and cunit.out_dim == 4


def test_compress_unit_requires_populated_stats():
    unit = AbstractUnit(5, 3, ghost_size=4, rng=Rng(3))
    with pytest.raises(ValueError, match="unpopulated"):
        compress_unit(unit)


def test_masked_out_columns_fold_to_zero_weights():
    unit, _ = _populated_unit(4)
    unit.mask_logits[:] = 0.0
    unit.mask_logits[3] = 8.0  # saturated: only feature 3 survives
    cunit = compress_unit(unit)
    dead = [j for j in range(7) if j != 3]
    assert np.all(cunit.w1s[:, dead] == 0.0)
    assert np.all(cunit.w2s[:, dead] == 0.0)
    assert np.any(cunit.w1s[:, 3] != 0.0)


def _trained_model(seed, depth=4, n_features=6, steps=5):
    rng = Rng(seed)
    cfg = DANetConfig(depth=depth, k0=2, d0=4, d1=5, dropout=0.1)
    model = DANet(n_features, cfg, ghost_size=8, seed=seed * 1_000_003 + 1)
    for name, kind, arr in model.named_params():
        if kind == "mask":
            arr += rng.standard_normal(arr.shape)
        elif name.endswith("gamma"):
            arr *= rng.uniform(0.6, 1.4, arr.shape)
        elif name.endswith("beta") or kind == "bias":
            arr += 0.2 * rng.standard_normal(arr.shape)
    for _ in range(steps):
        model.forward(rng.standard_normal((16, n_features)), train=True, rng=rng)
    return model, rng


def test_compress_model_matches_on_fresh_inputs():
    model, rng = _trained_model(5)
    cmodel = compress_model(model)
    x = rng.standard_normal((200, 6)) * 3.0
    live = model.scores(x)
    folded = cmodel.scores(x)
    assert np.max(np.abs(live - folded)) <= 1e-10
    assert np.array_equal(model.predict(x), cmodel.predict(x))


def test_compress_model_is_detached_from_the_source():
    model, rng = _trained_model(6)
    cmodel = compress_model(model)
    x = rng.standard_normal((20, 6))
    before = cmodel.scores(x)
    for _, _, arr in model.named_params():
        arr += 0.5
    model.forward(rng.standard_normal((16, 6)), train=True, rng=rng)
    assert np.array_equal(cmodel.scores(x), before)


@pytest.mark.parametrize("task", ["class", "rank"])
def test_predict_in_blocks_equals_one_scores_call(task):
    rng = Rng(40)
    cfg = DANetConfig(depth=2, k0=2, d0=4, d1=5, dropout=0.1, task=task, num_classes=3)
    model = DANet(6, cfg, ghost_size=8, seed=41)
    for _ in range(3):  # populate the running statistics
        model.forward(rng.standard_normal((16, 6)), train=True, rng=rng)
    x = rng.standard_normal((2 * 8192 + 123, 6))  # two full blocks and a short one
    for m in (model, compress_model(model)):
        whole = m.scores(x)
        got = m.predict(x)
        if task == "class":
            assert np.array_equal(got, np.argmax(whole, axis=1))
        else:
            np.testing.assert_allclose(got, whole[:, 0], rtol=1e-12, atol=1e-12)
        empty = m.predict(np.zeros((0, 6)))
        assert empty.shape == (0,)
        with pytest.raises(ShapeError):
            m.predict(np.zeros((2 * 8192, 5)))


def test_compressed_model_validates_input():
    model, _ = _trained_model(7)
    cmodel = compress_model(model)
    with pytest.raises(ShapeError):
        cmodel.scores(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        cmodel.scores(np.array([[np.inf] + [0.0] * 5]))


def test_compressed_container_round_trip(tmp_path):
    model, rng = _trained_model(8)
    cmodel = compress_model(model)
    p1, p2 = tmp_path / "c.danet", tmp_path / "c2.danet"
    save_model(p1, cmodel, feature_names=[f"v{i}" for i in range(6)],
               feature_kinds=["continuous"] * 6, target_name="y")
    loaded = load_model(p1)
    assert loaded.manifest["compressed"] is True
    x = rng.standard_normal((30, 6))
    assert np.array_equal(loaded.model.scores(x), cmodel.scores(x))
    save_model(p2, loaded.model, feature_names=loaded.feature_names,
               feature_kinds=loaded.feature_kinds, target_name="y")
    assert p1.read_bytes() == p2.read_bytes()


def test_rank_model_compresses_too():
    rng = Rng(9)
    cfg = DANetConfig(depth=2, k0=1, d0=3, d1=3, dropout=0.0, task="rank")
    model = DANet(4, cfg, ghost_size=8, seed=10)
    for _ in range(3):
        model.forward(rng.standard_normal((8, 4)), train=True)
    cmodel = compress_model(model)
    x = rng.standard_normal((25, 4))
    assert np.max(np.abs(model.scores(x) - cmodel.scores(x))) <= 1e-10
    assert cmodel.predict(x).shape == (25,)


def _edit_container(src, dst, edit):
    """Copy a container, letting ``edit`` change its list of (name, array)
    tensors; the manifest's tensor directory follows the edit."""
    magic, line, body = src.read_bytes().split(b"\n", 2)
    manifest = json.loads(line)
    tensors, pos = [], 0
    for entry in manifest["tensors"]:
        count = int(np.prod(entry["shape"]))
        arr = np.frombuffer(body[pos:pos + 8 * count], dtype="<f8").reshape(entry["shape"])
        tensors.append((entry["name"], arr))
        pos += 8 * count
    tensors = edit(tensors)
    manifest["tensors"] = [{"name": n, "shape": list(a.shape)} for n, a in tensors]
    dst.write_bytes(magic + b"\n" + json.dumps(manifest).encode() + b"\n"
                    + b"".join(a.astype("<f8").tobytes() for _, a in tensors))


def test_compressed_container_rejects_wrong_shapes_and_extra_tensors(tmp_path):
    model, _ = _trained_model(12)
    good = tmp_path / "c.danet"
    save_model(good, compress_model(model))
    bad = tmp_path / "bad.danet"

    # a (1,) bias would broadcast over the layer's width and shift every score
    _edit_container(good, bad, lambda ts: [(n, a[:1] if n == "block0.main1.u0.b1s" else a)
                                           for n, a in ts])
    with pytest.raises(ContainerError, match="block0.main1.u0.b1s.*shape"):
        load_model(bad)

    _edit_container(good, bad, lambda ts: ts + [("block0.main1.u9.b1s", np.zeros(4))])
    with pytest.raises(ContainerError, match="extra"):
        load_model(bad)

    _edit_container(good, bad, lambda ts: ts)  # the copy itself loads
    assert load_model(bad).manifest["compressed"] is True


def test_folded_flop_count_is_the_compressed_model_count():
    rng = Rng(13)
    for depth, k0, d0, d1, n_features in ((2, 1, 3, 3, 1), (4, 2, 4, 5, 6),
                                          (6, 3, 7, 2, 9), (8, 5, 32, 64, 11)):
        cfg = DANetConfig(depth=depth, k0=k0, d0=d0, d1=d1)
        model = DANet(n_features, cfg, ghost_size=8, seed=13 * 1_000_003 + depth)
        for _ in range(2):
            model.forward(rng.standard_normal((16, n_features)), train=True, rng=rng)
        assert count_flops(compress_model(model)).lines == count_flops_folded(model).lines
