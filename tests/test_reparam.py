"""Folding masks and batch norm into affines must preserve the function."""

import copy
import json
import sys
import threading

import numpy as np
import pytest

from danet import (AbstractLayer, BasicBlock, CompressedUnit, ContainerError, DANet,
                   DANetConfig, GhostBatchNorm, Rng, ShapeError, compress_model,
                   compress_unit, count_flops, fold_bn, load_model,
                   save_model)
from danet import network
from danet.layers import Module
from danet.reparam import compressed_like
from helpers import set_scoring_width


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
    # the unit of a one-branch layer, which draws what a lone unit draws
    rng = Rng(seed)
    layer = AbstractLayer(in_dim, out_dim, branches=1, ghost_size=8, rng=rng)
    unit = layer.units[0]
    unit.mask_logits[:] = rng.standard_normal(in_dim)
    unit.bn1.gamma[:] = rng.uniform(0.5, 1.5, out_dim)
    unit.bn2.gamma[:] = rng.uniform(0.5, 1.5, out_dim)
    unit.bn1.beta[:] = rng.standard_normal(out_dim) * 0.4
    unit.bn2.beta[:] = rng.standard_normal(out_dim) * 0.4
    for _ in range(4):
        layer.forward(rng.standard_normal((16, in_dim)), train=True)
    return unit, rng


def test_compress_unit_reproduces_eval_forward():
    unit, rng = _populated_unit(2)
    cunit = compress_unit(unit)
    x = rng.standard_normal((50, 7)) * 2.0
    live, _ = unit.forward(x, train=False)
    assert np.max(np.abs(cunit.forward(x, train=False)[0] - live)) <= 1e-10
    assert cunit.in_dim == 7 and cunit.out_dim == 4


def test_a_never_trained_model_folds_to_its_live_scores():
    # each batch norm folds its initial mean 0 and variance 1, as live
    # predict of a fresh model needs
    cfg = DANetConfig(depth=4, k0=2, d0=4, d1=5, task="rank")
    model = DANet(6, cfg, ghost_size=8, seed=3)
    assert {bn.updates for _, bn in model.named_bns()} == {0}
    x = Rng(3).standard_normal((40, 6)) * 2.0
    cmodel = compress_model(model)
    assert np.max(np.abs(cmodel.scores(x) - model.scores(x))) <= 1e-10
    assert np.array_equal(model.predict(x), cmodel.scores(x)[:, 0])


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


def test_compressed_units_compute_the_folded_expression_bitwise():
    model, rng = _trained_model(21)
    cmodel = compress_model(model)
    for block in cmodel.blocks:
        assert type(block) is BasicBlock
        for _, layer in block.children():
            assert type(layer) is AbstractLayer
            x = rng.standard_normal((300, layer.in_dim)) * 2.0
            before = x.copy()
            outs = []
            for u in layer.units:
                assert type(u) is CompressedUnit
                gate = 0.5 * (1.0 + np.tanh(0.5 * (x @ u.w1s.T + u.b1s)))
                expected = np.maximum(gate * (x @ u.w2s.T + u.b2s), 0.0)
                out, ctx = u.forward(x, train=False)
                assert ctx is None
                outs.append(out)
                assert np.array_equal(outs[-1], expected)
                assert np.array_equal(x, before)
            total = outs[0]
            for out in outs[1:]:
                total = total + out
            assert np.array_equal(layer.forward(x, train=False)[0], total)
            assert np.array_equal(x, before)
            with pytest.raises(ValueError, match="no training mode"):
                layer.units[0].forward(x, train=True)

    # a block adds the shortcut into main2's output in place, in the folded
    # and the live model alike: bitwise the out-of-place sum
    for live, folded in zip(model.blocks, cmodel.blocks):
        f = rng.standard_normal((300, live.in_dim)) * 2.0
        x = rng.standard_normal((300, model.n_features)) * 2.0
        f0, x0 = f.copy(), x.copy()
        for block in (folded, live):
            m1, _ = block.main1.forward(f, train=False)
            m2, _ = block.main2.forward(m1, train=False)
            s, _ = block.shortcut.forward(x, train=False)
            out, ctx = block.forward(f, x, train=False)
            assert ctx is None
            assert np.array_equal(out, m2 + s)
            assert np.array_equal(f, f0) and np.array_equal(x, x0)


def test_compressed_tensor_directory_is_pinned(tmp_path):
    rng = Rng(30)
    model = DANet(5, DANetConfig(depth=2, k0=2, d0=3, d1=4), ghost_size=8, seed=31)
    for _ in range(2):
        model.forward(rng.standard_normal((16, 5)), train=True, rng=rng)
    cmodel = compress_model(model)
    names = [name for name, _, _ in cmodel.named_params()]
    assert names == [
        "block0.main1.u0.w1s", "block0.main1.u0.b1s", "block0.main1.u0.w2s", "block0.main1.u0.b2s",
        "block0.main1.u1.w1s", "block0.main1.u1.b1s", "block0.main1.u1.w2s", "block0.main1.u1.b2s",
        "block0.main2.u0.w1s", "block0.main2.u0.b1s", "block0.main2.u0.w2s", "block0.main2.u0.b2s",
        "block0.main2.u1.w1s", "block0.main2.u1.b1s", "block0.main2.u1.w2s", "block0.main2.u1.b2s",
        "block0.shortcut.u0.w1s", "block0.shortcut.u0.b1s",
        "block0.shortcut.u0.w2s", "block0.shortcut.u0.b2s",
        "block0.shortcut.u1.w1s", "block0.shortcut.u1.b1s",
        "block0.shortcut.u1.w2s", "block0.shortcut.u1.b2s",
        "head.w0", "head.b0", "head.w1", "head.b1", "head.w2", "head.b2",
    ]
    # each live unit's mask/w1/w2/bn1.*/bn2.* becomes one folded unit, in order
    live_units = [n.rsplit(".", 1)[0] for n, _, _ in model.named_params() if n.endswith(".mask")]
    assert [n.rsplit(".", 1)[0] for n in names if n.endswith(".w1s")] == live_units
    assert cmodel.named_buffers() == []
    path = tmp_path / "c.danet"
    save_model(path, cmodel)
    manifest = json.loads(path.read_bytes().split(b"\n", 2)[1])
    assert [t["name"] for t in manifest["tensors"]] == names


def test_compress_model_matches_on_fresh_inputs():
    model, rng = _trained_model(5)
    cmodel = compress_model(model)
    x = rng.standard_normal((200, 6)) * 3.0
    live = model.scores(x)
    folded = cmodel.scores(x)
    assert np.max(np.abs(live - folded)) <= 1e-10
    # labels from the live eval forward itself: live predict folds as well
    assert np.array_equal(cmodel.predict(x), np.argmax(live, axis=1))
    assert np.array_equal(model.predict(x), np.argmax(live, axis=1))


def test_a_compressed_model_is_a_danet_with_folded_units():
    model, rng = _trained_model(14)
    cmodel = compress_model(model)
    assert type(cmodel) is DANet and cmodel.compressed and not model.compressed
    assert cmodel.config == model.config and cmodel.config is not model.config
    out, ctx = cmodel.forward(rng.standard_normal((5, 6)))
    assert out.shape == (5, 2) and ctx is None
    # a folded model has no training mode, and folding it again is refused
    with pytest.raises(ValueError, match="no training mode"):
        cmodel.forward(rng.standard_normal((16, 6)), train=True, rng=rng)
    with pytest.raises(ValueError, match="already compressed"):
        compress_model(cmodel)
    with pytest.raises(ValueError, match="already folded"):
        compress_unit(cmodel.blocks[0].main1.units[0])
    assert not model.compressed  # the source keeps its live units


def test_folded_units_compare_and_hash_by_identity():
    model, _ = _trained_model(18)
    cmodel = compress_model(model)
    for m in (model, cmodel):  # live and folded units alike
        units = m.blocks[0].main1.units
        assert units[1] in units and units.index(units[1]) == 1
        every = [u for layer in (b.main1 for b in m.blocks) for u in layer.units]
        assert len(set(every)) == len(every) == 4
    twin = copy.deepcopy(cmodel).blocks[0].main1.units[0]
    assert twin != cmodel.blocks[0].main1.units[0]  # equal arrays, another unit
    assert twin not in cmodel.blocks[0].main1.units


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
def test_predict_in_blocks_equals_one_scores_call(task, monkeypatch):
    rng = Rng(40)
    cfg = DANetConfig(depth=2, k0=2, d0=4, d1=5, dropout=0.1, task=task, num_classes=3)
    model = DANet(6, cfg, ghost_size=8, seed=41)
    for _ in range(3):  # populate the running statistics
        model.forward(rng.standard_normal((16, 6)), train=True, rng=rng)
    block = network.PREDICT_BLOCK
    n = 2 * block + 123  # two full blocks and a short one
    x = rng.standard_normal((n, 6))
    live, folded = model.scores(x), compress_model(model).scores(x)
    assert np.max(np.abs(folded - live)) <= 1e-10  # the twin is the live eval forward
    for m in (model, compress_model(model)):
        got = m.predict(x)
        if task == "class":
            assert np.array_equal(got, np.argmax(folded, axis=1))
        else:
            np.testing.assert_allclose(got, folded[:, 0], rtol=1e-12, atol=1e-12)
            assert np.max(np.abs(got - live[:, 0])) <= 1e-10
        empty = m.predict(np.zeros((0, 6)))
        assert empty.shape == (0,)
        with pytest.raises(ShapeError):
            m.predict(np.zeros((n, 5)))

    # live or compressed, on a pool of any width, bitwise the folded twin's
    # blocks scored one by one, and no pool thread outlives its call.
    # Threads switch every microsecond, and width 3 can exceed the cores,
    # to give a race room to show
    scores, twin = DANet.scores, compress_model(model)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for width in (1, 2, 3):
            set_scoring_width(monkeypatch, width)
            for m in (model, compress_model(model)):
                for rows in (0, 1, block, block + 1, 5 * block + 3):
                    xr = rng.standard_normal((rows, 6))
                    starts = range(0, max(rows, 1), block)
                    serial = np.concatenate([twin.scores(xr[s:s + block]) for s in starts])
                    want = np.argmax(serial, axis=1) if task == "class" else serial[:, 0]
                    threads = threading.active_count()
                    got = m.predict(xr)
                    assert threading.active_count() == threads
                    assert got.dtype == want.dtype and np.array_equal(got, want)
    finally:
        sys.setswitchinterval(switch)

    # a block that raises on a pool thread raises from predict, which
    # leaves no thread behind
    def fails_on_a_pool_thread(self, xb):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("block failed")
        return scores(self, xb)

    monkeypatch.setattr(DANet, "scores", fails_on_a_pool_thread)
    threads = threading.active_count()
    with pytest.raises(FloatingPointError, match="block failed"):
        model.predict(rng.standard_normal((3 * block, 6)))
    assert threading.active_count() == threads


def test_scoring_enters_no_training_step_context(monkeypatch):
    # live and compressed predict score without Module.fixed_params, which
    # serves the training step only
    model, rng = _trained_model(18)
    cmodel = compress_model(model)
    x = rng.standard_normal((2 * network.PREDICT_BLOCK + 5, 6))
    want = np.argmax(cmodel.scores(x), axis=1)

    def forbidden(self):
        raise AssertionError("scoring entered Module.fixed_params")

    monkeypatch.setattr(Module, "fixed_params", forbidden)
    assert np.array_equal(model.predict(x), want)
    assert np.array_equal(cmodel.predict(x), want)


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


def test_a_deep_copy_of_a_compressed_model_scores_the_same():
    model, rng = _trained_model(15)
    cmodel = compress_model(model)
    twin = copy.deepcopy(cmodel)
    for rows in (1, 7, 300):
        x = rng.standard_normal((rows, 6)) * 2.0
        assert np.array_equal(twin.scores(x), cmodel.scores(x))
    # the copy's folded tensors are views of the copy's own arrays
    for a, b in zip(twin.named_params(), cmodel.named_params()):
        assert not np.shares_memory(a[2], b[2])
    for unit in twin.blocks[0].main1.units:
        assert np.shares_memory(unit.w1s, unit.a1) and np.shares_memory(unit.b2s, unit.a2)


def test_a_reloaded_compressed_container_scores_as_its_source(tmp_path):
    model, rng = _trained_model(16)
    cmodel = compress_model(model)
    path = tmp_path / "c.danet"
    save_model(path, cmodel)
    loaded = load_model(path).model
    for rows in (1, 7, 300):
        x = rng.standard_normal((rows, 6)) * 2.0
        assert np.array_equal(loaded.scores(x), cmodel.scores(x))


@pytest.mark.parametrize("leaf", ["w1s", "b1s", "w2s", "b2s"])
def test_a_write_through_a_folded_tensor_changes_that_copy_only(leaf):
    model, rng = _trained_model(17)
    cmodel = compress_model(model)
    twin = copy.deepcopy(cmodel)
    x = rng.standard_normal((300, 6)) * 2.0
    before = cmodel.scores(x)
    arr = {name: a for name, _, a in twin.named_params()}[f"block0.main1.u0.{leaf}"]
    arr += 0.5
    assert not np.array_equal(twin.scores(x), before)
    assert np.array_equal(cmodel.scores(x), before)


@pytest.mark.parametrize("in_dim", [11, 32, 64, 200])
def test_folded_matches_live_at_any_row_count_and_width(in_dim):
    # the bias column can change the BLAS summation order, hence the rounding,
    # for few rows or wide inputs; the folded function must still be the live one
    unit, rng = _populated_unit(in_dim, in_dim=in_dim, out_dim=16)
    cunit = compress_unit(unit)
    for rows in (1, 2, 7, 64, 300):
        x = rng.standard_normal((rows, in_dim)) * 2.0
        live, _ = unit.forward(x, train=False)
        assert np.max(np.abs(cunit.forward(x, train=False)[0] - live)) <= 1e-10
    cfg = DANetConfig(depth=2, k0=2, d0=8, d1=8, dropout=0.0, task="rank")
    model = DANet(in_dim, cfg, ghost_size=8, seed=in_dim)
    for _ in range(3):
        model.forward(rng.standard_normal((16, in_dim)), train=True)
    x = rng.standard_normal((network.PREDICT_BLOCK + 368, in_dim))
    assert np.max(np.abs(compress_model(model).predict(x) - model.scores(x)[:, 0])) <= 1e-10


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
        assert count_flops(compress_model(model)).lines == count_flops(compressed_like(model)).lines
