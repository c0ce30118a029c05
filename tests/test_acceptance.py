"""Release gate: eight end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete (without ``-s`` they still appear for any failing check).
The checks are ordered roughly by runtime; the whole gate takes about ten
minutes on a plain CPU. Check 5 needs an external CSV and skips loudly when
it is not present, everything else is self-contained and offline.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from danet import (DANet, DANetConfig, PreprocessState, TrainConfig,
                   compress_model, count_flops, entmax15,
                   entmax15_backward, evaluate, fit, load_csv, read_schema,
                   stratified_split, synth_generate)
from danet.cli import main
from danet.reparam import compressed_like

from helpers import (entmax_margin, grad_check_model, make_small_danet,
                     model_is_stable)


def _verdict(step, name, ok, detail):
    print(f"[{step}/8] {name}: {'PASS' if ok else 'FAIL'} ({detail})",
          flush=True)
    assert ok, f"{name}: {detail}"


def test_gate_1_parameter_gradients():
    """Manual backward vs central differences on 50 random tiny models.

    Configurations whose entmax support or ReLU signs sit within 1e-3 of a
    boundary are skipped; a +-1e-5 probe there lands on a different linear
    piece and the comparison is meaningless.
    """
    t0 = time.time()
    rng = np.random.default_rng(811)
    checked = skipped = 0
    bad = []
    while checked < 50 and skipped < 400:
        model, x = make_small_danet(rng)
        if not model_is_stable(model, x):
            skipped += 1
            continue
        ok, named, worst, err, bound = grad_check_model(model, x, h=1e-5,
                                                        rel_tol=1e-4)
        if not ok:
            bad.append(f"cfg {checked}: {named[worst][0]} err {err:.2e} "
                       f"(allowed {bound:.2e})")
        checked += 1
    dt = time.time() - t0
    detail = f"{checked} configs, {skipped} unstable ones skipped, {dt:.1f}s"
    if bad:
        detail += "; " + bad[0]
    _verdict(1, "parameter gradients match finite differences",
             checked >= 50 and not bad and dt < 120.0, detail)


def test_gate_2_folded_inference_equivalence():
    """Ten briefly trained depth-8 models: folded forward == eval forward."""
    t0 = time.time()
    worst = 0.0
    for i in range(10):
        seed = 100 + i
        task = "class" if i % 2 == 0 else "rank"
        ds = synth_generate(1 + i % 4, n=512, seed=seed, task=task)
        train_raw, valid_raw = stratified_split(ds, frac=0.25, seed=seed)
        pp = PreprocessState()
        train, valid = pp.fit(train_raw), pp.apply(valid_raw)
        d0 = (4, 8, 16)[i % 3]
        cfg = DANetConfig(depth=8, k0=1 + i % 3, d0=d0, d1=2 * d0,
                          dropout=0.1, task=task, num_classes=2)
        model = DANet(11, cfg, ghost_size=64, seed=seed)
        fit(model, train, valid,
            TrainConfig(batch_size=256, ghost_size=64, lr0=0.01,
                        max_epochs=2, patience=2, seed=seed))
        cmodel = compress_model(model)
        x = np.random.default_rng(seed).standard_normal((1000, 11))
        ref, _ = model.forward(x, train=False)
        worst = max(worst, float(np.max(np.abs(cmodel.scores(x) - ref))))
    dt = time.time() - t0
    _verdict(2, "folded inference equals the trained model",
             worst <= 1e-10 and dt < 300.0,
             f"10 depth-8 models, 1000 inputs each, max |diff| "
             f"{worst:.2e} (allowed 1e-10), {dt:.1f}s")


def test_gate_3_sparse_projection_properties():
    """Simplex membership, exact zeros, shift/permutation behaviour, and the
    vector-Jacobian product, over ten thousand random logit vectors."""
    t0 = time.time()
    rng = np.random.default_rng(33)
    sum_err = shift_err = perm_err = 0.0
    negative = denormal = 0
    saturated = with_zero = 0
    for i in range(10_000):
        n = int(rng.integers(2, 17, None))
        scale = (0.5, 2.0, 10.0, 50.0)[i % 4]
        z = rng.standard_normal(n) * scale
        p = entmax15(z).probs
        sum_err = max(sum_err, abs(float(p.sum()) - 1.0))
        negative += int(np.any(p < 0.0))
        denormal += int(np.any((p != 0.0) & (p < 1e-300)))
        if scale >= 10.0:
            saturated += 1
            with_zero += int(np.any(p == 0.0))
        c = float(rng.uniform(-100.0, 100.0, None))
        shift_err = max(shift_err,
                        float(np.max(np.abs(entmax15(z + c).probs - p))))
        perm = rng.permutation(n)
        perm_err = max(perm_err,
                       float(np.max(np.abs(entmax15(z[perm]).probs - p[perm]))))
    # frozen endpoint: a wide logit gap has to give an exact one-hot
    hot = entmax15(np.array([10.0, 0.0])).probs
    one_hot_exact = hot[0] == 1.0 and hot[1] == 0.0

    # backward vs central differences, away from support boundaries where a
    # +-h probe would change the active set
    h = 1e-5
    fd_checked = fd_bad = 0
    tries = 0
    while fd_checked < 2000 and tries < 20_000:
        tries += 1
        n = int(rng.integers(2, 9, None))
        z = rng.standard_normal(n) * (0.5 if tries % 2 else 3.0)
        if entmax_margin(z) < 1e-3:
            continue
        res = entmax15(z)
        g = rng.standard_normal(n)
        manual = entmax15_backward(res, g)
        fd = np.empty(n)
        for j in range(n):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd[j] = (float(entmax15(zp).probs @ g)
                     - float(entmax15(zm).probs @ g)) / (2.0 * h)
        err = np.abs(manual - fd)
        if np.any(err > 1e-4 * np.maximum(np.abs(manual), np.abs(fd)) + 1e-8):
            fd_bad += 1
        fd_checked += 1
    dt = time.time() - t0
    ok = (sum_err <= 1e-12 and negative == 0 and denormal == 0
          and one_hot_exact and with_zero >= 0.9 * saturated
          and shift_err <= 1e-12 and perm_err <= 1e-12
          and fd_checked >= 2000 and fd_bad == 0 and dt < 30.0)
    _verdict(3, "sparse projection property suite", ok,
             f"sum err {sum_err:.1e}, shift err {shift_err:.1e}, perm err "
             f"{perm_err:.1e}, {with_zero}/{saturated} saturated vectors "
             f"with exact zeros, {fd_checked} vjp checks ({fd_bad} bad), "
             f"{dt:.1f}s")


def _trained_mask_pair(formula, seed, d0, d1, lr0, dropout):
    """Train the two-layer single-branch model and read its two raw-feature
    masks (main path and shortcut both see the 11 inputs)."""
    ds = synth_generate(formula, n=7000, seed=seed, task="rank")
    train_raw, valid_raw = stratified_split(ds, frac=0.2, seed=seed)
    pp = PreprocessState()
    train, valid = pp.fit(train_raw), pp.apply(valid_raw)
    cfg = DANetConfig(depth=2, k0=1, d0=d0, d1=d1, dropout=dropout,
                      task="rank")
    model = DANet(11, cfg, ghost_size=256, seed=seed)
    res = fit(model, train, valid,
              TrainConfig(batch_size=512, ghost_size=256, lr0=lr0,
                          max_epochs=200, patience=200, seed=seed))
    m1 = entmax15(model.blocks[0].main1.units[0].mask_logits).probs
    m2 = entmax15(model.blocks[0].shortcut.units[0].mask_logits).probs
    return m1, m2, res


def test_gate_4_mask_recovery():
    """Trained masks should reflect the generating formulas: pile mass on the
    additive group, drop the pure-noise input, and split the interaction
    pairs. The pair check reads the pooled masks of all three seeds because
    branch assignment is tie-noisy at this width; the fourth formula only has
    to train to a finite score (its structure spreads over every input)."""
    fails = []
    budgets = {}

    t0 = time.time()
    for seed in (0, 1, 2):
        m1, m2, _ = _trained_mask_pair(1, seed, d0=16, d1=16, lr0=0.02,
                                       dropout=0.1)
        mass = max(float(m1[2:6].sum()), float(m2[2:6].sum()))
        if mass < 0.8:
            fails.append(f"group mass seed {seed}: {mass:.3f} < 0.8")
    budgets["group"] = time.time() - t0

    t0 = time.time()
    for seed in (0, 1, 2):
        m1, m2, _ = _trained_mask_pair(2, seed, d0=16, d1=16, lr0=0.02,
                                       dropout=0.1)
        lever = max(float(m1[10]), float(m2[10]))
        if lever > 0.05:
            fails.append(f"noise weight seed {seed}: {lever:.3f} > 0.05")
    budgets["noise"] = time.time() - t0

    t0 = time.time()
    pooled = []
    for seed in (0, 1, 2):
        m1, m2, _ = _trained_mask_pair(3, seed, d0=4, d1=4, lr0=0.02,
                                       dropout=0.0)
        pooled += [m1, m2]
    tops = [set(int(j) for j in np.argsort(-m)[:2]) for m in pooled]
    hit_67 = any(t <= {6, 7} for t in tops)
    hit_58 = any(t <= {5, 8} for t in tops)
    union = set().union(*tops)
    if not ((hit_67 and hit_58) or {5, 6, 7, 8} <= union):
        fails.append(f"pair structure: top-2 sets {sorted(map(sorted, tops))}")
    budgets["pairs"] = time.time() - t0

    t0 = time.time()
    for seed in (0, 1, 2):
        _, _, res = _trained_mask_pair(4, seed, d0=16, d1=16, lr0=0.02,
                                       dropout=0.1)
        if not np.isfinite(res.best_metric):
            fails.append(f"branchy formula seed {seed}: non-finite score")
    budgets["branch"] = time.time() - t0

    over = [k for k, v in budgets.items() if v >= 900.0]
    spent = ", ".join(f"{k} {v:.0f}s" for k, v in budgets.items())
    detail = spent if not fails else spent + "; " + "; ".join(fails)
    _verdict(4, "mask recovery on synthetic formulas",
             not fails and not over, detail)


def test_gate_5_cardiovascular_benchmark():
    """Needs the 70k-row cardiovascular CSV described in the README. The
    suite stays green without it, but says so out loud."""
    root = Path(__file__).resolve().parent.parent
    csv_path = Path(os.environ.get("CARDIO_CSV",
                                   root / "data" / "cardio.csv"))
    schema_path = csv_path.with_suffix(".schema")
    missing = [p.name for p in (csv_path, schema_path) if not p.exists()]
    if missing:
        print(f"[5/8] cardiovascular benchmark: SKIP ({', '.join(missing)} "
              f"not found under {csv_path.parent}; see README for how to "
              "prepare the dataset)", flush=True)
        pytest.skip("cardiovascular dataset not present")
    t0 = time.time()
    ds = load_csv(csv_path, read_schema(schema_path))
    train_raw, test_raw = stratified_split(ds, frac=0.2, seed=0)
    inner_raw, valid_raw = stratified_split(train_raw, frac=0.1, seed=1)
    pp = PreprocessState()
    train, valid = pp.fit(inner_raw), pp.apply(valid_raw)
    test = pp.apply(test_raw)
    model = DANet(train.features.shape[1], DANetConfig(), ghost_size=256,
                  seed=0)
    fit(model, train, valid, TrainConfig(seed=0))
    acc = evaluate(model, test)
    dt = time.time() - t0
    _verdict(5, "cardiovascular accuracy target", acc >= 0.725 and dt < 3600.0,
             f"{ds.features.shape[0]} rows, test accuracy {acc:.4f} "
             f"(needs 0.725), {dt / 60.0:.1f} min")


def _depth_run(depth, seed):
    ds = synth_generate(4, n=20_000, seed=seed, task="class")
    rest, test_raw = stratified_split(ds, frac=0.2, seed=seed)
    train_raw, valid_raw = stratified_split(rest, frac=0.2, seed=seed + 1)
    pp = PreprocessState()
    train, valid = pp.fit(train_raw), pp.apply(valid_raw)
    test = pp.apply(test_raw)
    cfg = DANetConfig(depth=depth, k0=2, d0=16, d1=32, dropout=0.1,
                      task="class", num_classes=2)
    model = DANet(11, cfg, ghost_size=256, seed=seed)
    fit(model, train, valid,
        TrainConfig(batch_size=512, ghost_size=256, lr0=0.016,
                    max_epochs=100, patience=100, seed=seed))
    return evaluate(model, test)


def test_gate_6_depth_does_not_degrade():
    """Mean test accuracy over three seeds: the depth-8 stack must stay
    within half a point of (here: above) the depth-2 one."""
    t0 = time.time()
    means = {d: float(np.mean([_depth_run(d, s) for s in (0, 1, 2)]))
             for d in (2, 8)}
    dt = time.time() - t0
    _verdict(6, "deeper stack holds accuracy",
             means[8] >= means[2] - 0.005,
             f"mean test accuracy depth-8 {means[8]:.4f} vs depth-2 "
             f"{means[2]:.4f} (slack 0.005), {dt:.0f}s")


def test_gate_7_folding_reduces_counted_flops():
    """Folded models must count strictly cheaper at every tested shape. The
    per-layer saving at the 32x32 shape is reported next to the 49.02%
    figure published for the original implementation; that figure's counting
    convention is not stated anywhere recoverable, so only the direction is
    asserted here."""
    shapes = ((2, 1, 4, 8, 11), (8, 2, 16, 32, 11), (8, 5, 32, 64, 20),
              (2, 1, 32, 32, 32))
    not_cheaper = []
    for depth, k0, d0, d1, m in shapes:
        model = DANet(m, DANetConfig(depth=depth, k0=k0, d0=d0, d1=d1),
                      seed=0)
        if count_flops(compressed_like(model)).total >= count_flops(model).total:
            not_cheaper.append((depth, k0, d0, d1, m))
    probe = DANet(32, DANetConfig(depth=2, k0=1, d0=32, d1=32), seed=0)
    live = count_flops(probe).as_dict()["block0.main1"]
    folded = count_flops(compressed_like(probe)).as_dict()["block0.main1"]
    cut = 100.0 * (1.0 - folded / live)
    _verdict(7, "folding reduces counted flops", not not_cheaper,
             f"{len(shapes)} shapes all cheaper; per-layer cut at 32x32: "
             f"{cut:.2f}% ({live} -> {folded}) vs the published 49.02% "
             "whose counting convention is unrecoverable")


def test_gate_8_training_is_byte_deterministic(tmp_path):
    """Two CLI runs with the same config and seed must write identical
    model files."""
    data, schema = tmp_path / "d.csv", tmp_path / "d.schema"
    assert main(["synth", "--formula", "1", "--n", "240", "--seed", "5",
                 "--task", "class", "--out", str(data),
                 "--schema-out", str(schema)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "task = class\ndepth = 2\nk0 = 1\nd0 = 4\nd1 = 8\n"
        "ghost_size = 32\nbatch_size = 64\nmax_epochs = 4\npatience = 10\n"
        f"seed = 3\ndata = {data}\nschema = {schema}\n", encoding="utf-8")
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append((out / "model.danet").read_bytes())
    _verdict(8, "training is byte-deterministic", blobs[0] == blobs[1],
             f"two runs, model files of {len(blobs[0])} bytes match"
             if blobs[0] == blobs[1] else "model files differ")
