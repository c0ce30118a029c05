"""Fold a trained model into its inference form and count what it saves.

Folding rewrites every mask as a column scale on the weight matrices and
every batch norm as a scale-and-shift, leaving two plain affines plus the
fixed gate per unit. The rewrite is exact (the check below is against
1e-10, not "close enough") and strictly cheaper under the flop convention
printed at the end.
"""

import numpy as np

from danet import (DANet, DANetConfig, PreprocessState, TrainConfig,
                   compress_model, count_flops, fit,
                   stratified_split, synth_generate)

if __name__ == "__main__":
    ds = synth_generate(2, n=1000, seed=4, task="class")
    train_raw, valid_raw = stratified_split(ds, frac=0.2, seed=4)
    pp = PreprocessState()
    train, valid = pp.fit(train_raw), pp.apply(valid_raw)

    cfg = DANetConfig(depth=4, k0=2, d0=8, d1=16, dropout=0.1, task="class")
    model = DANet(11, cfg, ghost_size=128, seed=4)
    fit(model, train, valid,
        TrainConfig(batch_size=256, ghost_size=128, lr0=0.01, max_epochs=5,
                    patience=5, seed=4))

    cmodel = compress_model(model)
    x = np.random.default_rng(99).standard_normal((500, 11))
    ref, _ = model.forward(x, train=False)
    diff = float(np.max(np.abs(cmodel.scores(x) - ref)))
    same = bool(np.array_equal(cmodel.predict(x), model.predict(x)))
    print(f"max |folded - eval| over 500 inputs: {diff:.3e}")
    print(f"predictions identical: {same}\n")

    live, folded = count_flops(model), count_flops(cmodel)
    fdict = folded.as_dict()
    print(f"{'module':<16} {'live':>8} {'folded':>8}")
    for name, n in live.lines:
        marker = "" if fdict[name] < n else "  (unchanged)"
        print(f"{name:<16} {n:>8} {fdict[name]:>8}{marker}")
    saved = 100.0 * (1.0 - folded.total / live.total)
    print(f"{'total':<16} {live.total:>8} {folded.total:>8}   "
          f"({saved:.2f}% fewer)")
