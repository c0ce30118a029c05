"""Remake the kept serving container ``model/serve.danet`` from a seed.

    python3 benchmarks/make_model.py [--seed 20211206]

Generates a 70k-row cardiovascular-shaped CSV from the seed, trains the
reference architecture on it with ``danet train`` (depth 8, k0 5, d0 32,
d1 64, ghost 256, QHAdam defaults, 20% validation split) for ``EPOCHS``
epochs with early stopping disabled, and copies the live container into
place. Batches are 1024 rows rather than the reference 8192: per row a step
costs about the same, and eight times the optimizer steps per epoch let the
batch-norm running statistics settle and the entmax masks move far enough to
go sparse in minutes rather than hours. With BLAS pinned to one thread the
result is byte-identical for a given seed and source tree.

Prints the training summary line, the accuracy on a fresh held-out set drawn
from a different seed, and the entmax support size of every shortcut unit
and every first main-path unit.
"""

from __future__ import annotations

import argparse
import shutil

import env

env.prepare()

import gen  # noqa: E402
from danet import entmax15, evaluate, load_csv, load_model, read_schema  # noqa: E402
from danet.cli import main as danet_main  # noqa: E402

ROWS = 70_000
BATCH = 1024
EPOCHS = 30
HELD_OUT_SEED_OFFSET = 1_000_003


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20211206)
    args = parser.parse_args(argv)

    work = env.WORK / "make_model"
    work.mkdir(parents=True, exist_ok=True)
    data, schema = work / "train.csv", work / "train.schema"
    gen.generate(ROWS, args.seed).write_csv(data)
    gen.write_schema(schema)
    status = danet_main([
        "train", "--data", str(data), "--schema", str(schema), "--out", str(work / "run"),
        "--seed", str(args.seed), "--depth", "8", "--k0", "5", "--d0", "32", "--d1", "64",
        "--config", str(_write_config(work)),
    ])
    if status != 0:
        return status
    env.KEPT_MODEL.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(work / "run" / "model.danet", env.KEPT_MODEL)

    bundle = load_model(env.KEPT_MODEL)
    held = gen.generate(ROWS, args.seed + HELD_OUT_SEED_OFFSET)
    held_csv = work / "held_out.csv"
    held.write_csv(held_csv)
    ds = bundle.preprocess.apply(load_csv(held_csv, read_schema(schema)))
    print(f"held_out_accuracy={evaluate(bundle.model, ds):.6f} "
          f"bayes_accuracy={held.bayes_accuracy():.6f} rows={ROWS}")
    for i, block in enumerate(bundle.model.blocks):
        for role in ("shortcut", "main1"):
            layer = getattr(block, role)
            sizes = [int(entmax15(u.mask_logits).support.size) for u in layer.units]
            print(f"block{i}.{role} support sizes of {layer.in_dim}: {sizes}")
    return 0


def _write_config(work):
    path = work / "train.conf"
    path.write_text(f"max_epochs = {EPOCHS}\npatience = {EPOCHS}\nbatch_size = {BATCH}\n",
                    encoding="utf-8")
    return path


if __name__ == "__main__":
    raise SystemExit(main())
