"""Command-line interface.

Subcommands: train, eval, compress, inspect, synth. Each train
setting is declared once, in ``_KEYS``: it is a config-file key and a ``--key``
flag, and both routes parse its value with ``_coerce``. A flag beats the config
file, which beats the default. Config files are flat ``key = value`` lines
(``#`` comments allowed, a UTF-8 byte-order mark ignored); unknown keys fail.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .data import (DataError, load_csv, PreprocessState, read_schema,
                   stratified_split, synth_generate, write_csv)
from .entmax import entmax15
from .layers import AbstractUnit
from .network import DANet, DANetConfig, count_flops
from .reparam import compress_model, compressed_like
from .serialize import ContainerError, load_model, save_model
from .training import TrainConfig, evaluate, fit, history_to_csv, TrainingError


class ConfigError(ValueError):
    """Bad config file or flag combination."""


def _run_keys() -> dict:
    """Every key the CLI understands, as name -> (type, default): the fields
    of DANetConfig (but num_classes, which the training data decides) and of
    TrainConfig, plus the input and output paths and the validation share."""
    keys = {"data": (str, None), "schema": (str, None), "out": (str, None),
            "valid_frac": (float, 0.2)}
    for cls in (DANetConfig, TrainConfig):
        types = get_type_hints(cls)
        keys.update((f.name, (types[f.name], f.default)) for f in fields(cls)
                    if f.name != "num_classes")
    return keys


_KEYS = _run_keys()


def _coerce(key: str, raw: str):
    kind = _KEYS[key][0]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"config key {key!r}: cannot parse {raw!r} as {kind.__name__}") from None


def parse_config_file(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        values[key] = _coerce(key, val)
    return values


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Every key's value: flag > config file > default."""
    values = {key: default for key, (_, default) in _KEYS.items()}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in _KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = _coerce(key, flag)
    return argparse.Namespace(**values)


def _build(cls, cfg: argparse.Namespace, **given):
    """``cls`` built from the resolved keys that name its fields, plus ``given``."""
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls) if f.name not in given},
               **given)


def _metric_name(task: str) -> str:
    return "accuracy" if task == "class" else "mse"


def cmd_train(args: argparse.Namespace) -> int:
    cfg = resolve_config(args)
    for key in ("data", "schema", "out"):
        if getattr(cfg, key) in (None, ""):
            raise ConfigError(f"train: --{key} (or config key '{key}') is required")
    train_cfg = _build(TrainConfig, cfg)  # its checks (the seed's too) come first
    schema = read_schema(cfg.schema)
    ds = load_csv(cfg.data, schema, task=cfg.task)
    num_classes = 2
    if cfg.task == "class":
        # the head gets one logit per label, so the labels must be 0..C-1
        labels = np.unique(ds.targets)
        num_classes = len(labels)
        if num_classes < 2:
            raise DataError(f"train: need at least 2 classes, found {num_classes}")
        if labels[-1] != num_classes - 1:
            raise DataError(f"train: class labels must be 0..C-1 without gaps, found "
                            f"{num_classes} distinct labels, the largest {labels[-1]}")
    train_raw, valid_raw = stratified_split(ds, frac=cfg.valid_frac, seed=cfg.seed)
    pp = PreprocessState()
    train_set = pp.fit(train_raw)
    valid_set = pp.apply(valid_raw)

    net_cfg = _build(DANetConfig, cfg, num_classes=num_classes)
    model = DANet(train_set.n_features, net_cfg, ghost_size=cfg.ghost_size, seed=cfg.seed)
    result = fit(model, train_set, valid_set, train_cfg)

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    target_name = next(n for n, k in schema.items() if k == "target")
    save_model(out_dir / "model.danet", model, feature_names=ds.names,
               feature_kinds=ds.kinds, preprocess=pp, target_name=target_name)
    history_to_csv(result.history, out_dir / "history.csv")

    full = pp.apply(ds)
    metric = evaluate(model, full)
    name = _metric_name(cfg.task)
    line = (f"dataset={Path(cfg.data).stem} depth={cfg.depth} k0={cfg.k0} "
            f"d0={cfg.d0} d1={cfg.d1} seed={cfg.seed} "
            f"{name}={metric:.6f} valid_{name}={result.best_metric:.6f} "
            f"epochs={result.epochs_run}")
    (out_dir / "metrics.txt").write_text(line + "\n", encoding="utf-8")
    print(line)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    bundle = load_model(args.model)
    if args.schema:
        schema = read_schema(args.schema)
    else:
        if bundle.feature_names is None or bundle.manifest.get("target") is None:
            raise ConfigError(
                "eval: the model container carries no feature schema; pass --schema"
            )
        schema = {n: k for n, k in zip(bundle.feature_names, bundle.feature_kinds)}
        schema[bundle.manifest["target"]] = "target"
    ds = load_csv(args.data, schema, task=bundle.model.task)
    names = bundle.feature_names
    if names is not None and ds.n_features == len(names) and ds.names != names:
        if sorted(ds.names) != sorted(names):  # only a --schema can name other columns
            raise DataError(f"eval: the CSV's feature columns {ds.names} are not the "
                            f"model's {names}")
        ds = ds.columns(names)  # scored in the model's column order
    if bundle.preprocess is not None:
        ds = bundle.preprocess.apply(ds)
    if ds.n_features != bundle.model.n_features:
        raise DataError(
            f"eval: dataset has {ds.n_features} features, model expects "
            f"{bundle.model.n_features}"
        )
    metric = evaluate(bundle.model, ds)
    print(f"{_metric_name(bundle.model.task)}={metric:.6f}")
    return 0


def cmd_compress(args: argparse.Namespace) -> int:
    bundle = load_model(args.model)
    untrained = [name for name, bn in bundle.model.named_bns() if bn.updates < 1]
    if untrained:  # its folded twin would fold the initial statistics, not trained ones
        raise ValueError(f"compress: {untrained[0]} running statistics are unpopulated; "
                         "train at least one step first")
    cmodel = compress_model(bundle.model)
    save_model(args.out, cmodel, feature_names=bundle.feature_names,
               feature_kinds=bundle.feature_kinds, preprocess=bundle.preprocess,
               target_name=bundle.manifest.get("target"))
    orig = count_flops(bundle.model).total
    comp = count_flops(cmodel).total
    print(f"original_flops={orig} compressed_flops={comp} "
          f"reduction={100.0 * (1.0 - comp / orig):.2f}%")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """One line per live unit: its mask's support and nonzero probabilities,
    by feature name for the units that read the raw features; then the flop
    table, with the folded column beside a live model's own."""
    bundle = load_model(args.model)
    model = bundle.model
    raw = {id(u) for layer in [model.blocks[0].main1, *(b.shortcut for b in model.blocks)]
           for u in layer.units}
    for prefix, unit in model.walk():
        if isinstance(unit, AbstractUnit):
            names = (bundle.feature_names if id(unit) in raw and bundle.feature_names
                     else [f"f{j}" for j in range(unit.in_dim)])
            probs = entmax15(unit.mask_logits).probs
            kept = [f"{n}={float(p)!r}" for n, p in zip(names, probs) if p > 0]
            print(f"{prefix[:-1]} support={len(kept)}/{unit.in_dim} {' '.join(kept)}")
    live = count_flops(model)
    if model.compressed:
        print("masks: folded away in a compressed model")
        reports = {"compressed": live}
    else:
        reports = {"original": live, "compressed": count_flops(compressed_like(model))}
    columns = [r.as_dict() for r in reports.values()]
    rows = [("layer", *reports)] + [(name, *(c[name] for c in columns)) for name, _ in live.lines]
    rows.append(("total", *(r.total for r in reports.values())))
    width = max(len(name) for name, _ in live.lines)
    for name, *cells in rows:
        print(f"{name:<{width}}" + "".join(f"  {c:>10}" for c in cells))
    if "original" in reports:
        print(f"reduction={100.0 * (1.0 - reports['compressed'].total / live.total):.2f}%")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    ds = synth_generate(args.formula, n=args.n, seed=args.seed, task=args.task)
    write_csv(ds, args.out)
    if args.schema_out:
        lines = [f"{n}=continuous" for n in ds.names] + ["target=target"]
        Path(args.schema_out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {ds.n_rows} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="danet",
        description="Tabular deep networks with sparse feature selection and "
                    "inference-time re-parameterization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model end to end")
    p_train.set_defaults(run=cmd_train)
    p_train.add_argument("--config", help="flat key = value config file")
    for key, (kind, default) in _KEYS.items():  # parsed by resolve_config, as in a file
        p_train.add_argument(f"--{key}", metavar=kind.__name__.upper(),
                             help="no default" if default is None else f"default {default}")

    p_eval = sub.add_parser("eval", help="score a saved model on a CSV")
    p_eval.set_defaults(run=cmd_eval)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--schema", help="override the schema stored in the container")

    p_comp = sub.add_parser("compress", help="fold masks and batch norm into affine maps")
    p_comp.set_defaults(run=cmd_compress)
    p_comp.add_argument("--model", required=True)
    p_comp.add_argument("--out", required=True)

    p_insp = sub.add_parser("inspect", help="unit mask supports and the flop table")
    p_insp.set_defaults(run=cmd_inspect)
    p_insp.add_argument("--model", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    p_synth.set_defaults(run=cmd_synth)
    p_synth.add_argument("--formula", type=int, choices=[1, 2, 3, 4], required=True)
    p_synth.add_argument("--n", type=int, default=7000)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--task", choices=["class", "rank"], default="rank")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--schema-out", dest="schema_out",
                         help="also write the matching schema file")
    return parser


def _glue_signed_numbers(argv: list) -> list:
    """``--key -1e-3`` as ``--key=-1e-3``. argparse reads a word after a flag
    as an option unless it is shaped like ``-1`` or ``-.5``; the glued form it
    reads as the flag's value. Only words that ``float`` parses are glued."""
    out = []
    for word in argv:
        try:
            float(word)
            if word.startswith("-") and out and out[-1].startswith("--") and "=" not in out[-1]:
                out[-1] += "=" + word
                continue
        except ValueError:
            pass
        out.append(word)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_glue_signed_numbers(sys.argv[1:] if argv is None else argv))
    try:
        code = args.run(args)
        sys.stdout.flush()  # a reader that left shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of stdout stopped early (`danet inspect ... | head`): no
        # error line, and stdout goes to devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, ContainerError, DataError, TrainingError, ValueError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
