"""Single-file model container: a JSON manifest line plus raw float64 tensors.

Layout (documented here and in the README):

* line 1: the magic string ``DANET1``
* line 2: one JSON object: format name/version, ``compressed`` flag,
  architecture config, task, optional feature schema and preprocessing
  state, batch-norm update counters, and the tensor directory (name and
  shape per tensor, in file order)
* everything after: the tensors' raw bytes, little-endian float64, C order,
  concatenated in directory order.

Floats inside the manifest are emitted by Python's shortest-round-trip repr
(via json), so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .data import LooTable, PreprocessState, ZscoreStats
from .network import DANet, DANetConfig
from .reparam import compressed_like

MAGIC = b"DANET1"
FORMAT_NAME = "danet-container"
FORMAT_VERSION = 1


class ContainerError(ValueError):
    """Unreadable or inconsistent model container."""


def _preprocess_to_manifest(pp: PreprocessState | None):
    if pp is None:
        return None
    if pp.zstats is None:
        raise ContainerError("save_model: preprocess state was never fit")
    loo = {
        str(j): {"means": table.means, "global_mean": table.global_mean}
        for j, table in pp.loo_tables.items()
    }
    zs = {
        "mean": [float(v) for v in pp.zstats.mean],
        "std": [float(v) for v in pp.zstats.std],
        "cols": [int(c) for c in pp.zstats.cols],
    }
    return {"loo": loo, "zscore": zs}


def _preprocess_from_manifest(entry, n_features: int) -> PreprocessState | None:
    if entry is None:
        return None
    tables = {
        int(j): LooTable(means=dict(t["means"]), global_mean=float(t["global_mean"]))
        for j, t in entry["loo"].items()
    }
    zs = entry["zscore"]
    if sorted([*tables, *zs["cols"]]) != list(range(n_features)):
        raise ValueError("preprocess: the z-scored and leave-one-out columns do not "
                         f"partition the {n_features} feature columns")
    stats = ZscoreStats(mean=np.array(zs["mean"], dtype=np.float64),
                        std=np.array(zs["std"], dtype=np.float64),
                        cols=np.array(zs["cols"], dtype=np.int64))
    if not stats.mean.shape == stats.std.shape == stats.cols.shape:
        raise ValueError("preprocess: mean and std need one value per z-scored column")
    return PreprocessState(loo_tables=tables, zstats=stats)


def _check_schema(target, names, kinds) -> None:
    """The schema rule that ``save_model`` and ``load_model`` both enforce."""
    if target is not None and not isinstance(target, str):
        raise ValueError(f"target {target!r} is not a string")
    for name, kind in zip(names or [], kinds or [], strict=True):
        if not isinstance(name, str) or kind not in ("continuous", "categorical"):
            raise ValueError(f"feature {name!r} of kind {kind!r}: need a string name "
                             "and kind 'continuous' or 'categorical'")


def _tensors(model):
    """(name, array) in file order: every parameter, then every buffer."""
    return [(name, arr) for name, _, arr in model.named_params()] + model.named_buffers()


def _directory(cfg: DANetConfig, n_features: int, compressed) -> list:
    """The tensor directory of the model a manifest describes, from its
    config alone: {"name", "shape"} of each of ``_tensors``, in file order."""
    params, bufs = [], []
    for b in range(cfg.n_blocks):
        for role, i, o in (("main1", cfg.d0 if b else n_features, cfg.d1),
                           ("main2", cfg.d1, cfg.d0), ("shortcut", n_features, cfg.d0)):
            for p in (f"block{b}.{role}.u{k}." for k in range(cfg.k0)):
                if compressed:
                    params += [(p + "w1s", [o, i]), (p + "b1s", [o]), (p + "w2s", [o, i]),
                               (p + "b2s", [o])]
                    continue
                params += [(p + "mask", [i]), (p + "w1", [o, i]), (p + "w2", [o, i])]
                params += [(f"{p}bn{j}.{t}", [o]) for j in (1, 2) for t in ("gamma", "beta")]
                bufs += [(f"{p}bn{j}.running_{v}", [o]) for j in (1, 2) for v in ("mean", "var")]
    h, c = cfg.hidden_width, cfg.out_dim
    params += [("head.w0", [h, cfg.d0]), ("head.b0", [h]), ("head.w1", [h, h]),
               ("head.b1", [h]), ("head.w2", [c, h]), ("head.b2", [c])]
    return [{"name": name, "shape": shape} for name, shape in params + bufs]


def save_model(path, model, feature_names=None, feature_kinds=None,
               preprocess: PreprocessState | None = None,
               target_name: str | None = None) -> None:
    """Write a live or compressed model (plus optional schema/preprocessing).
    A schema or preprocessing that ``load_model`` would refuse raises before the
    file is opened."""
    stored_preprocess = _preprocess_to_manifest(preprocess)
    try:
        _check_schema(target_name, feature_names, feature_kinds)
        _preprocess_from_manifest(stored_preprocess, model.n_features)
    except ValueError as e:
        raise ContainerError(f"save_model: {e}") from None
    compressed = model.compressed
    tensors = _tensors(model)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "compressed": compressed,
        "config": asdict(model.config),
        "n_features": model.n_features,
        "ghost_size": None if compressed else model.ghost_size,
        "target": target_name,
        "features": (
            None if feature_names is None
            else [{"name": n, "kind": k} for n, k in zip(feature_names, feature_kinds)]
        ),
        "preprocess": stored_preprocess,
        "bn_updates": (None if compressed
                       else {name: bn.updates for name, bn in model.named_bns()}),
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in tensors],
    }
    line = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(line.encode("utf-8") + b"\n")
        for _, arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


@dataclass
class LoadedModel:
    """A deserialized container: the model plus whatever rode along with it."""

    model: DANet  # live or compressed
    feature_names: list | None
    feature_kinds: list | None
    preprocess: PreprocessState | None
    manifest: dict


def load_model(path) -> LoadedModel:
    """Read a container written by ``save_model``. Any fault in it raises
    ``ContainerError``; the model is built from manifest values only, so a
    wrong key, type or value there is reported as one."""
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != MAGIC:
            raise ContainerError(f"{path}: not a model container (bad magic {magic!r})")
        try:
            manifest = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ContainerError(f"{path}: unreadable manifest: {e}") from None
        if (not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME
                or manifest.get("version") != FORMAT_VERSION):
            raise ContainerError(f"{path}: unsupported container format/version")
        try:
            cfg = DANetConfig(**manifest["config"])
            n_features = int(manifest["n_features"])
            _check_directory(fh, manifest.get("tensors"),
                             _directory(cfg, n_features, manifest["compressed"]), path)
            if manifest["compressed"]:
                model = compressed_like(DANet(n_features, cfg, seed=0))
            else:
                model = DANet(n_features, cfg, ghost_size=int(manifest["ghost_size"]), seed=0)
                for name, bn in model.named_bns():
                    bn.updates = int(manifest["bn_updates"][name])
            features = manifest.get("features")
            names = [f["name"] for f in features] if features else None
            kinds = [f["kind"] for f in features] if features else None
            _check_schema(manifest.get("target"), names, kinds)
            preprocess = _preprocess_from_manifest(manifest.get("preprocess"), n_features)
        except ContainerError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as e:
            raise ContainerError(
                f"{path}: malformed manifest: {type(e).__name__}: {e}") from None
        for _, arr in _tensors(model):
            arr[...] = np.frombuffer(fh.read(arr.nbytes), dtype="<f8").reshape(arr.shape)
    return LoadedModel(model=model, feature_names=names, feature_kinds=kinds,
                       preprocess=preprocess, manifest=manifest)


def _check_directory(fh, directory, expected: list, path) -> None:
    """Before the model is built: the directory must be ``expected``, in
    order and with its shapes, and the bytes left in the file its tensors."""
    if len(directory) > len(expected):
        raise ContainerError(f"{path}: container holds unexpected extra tensors")
    for want, entry in itertools.zip_longest(expected, directory):
        if entry != want:
            raise ContainerError(f"{path}: tensor directory lists {entry!r} where "
                                 f"{want['name']!r} with shape {want['shape']} belongs")
    size = 8 * sum(math.prod(entry["shape"]) for entry in expected)
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left != size:
        raise ContainerError(f"{path}: {'truncated' if left < size else 'trailing bytes after'}"
                             f" tensor data ({left} bytes, {size} expected)")
