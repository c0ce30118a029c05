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

import json
from dataclasses import asdict, dataclass

import numpy as np

from .data import LooTable, PreprocessState, ZscoreStats
from .network import DANet, DANetConfig
from .reparam import CompressedModel, compressed_like

MAGIC = b"DANET1"
FORMAT_NAME = "danet-container"
FORMAT_VERSION = 1


class ContainerError(ValueError):
    """Unreadable or inconsistent model container."""


def _preprocess_to_manifest(pp: PreprocessState | None):
    if pp is None:
        return None
    if not pp.fitted:
        raise ContainerError("save_model: preprocess state is not fitted")
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


def _preprocess_from_manifest(entry) -> PreprocessState | None:
    if entry is None:
        return None
    tables = {
        int(j): LooTable(means=dict(t["means"]), global_mean=float(t["global_mean"]))
        for j, t in entry["loo"].items()
    }
    zs = entry["zscore"]
    stats = ZscoreStats(mean=np.array(zs["mean"], dtype=np.float64),
                        std=np.array(zs["std"], dtype=np.float64),
                        cols=np.array(zs["cols"], dtype=np.int64))
    return PreprocessState(loo_tables=tables, zstats=stats, fitted=True)


def _tensors(model):
    """(name, array) in file order: every parameter, then every buffer."""
    return [(name, arr) for name, _, arr in model.named_params()] + model.named_buffers()


def save_model(path, model, feature_names=None, feature_kinds=None,
               preprocess: PreprocessState | None = None,
               target_name: str | None = None) -> None:
    """Write a live or compressed model (plus optional schema/preprocessing)."""
    compressed = isinstance(model, CompressedModel)
    tensors = _tensors(model)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "compressed": compressed,
        "config": asdict(model.config),
        "n_features": model.n_features,
        "ghost_size": getattr(model, "ghost_size", None),
        "target": target_name,
        "features": (
            None if feature_names is None
            else [{"name": n, "kind": k} for n, k in zip(feature_names, feature_kinds)]
        ),
        "preprocess": _preprocess_to_manifest(preprocess),
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

    model: object  # DANet or CompressedModel
    feature_names: list | None
    feature_kinds: list | None
    preprocess: PreprocessState | None
    manifest: dict


def load_model(path) -> LoadedModel:
    with open(path, "rb") as fh:
        magic = fh.readline().rstrip(b"\n")
        if magic != MAGIC:
            raise ContainerError(f"{path}: not a model container (bad magic {magic!r})")
        try:
            manifest = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ContainerError(f"{path}: unreadable manifest: {e}") from None
        if manifest.get("format") != FORMAT_NAME or manifest.get("version") != FORMAT_VERSION:
            raise ContainerError(f"{path}: unsupported container format/version")
        loaded = {}
        for entry in manifest["tensors"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ContainerError(f"{path}: truncated tensor data at {entry['name']!r}")
            loaded[entry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ContainerError(f"{path}: trailing bytes after tensor data")

    cfg = DANetConfig(**manifest["config"])
    n_features = int(manifest["n_features"])
    if manifest["compressed"]:
        model = compressed_like(DANet(n_features, cfg, seed=0))
    else:
        model = DANet(n_features, cfg, ghost_size=int(manifest["ghost_size"]), seed=0)
        for name, bn in model.named_bns():
            bn.updates = int(manifest["bn_updates"][name])
    _fill(loaded, _tensors(model), path)

    features = manifest.get("features")
    names = [f["name"] for f in features] if features else None
    kinds = [f["kind"] for f in features] if features else None
    return LoadedModel(model=model, feature_names=names, feature_kinds=kinds,
                       preprocess=_preprocess_from_manifest(manifest.get("preprocess")),
                       manifest=manifest)


def _fill(loaded: dict, expected: list, path) -> None:
    for name, arr in expected:
        if name not in loaded:
            raise ContainerError(f"{path}: tensor {name!r} missing from container")
        if loaded[name].shape != arr.shape:
            raise ContainerError(
                f"{path}: tensor {name!r} has shape {loaded[name].shape}, "
                f"expected {arr.shape}"
            )
        arr[...] = loaded[name]
    if len(loaded) != len(expected):
        raise ContainerError(f"{path}: container holds unexpected extra tensors")
