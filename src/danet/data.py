"""Dataset loading, preprocessing, splitting, and synthetic generators.

CSV input follows RFC 4180 with a header row: files without quotes are split
on commas in one pass, all others go through the stdlib csv module. A schema
file assigns every column a kind: ``name=continuous``, ``name=categorical``,
or ``name=target`` (exactly one target). ``PreprocessState`` leave-one-out
encodes the categorical columns against the training targets and z-scores the
continuous ones with training statistics.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np


class DataError(ValueError):
    """Malformed data, schema, or split request."""


@dataclass
class Dataset:
    """Feature matrix plus targets and per-column metadata.

    Classification targets are integer labels. ``cat_raw`` maps a
    categorical column's index to its raw string values, one per row, until
    ``PreprocessState`` replaces them with numeric codes.
    """

    features: np.ndarray
    targets: np.ndarray
    names: list
    kinds: list
    task: str
    cat_raw: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DataError(f"Dataset: features must be 2-D, got {self.features.shape}")
        if self.features.shape[0] != self.targets.shape[0]:
            raise DataError("Dataset: features and targets row counts differ")
        if len(self.names) != self.features.shape[1] or len(self.kinds) != self.features.shape[1]:
            raise DataError("Dataset: names/kinds do not match feature count")
        if self.task not in ("class", "rank"):
            raise DataError(f"Dataset: task must be 'class' or 'rank', got {self.task!r}")
        if self.task == "class" and not np.issubdtype(self.targets.dtype, np.integer):
            # the labels index the logits in the loss
            raise DataError(f"Dataset: classification targets must be integers, got "
                            f"dtype {self.targets.dtype}")
        for j, vals in self.cat_raw.items():
            if not (isinstance(j, (int, np.integer)) and 0 <= j < self.n_features
                    and self.kinds[j] == "categorical"):
                raise DataError(f"Dataset: cat_raw key {j!r} is not a categorical column index")
            if len(vals) != self.n_rows:
                raise DataError(f"Dataset: cat_raw[{j}] holds {len(vals)} values for "
                                f"{self.n_rows} rows")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        """The rows at integer positions ``idx``, or where the boolean mask
        ``idx`` of ``n_rows`` entries is true."""
        idx = np.asarray(idx)
        if idx.dtype == np.bool_ and idx.shape == (self.n_rows,):
            idx = np.flatnonzero(idx)
        if idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer):
            raise DataError(f"Dataset.subset: expected 1-D integer positions or a boolean "
                            f"mask of {self.n_rows} rows, got dtype {idx.dtype} and shape "
                            f"{idx.shape}")
        take = idx.tolist()
        return Dataset(
            features=self.features[idx].copy(),
            targets=self.targets[idx].copy(),
            names=list(self.names),
            kinds=list(self.kinds),
            task=self.task,
            cat_raw={j: [vals[i] for i in take] for j, vals in self.cat_raw.items()},
        )


SCHEMA_KINDS = ("continuous", "categorical", "target")


def read_schema(path) -> dict:
    """Parse a schema file into an ordered {column: kind} mapping."""
    schema = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"schema line {lineno}: expected 'column=kind', got {line!r}")
        name, kind = line.split("=", 1)
        name, kind = name.strip(), kind.strip()
        if kind not in SCHEMA_KINDS:
            raise DataError(
                f"schema line {lineno}: kind must be one of {SCHEMA_KINDS}, got {kind!r}"
            )
        if name in schema:
            raise DataError(f"schema line {lineno}: duplicate column {name!r}")
        schema[name] = kind
    targets = [n for n, k in schema.items() if k == "target"]
    if len(targets) != 1:
        raise DataError(f"schema must name exactly one target column, found {len(targets)}")
    return schema


def _parse_float(cell: str, row: int, col: str) -> float:
    try:
        v = float(cell)
    except ValueError:
        raise DataError(f"row {row}: non-numeric value {cell!r} in continuous column {col!r}") from None
    if not np.isfinite(v):
        raise DataError(f"row {row}: non-finite value {cell!r} in continuous column {col!r}")
    return v


def _split_csv(path):
    """The header and the columns of a CSV that ``str.split`` tokenizes
    exactly as the csv module does: UTF-8, no ``"``, no NUL, no ``\\r`` but
    in ``\\r\\n`` line ends, no blank line, no line over
    ``csv.field_size_limit()``, and the same number of commas on every line.
    None for any other file, or for a header with no data row."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read().replace("\r\n", "\n")
    except UnicodeDecodeError:
        return None
    if '"' in text or "\0" in text or "\r" in text:
        return None
    lines = text.split("\n")
    del text
    if lines[-1] == "":
        lines.pop()
    if (len(lines) < 2 or "" in lines or max(map(len, lines)) > csv.field_size_limit()
            or len(set(map(str.count, lines, repeat(",")))) != 1):
        return None
    header = lines[0].split(",")
    body = ",".join(lines[1:])
    del lines
    cells = body.split(",")
    del body
    width = len(header)
    return header, [cells[i::width] for i in range(width)]


def _read_csv(path):
    """The header and the rows of any CSV, through the csv module."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            rows = list(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        except csv.Error as e:  # e.g. a field over csv.field_size_limit()
            raise DataError(f"{path}: line {reader.line_num}: unreadable CSV: {e}") from None
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text: {e.reason} at byte {e.start}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, rows


def _parse_columns(columns: list, cols: list, outs: list) -> bool:
    """Parse the CSV columns at indices ``cols`` into the arrays ``outs``.
    False when a cell is not a finite float."""
    try:
        for i, out in zip(cols, outs):
            out[:] = np.fromiter(map(float, columns[i]), np.float64, len(out))
    except ValueError:
        return False
    return all(np.isfinite(out).all() for out in outs)


def _parse_cells(rows: list, width: int, cols: list, names: list, outs: list) -> None:
    """``_parse_columns`` cell by cell over the rows, raising DataError at
    the first ragged row or bad cell in row-major order."""
    for r, row in enumerate(rows, start=1):
        if len(row) != width:
            raise DataError(f"row {r}: expected {width} cells, got {len(row)}")
        for i, name, out in zip(cols, names, outs):
            out[r - 1] = _parse_float(row[i], r, name)


def load_csv(path, schema: dict, task: str = "class") -> Dataset:
    """Load an RFC 4180 CSV with header against a schema.

    A file without quotes or stray ``\\r`` (see ``_split_csv``) is split on
    commas in one pass; any other file, and any file the split path cannot
    parse, goes through the csv module. Continuous cells and targets are
    parsed column by column with Python's ``float``; only when a row is
    ragged or a cell is not a finite float does a cell-by-cell pass over the
    csv module's rows run, to name the first bad row and column, so every
    error reads the same on both paths. Row numbers in error messages are
    1-based data rows (the header is row 0). Classification targets must be
    non-negative integers, at most 2**53.
    """
    if task not in ("class", "rank"):
        raise DataError(f"load_csv: task must be 'class' or 'rank', got {task!r}")
    split = _split_csv(path)
    ds = _dataset(path, schema, task, *split) if split else None
    if ds is None:
        header, rows = _read_csv(path)
        width = len(header)
        columns = (None if any(len(row) != width for row in rows)
                   else list(map(list, zip(*rows))))
        ds = _dataset(path, schema, task, header, columns, rows)
    return ds


def _dataset(path, schema: dict, task: str, header: list, columns, rows=None):
    """The Dataset of a tokenized CSV: ``columns`` holds each CSV column's
    cells, or is None when a row is ragged. When a row is ragged or a cell is
    not a finite float, the first bad cell is named from ``rows``; without
    rows, returns None."""
    missing = [c for c in schema if c not in header]
    if missing:
        raise DataError(f"{path}: schema column(s) missing from CSV header: {missing}")
    extra = [c for c in header if c not in schema]
    if extra:
        raise DataError(f"{path}: CSV column(s) not named in schema: {extra}")
    if len(set(header)) != len(header):
        raise DataError(f"{path}: duplicate CSV header columns")

    target_col = next(n for n, k in schema.items() if k == "target")
    target_idx = header.index(target_col)
    feat_cols = [(i, name) for i, name in enumerate(header) if name != target_col]
    names = [name for _, name in feat_cols]
    kinds = [schema[name] for name in names]

    # the continuous features in order, then the target: the order in which
    # the per-cell pass checks a row's cells
    cont = [j for j, kind in enumerate(kinds) if kind == "continuous"]
    n = len(columns[0]) if columns else len(rows)
    features = np.zeros((n, len(feat_cols)))
    targets_f = np.zeros(n)
    cols = [feat_cols[j][0] for j in cont] + [target_idx]
    outs = [features[:, j] for j in cont] + [targets_f]
    if not (columns and _parse_columns(columns, cols, outs)):
        if rows is None:
            return None
        _parse_cells(rows, len(header), cols, [names[j] for j in cont] + [target_col], outs)
    cat_raw = {j: columns[i] for j, (i, _) in enumerate(feat_cols) if kinds[j] == "categorical"}

    if task == "class":
        not_int = (targets_f < 0) | (targets_f != np.round(targets_f))
        # past 2**53 floats skip integers, and past 2**63 the cast below wraps
        too_big = targets_f > 2.0 ** 53
        if np.any(not_int) or np.any(too_big):
            bad = int(np.argmax(not_int | too_big)) + 1
            rule = "at most 2**53" if too_big[bad - 1] else "a non-negative integer"
            raise DataError(f"row {bad}: classification target must be {rule}, "
                            f"got {float(targets_f[bad - 1])!r}")
        targets = targets_f.astype(np.int64)
    else:
        targets = targets_f

    return Dataset(features=features, targets=targets, names=names, kinds=kinds,
                   task=task, cat_raw=cat_raw)


@dataclass
class LooTable:
    """Per-category target means plus the global fallback mean."""

    means: dict
    global_mean: float


@dataclass
class ZscoreStats:
    mean: np.ndarray
    std: np.ndarray
    cols: np.ndarray  # indices of the columns the stats apply to


@dataclass
class PreprocessState:
    """Leave-one-out tables and z-score statistics, learned from a training split.

    fit:   a categorical code is the mean target of the *other* training rows
           in its category ((sum - own) / (count - 1)); singleton categories
           get the global target mean. Each table keeps its categories' full
           means.
    apply: categorical codes come straight from the tables; unseen categories
           get the global mean.
    Both then z-score the continuous columns with the training statistics;
    columns whose training std falls below 1e-12 become zeros.
    """

    loo_tables: dict = field(default_factory=dict)  # column index -> LooTable
    zstats: ZscoreStats | None = None

    def fit(self, ds: Dataset) -> Dataset:
        """Fit on a training split and return its preprocessed copy."""
        x = np.array(ds.features, dtype=np.float64)
        t = np.asarray(ds.targets, dtype=np.float64)
        global_mean = float(t.mean())
        self.loo_tables = {}
        for j, vals in ds.cat_raw.items():
            # category -> its number, in order of first appearance
            index = {v: k for k, v in enumerate(dict.fromkeys(vals))}
            inv = np.fromiter(map(index.__getitem__, vals), np.int64, len(vals))
            sums = np.bincount(inv, weights=t)  # adds in row order
            counts = np.bincount(inv)
            own = counts[inv]
            x[:, j] = np.where(own > 1, (sums[inv] - t) / np.maximum(own - 1, 1), global_mean)
            self.loo_tables[j] = LooTable(means=dict(zip(index, (sums / counts).tolist())),
                                          global_mean=global_mean)
        cont = np.array([j for j, k in enumerate(ds.kinds) if k == "continuous"], dtype=np.int64)
        self.zstats = ZscoreStats(mean=x[:, cont].mean(axis=0), std=x[:, cont].std(axis=0),
                                  cols=cont)
        return self._finish(ds, x)

    def apply(self, ds: Dataset) -> Dataset:
        if self.zstats is None:
            raise DataError("PreprocessState: fit before apply")
        width = len(self.loo_tables) + len(self.zstats.cols)
        if ds.n_features != width:
            raise DataError(f"PreprocessState: dataset has {ds.n_features} feature columns, "
                            f"fit saw {width}")
        if sorted(self.loo_tables) != sorted(ds.cat_raw):
            raise DataError("PreprocessState: categorical columns differ from those seen at fit")
        x = np.array(ds.features, dtype=np.float64)
        for j, table in self.loo_tables.items():
            vals = ds.cat_raw[j]
            x[:, j] = np.fromiter(map(table.means.get, vals, repeat(table.global_mean)),
                                  np.float64, len(vals))
        return self._finish(ds, x)

    def _finish(self, ds: Dataset, x: np.ndarray) -> Dataset:
        """Z-score the continuous columns of ``x`` in place and wrap it."""
        z = self.zstats
        live = z.std >= 1e-12
        x[:, z.cols] = np.where(live, (x[:, z.cols] - z.mean) / np.where(live, z.std, 1.0), 0.0)
        if not np.all(np.isfinite(x)):
            raise DataError("preprocessing produced non-finite values")
        return Dataset(features=x, targets=ds.targets.copy(), names=list(ds.names),
                       kinds=list(ds.kinds), task=ds.task)


def stratified_split(ds: Dataset, frac: float = 0.2, seed: int = 0):
    """Split off a validation fraction; per-class proportional for classification.

    Returns (train, valid). Classes with fewer than 2 rows are an error. Row
    order inside each split follows the original dataset order.
    """
    if not 0.0 < frac < 1.0:
        raise DataError(f"stratified_split: frac must be in (0, 1), got {frac}")
    n = ds.n_rows
    if n < 2:
        raise DataError("stratified_split: need at least 2 rows")
    rng = np.random.default_rng(seed)
    if ds.task == "class":
        valid_idx = []
        for label in np.unique(ds.targets):
            rows = np.flatnonzero(ds.targets == label)
            if rows.size < 2:
                raise DataError(f"stratified_split: class {label} has only {rows.size} row(s)")
            k = int(round(rows.size * frac))
            picked = rows[rng.permutation(rows.size)[:k]]
            valid_idx.append(picked)
        valid_idx = np.sort(np.concatenate(valid_idx)) if valid_idx else np.array([], dtype=int)
    else:
        k = int(round(n * frac))
        valid_idx = np.sort(rng.permutation(n)[:k])
    mask = np.zeros(n, dtype=bool)
    mask[valid_idx] = True
    train_idx = np.flatnonzero(~mask)
    return ds.subset(train_idx), ds.subset(valid_idx)


N_SYNTH_FEATURES = 11


def _formula1(x: np.ndarray) -> np.ndarray:
    return (x[:, 2:6] ** 2).sum(axis=1)


def _formula2(x: np.ndarray) -> np.ndarray:
    return np.abs(np.log(np.abs(x[:, 0] - x[:, 2]))
                  + np.cos(x[:, 5] + np.sin(x[:, 6]))
                  - 1e-8 * x[:, 10])


def _formula3(x: np.ndarray) -> np.ndarray:
    y = np.zeros(x.shape[0])
    for i, j in ((6, 7), (5, 8)):
        s = x[:, i] + x[:, j]
        y += -10.0 * np.sin(s / 10.0) + s * s
    return y


def _formula4(x: np.ndarray) -> np.ndarray:
    return np.where(x[:, 1] < 0.0, _formula1(x), _formula2(x))


FORMULAS = {1: _formula1, 2: _formula2, 3: _formula3, 4: _formula4}


def synth_generate(formula: int, n: int = 7000, seed: int = 0,
                   task: str = "rank") -> Dataset:
    """Draw n rows of 11 iid standard-normal features and label them.

    Formulas 2 and 4 take a logarithm of |v0 - v2|; rows where that gap is
    below 1e-300 are redrawn so the label stays finite. Classification
    binarizes at the sample median (label 1 strictly above).
    """
    if formula not in FORMULAS:
        raise DataError(f"synth_generate: formula must be in {sorted(FORMULAS)}, got {formula}")
    if n < 1:
        raise DataError(f"synth_generate: n must be >= 1, got {n}")
    if seed < 0:
        raise DataError(f"synth_generate: seed must be >= 0, got {seed}")
    if task not in ("class", "rank"):
        raise DataError(f"synth_generate: task must be 'class' or 'rank', got {task!r}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, N_SYNTH_FEATURES))
    if formula in (2, 4):
        bad = np.abs(x[:, 0] - x[:, 2]) < 1e-300
        while np.any(bad):
            x[bad] = rng.standard_normal((int(bad.sum()), N_SYNTH_FEATURES))
            bad = np.abs(x[:, 0] - x[:, 2]) < 1e-300
    y = FORMULAS[formula](x)
    names = [f"v{i}" for i in range(N_SYNTH_FEATURES)]
    kinds = ["continuous"] * N_SYNTH_FEATURES
    if task == "class":
        targets = (y > np.median(y)).astype(np.int64)
    else:
        targets = y
    return Dataset(features=x, targets=targets, names=names, kinds=kinds, task=task)


def write_csv(ds: Dataset, path, target_name: str = "target") -> None:
    """Write a dataset as CSV (features then target). Floats use repr so a
    round-trip through load_csv is value-exact."""
    if target_name in ds.names:
        raise DataError(f"write_csv: target name {target_name!r} collides with a feature")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(ds.names) + [target_name])
        for r in range(ds.n_rows):
            row = []
            for j in range(ds.n_features):
                if j in ds.cat_raw:
                    row.append(ds.cat_raw[j][r])
                else:
                    row.append(repr(float(ds.features[r, j])))
            t = ds.targets[r]
            row.append(str(int(t)) if ds.task == "class" else repr(float(t)))
            writer.writerow(row)
