"""CSV loading, encoders, splitting, and the synthetic generators."""

import csv
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from danet import (DataError, Dataset, PreprocessState, Rng, load_csv,
                   read_schema, stratified_split, synth_generate, write_csv)
from danet.data import FORMULAS
from helpers import ref_load_csv


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_read_schema(tmp_path):
    p = write(tmp_path / "s.schema", "\n".join([
        "# comment and blank lines are skipped", "",
        "age = continuous", "city=categorical", "label=target",
    ]))
    assert read_schema(p) == {"age": "continuous", "city": "categorical",
                              "label": "target"}


def test_read_schema_reads_a_byte_order_mark_as_nothing(tmp_path):
    p = write(tmp_path / "s.schema", "\ufeffa=continuous\ny=target\n")
    assert read_schema(p) == {"a": "continuous", "y": "target"}


def test_load_csv_reads_a_byte_order_mark_as_nothing(tmp_path):
    p = write(tmp_path / "d.csv", "\ufeffa,y\n1.5,0\n2.5,1\n")
    ds = load_csv(p, {"a": "continuous", "y": "target"})
    assert ds.names == ["a"] and np.array_equal(ds.features[:, 0], [1.5, 2.5])


def test_read_schema_errors(tmp_path):
    cases = [
        ("a continuous", "expected 'column=kind'"),
        ("a=numeric", "kind must be one of"),
        ("a=continuous\na=target", "duplicate column"),
        ("a=continuous\nb=continuous", "exactly one target"),
        ("a=target\nb=target", "exactly one target"),
    ]
    for text, msg in cases:
        with pytest.raises(DataError, match=msg):
            read_schema(write(tmp_path / "bad.schema", text))


def test_load_csv_basic(tmp_path):
    csv_p = write(tmp_path / "d.csv",
                  'a,b,y\n1.5,"x,1",0\n-2.0,x2,1\n0.25,"x,1",1\n')
    schema = {"a": "continuous", "b": "categorical", "y": "target"}
    ds = load_csv(csv_p, schema, task="class")
    assert ds.names == ["a", "b"] and ds.kinds == ["continuous", "categorical"]
    assert np.array_equal(ds.features[:, 0], [1.5, -2.0, 0.25])
    assert ds.cat_raw[1] == ["x,1", "x2", "x,1"]  # quoted comma preserved
    assert np.array_equal(ds.targets, [0, 1, 1]) and ds.targets.dtype == np.int64


def test_load_csv_column_order_follows_header(tmp_path):
    csv_p = write(tmp_path / "d.csv", "y,b,a\n0,1.0,2.0\n1,3.0,4.0\n")
    schema = {"a": "continuous", "b": "continuous", "y": "target"}
    ds = load_csv(csv_p, schema)
    assert ds.names == ["b", "a"]
    assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_errors(tmp_path):
    schema = {"a": "continuous", "y": "target"}
    with pytest.raises(DataError, match="empty file"):
        load_csv(write(tmp_path / "e.csv", ""), schema)
    with pytest.raises(DataError, match="no data rows"):
        load_csv(write(tmp_path / "e.csv", "a,y\n"), schema)
    with pytest.raises(DataError, match="missing from CSV header"):
        load_csv(write(tmp_path / "e.csv", "a,z\n1,2\n"), schema)
    with pytest.raises(DataError, match="not named in schema"):
        load_csv(write(tmp_path / "e.csv", "a,y,extra\n1,2,3\n"), schema)
    with pytest.raises(DataError, match="duplicate CSV header"):
        load_csv(write(tmp_path / "e.csv", "a,y,a\n1,2,3\n"), schema)
    with pytest.raises(DataError, match="row 2: expected 2 cells"):
        load_csv(write(tmp_path / "e.csv", "a,y\n1,0\n1\n"), schema)
    with pytest.raises(DataError, match="row 1: non-numeric"):
        load_csv(write(tmp_path / "e.csv", "a,y\nfoo,0\n"), schema)
    with pytest.raises(DataError, match="row 1: non-finite"):
        load_csv(write(tmp_path / "e.csv", "a,y\ninf,0\n"), schema)
    with pytest.raises(DataError, match="non-negative integer"):
        load_csv(write(tmp_path / "e.csv", "a,y\n1.0,0.5\n"), schema)
    with pytest.raises(DataError, match="non-negative integer"):
        load_csv(write(tmp_path / "e.csv", "a,y\n1.0,-1\n"), schema)
    # the same column is fine as a regression target
    ds = load_csv(write(tmp_path / "ok.csv", "a,y\n1.0,0.5\n2.0,1.5\n"),
                  schema, task="rank")
    assert np.array_equal(ds.targets, [0.5, 1.5])


def write_rows(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def test_load_csv_parses_cells_exactly_as_float(tmp_path):
    odd = ["1_0", " 2.5 ", "+3", "1e3", "-0.0", ".5"]
    rows = [["a", "c", "b", "y"]] + [[odd[i], f"k{i % 2}", odd[-1 - i], odd[i - 1]]
                                     for i in range(len(odd))]
    schema = {"a": "continuous", "b": "continuous", "c": "categorical", "y": "target"}
    ds = load_csv(write_rows(tmp_path / "odd.csv", rows), schema, task="rank")
    expected = np.array([[float(r[0]), 0.0, float(r[2])] for r in rows[1:]])
    assert ds.features.tobytes() == expected.tobytes()  # -0.0 keeps its sign
    assert ds.targets.tobytes() == np.array([float(r[3]) for r in rows[1:]]).tobytes()
    assert ds.cat_raw == {1: ["k0", "k1"] * 3}


LOAD_CSV_ERRORS = [
    # (a cell of column b, or a whole row, for row 2; task; the exact message)
    ("nan", "rank", "row 2: non-finite value 'nan' in continuous column 'b'"),
    ("inf", "rank", "row 2: non-finite value 'inf' in continuous column 'b'"),
    ("-1e999", "rank", "row 2: non-finite value '-1e999' in continuous column 'b'"),
    ("0x1p3", "rank", "row 2: non-numeric value '0x1p3' in continuous column 'b'"),
    ("", "rank", "row 2: non-numeric value '' in continuous column 'b'"),
    ("abc", "rank", "row 2: non-numeric value 'abc' in continuous column 'b'"),
    (["1.0", "x"], "rank", "row 2: expected 4 cells, got 2"),
    (["1.0", "x", "2.0", "0", "5"], "rank", "row 2: expected 4 cells, got 5"),
    (["1.0", "x", "2.0", "seven"], "rank",
     "row 2: non-numeric value 'seven' in continuous column 'y'"),
    (["1.0", "x", "2.0", "-1"], "class",
     "row 2: classification target must be a non-negative integer, got -1.0"),
    (["1.0", "x", "2.0", "0.5"], "class",
     "row 2: classification target must be a non-negative integer, got 0.5"),
    # an integral float the int64 cast would wrap to -2**63
    (["1.0", "x", "2.0", "1e20"], "class",
     "row 2: classification target must be at most 2**53, got 1e+20"),
    (["1.0", "x", "2.0", "9007199254740994"], "class",
     "row 2: classification target must be at most 2**53, got 9007199254740994.0"),
]


@pytest.mark.parametrize("bad,task,message", LOAD_CSV_ERRORS)
def test_load_csv_errors_name_the_first_bad_cell(tmp_path, bad, task, message):
    rows = [["a", "c", "b", "y"]] + [["1.0", "x", "2.0", "1"] for _ in range(6)]
    rows[2] = bad if isinstance(bad, list) else ["1.0", "x", bad, "1"]
    schema = {"a": "continuous", "b": "continuous", "c": "categorical", "y": "target"}
    variants = [rows]
    if task == "rank":
        # cells are checked in row-major order, so row 2's error is still the
        # one named when row 5's first cell is bad too (the class-target
        # check runs only once every cell has parsed)
        later = [row[:] for row in rows]
        later[5][0] = "bad"
        variants.append(later)
    for variant in variants:
        with pytest.raises(DataError) as err:
            load_csv(write_rows(tmp_path / "bad.csv", variant), schema, task=task)
        assert str(err.value) == message


def test_load_csv_keeps_a_class_target_of_two_to_the_53(tmp_path):
    schema = {"a": "continuous", "y": "target"}
    ds = load_csv(write(tmp_path / "big.csv", "a,y\n1.0,9007199254740992\n2.0,0\n"), schema)
    assert ds.targets.dtype == np.int64 and ds.targets.tolist() == [2 ** 53, 0]


def test_load_csv_rejects_an_overlong_field(tmp_path):
    # one field past the csv module's 131072-character limit, on line 3
    schema = {"a": "categorical", "y": "target"}
    path = write(tmp_path / "long.csv", "a,y\nx,0\n" + "x" * 131073 + ",1\n")
    with pytest.raises(DataError, match=r"long\.csv: line 3: .*field larger than field limit"):
        load_csv(path, schema)


def _outcome(load, path, schema, task):
    """What a loader makes of a file: the dataset's contents, or its DataError's text."""
    try:
        ds = load(path, schema, task=task)
    except DataError as e:
        return str(e)
    return (ds.features.tobytes(), ds.targets.tobytes(), ds.targets.dtype, ds.names,
            ds.kinds, ds.cat_raw)


PARITY_SCHEMA = {"a": "continuous", "b": "categorical", "c": "categorical", "y": "target"}
# cells every column takes: non-negative integral floats in all of float's spellings
CLEAN_CELLS = ["0", "1", "2", " 2 ", "1_0", "1e3", "-0.0", "+3", "7"]
BAD_CELLS = ["1.5", ".5", "-1", "1e20", "9007199254740994", "inf", "nan", "", "x", "0" * 17]
# digits, float syntax, letters, and every character the csv module treats specially
PARITY_ALPHABET = "0123456789.e-_ abxyzK,\"\r\n\0"


@st.composite
def csv_texts(draw):
    """A CSV text over PARITY_SCHEMA's columns: a clean file (the header in
    any column order, rows of cells that parse, one kind of line end) with
    one to three faults, some of them harmless: a bad cell, a cell of any
    characters, a quoted cell, a ragged or blank row, a cell moved to the
    next row, another line end, a wrong header, no rows, or a character the
    csv module treats specially put into a cell."""
    lines = [draw(st.permutations(list(PARITY_SCHEMA)))]
    lines += draw(st.lists(st.lists(st.sampled_from(CLEAN_CELLS), min_size=4, max_size=4),
                           min_size=1, max_size=6))
    ends = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    ends[-1] = draw(st.sampled_from([ends[0], ""]))
    for fault in draw(st.lists(st.integers(0, 9), min_size=1, max_size=3)):
        r = draw(st.integers(1 if len(lines) > 1 else 0, len(lines) - 1))  # a row if any
        cells = lines[r]
        i = draw(st.integers(0, max(len(cells) - 1, 0)))
        if fault == 0 and cells:
            cells[i] = draw(st.sampled_from(BAD_CELLS))
        elif fault == 1 and cells:
            cells[i] = draw(st.text(PARITY_ALPHABET, max_size=5))
        elif fault == 2 and cells:
            cells[i] = '"' + cells[i].replace('"', '""') + '"'
        elif fault == 3:
            lines[r] = cells[:-1] if draw(st.booleans()) else cells + ["0"]
        elif fault == 4:
            lines.insert(r + 1, [])
            ends.insert(r + 1, ends[r])
        elif fault == 5:
            ends[r] = draw(st.sampled_from(["\n", "\r\n", "\r", ""]))
        elif fault == 6:
            lines[0] = draw(st.lists(st.sampled_from(["a", "b", "c", "y", "z", ""]),
                                     min_size=1, max_size=5))
        elif fault == 7:
            del lines[1:], ends[1:]
        elif fault == 8 and cells and r + 1 < len(lines):
            lines[r + 1].insert(0, cells.pop())  # two ragged rows, the right cell count
        elif fault == 9 and cells:
            k = draw(st.integers(0, len(cells[i])))
            cells[i] = cells[i][:k] + draw(st.sampled_from('\r\n\0",')) + cells[i][k:]
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(",".join(cells) + end for cells, end in zip(lines, ends))


@pytest.fixture(scope="module")
def parity_file(tmp_path_factory):
    return tmp_path_factory.mktemp("parity") / "d.csv"


@settings(max_examples=400, deadline=None)
@given(text=csv_texts(), task=st.sampled_from(["class", "rank"]),
       limit=st.sampled_from([6, 16, 131072]))
# what the split path must leave to the csv module, drawn too rarely to trust to chance:
@example("a,b,c,y\n1,k\rx,x,0\n", "class", 16)  # a lone \r ends a row for the csv module
@example("a,b,c,y\n1,k,x,0\r", "class", 16)  # ... and is no part of the last cell
@example('a,b,c,y\n1,"k",x,0\n', "class", 16)  # quotes are not part of a cell
@example('a,b,c,y\n1,"k,x",x,0\n', "class", 16)  # ... nor is a comma between them
@example("a,b,c,y\n1,k,x,0\n\n", "class", 16)  # a blank line is a row of no cells
@example("a,b,c,y\n1,k,x\n0,1,k,x,0\n", "class", 16)  # two ragged rows of 8 cells
@example("a,b,c,y\n1,k,x,0\n1,k,xxxxxxxxxxxxxxxxx,0\n", "class", 16)  # a cell over the limit
@example("a,b,c,y\n1,k,x,0\n1,k,xxxxxxxxxxxx,0\n", "class", 16)  # a line, not a cell, over it
@example("a,b,c,y\n1,k\0,x,0\n", "class", 16)  # NUL: the csv module refuses it before 3.11
def test_load_csv_reads_every_text_as_the_csv_module_does(parity_file, text, task, limit):
    # a small csv.field_size_limit() makes over-limit lines cheap to draw
    parity_file.write_bytes(text.encode("utf-8"))
    old = csv.field_size_limit(limit)
    try:
        assert (_outcome(load_csv, parity_file, PARITY_SCHEMA, task)
                == _outcome(ref_load_csv, parity_file, PARITY_SCHEMA, task))
    finally:
        csv.field_size_limit(old)


def _benchmark_generator(monkeypatch):
    """``benchmarks/gen.py``, which writes the benchmark workloads' CSVs."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_gen", Path(__file__).resolve().parents[1] / "benchmarks" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclass looks itself up there
    spec.loader.exec_module(gen)
    return gen


def test_unquoted_files_never_reach_the_csv_module(tmp_path, monkeypatch):
    gen = _benchmark_generator(monkeypatch)
    lf, lf_schema = tmp_path / "lf.csv", tmp_path / "lf.schema"
    gen.generate(300, 1).write_csv(lf)  # the benchmark workloads' format: LF, no quotes
    gen.write_schema(lf_schema)
    crlf = tmp_path / "crlf.csv"
    synth = synth_generate(2, n=300, seed=4, task="class")
    synth.kinds[3] = "categorical"
    synth.cat_raw = {3: [f"k{i % 5}" for i in range(synth.n_rows)]}
    write_csv(synth, crlf, target_name="y")  # csv.writer: CRLF line ends
    assert b"\r\n" in crlf.read_bytes() and b"\r\n" not in lf.read_bytes()
    crlf_schema = {name: kind for name, kind in zip(synth.names, synth.kinds)}
    crlf_schema["y"] = "target"
    cases = [(lf, read_schema(lf_schema)), (crlf, crlf_schema)]
    expected = [_outcome(ref_load_csv, path, schema, "class") for path, schema in cases]

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader called")

    monkeypatch.setattr(csv, "reader", no_reader)
    for (path, schema), want in zip(cases, expected):
        got = _outcome(load_csv, path, schema, "class")
        assert not isinstance(got, str) and got == want


def _categorical(values, targets):
    return Dataset(features=np.zeros((len(values), 1)), targets=np.array(targets),
                   names=["cat"], kinds=["categorical"], task="rank", cat_raw={0: values})


def test_loo_encode_hand_example():
    targets = [1.0, 2.0, 3.0, 10.0, 20.0, 7.0]
    pp = PreprocessState()
    codes = pp.fit(_categorical(["a", "a", "a", "b", "b", "c"], targets)).features[:, 0]
    # each row sees the mean of the *other* rows in its category; the
    # singleton "c" falls back to the global mean
    assert np.allclose(codes, [2.5, 2.0, 1.5, 20.0, 10.0, np.mean(targets)])
    table = pp.loo_tables[0]
    assert table.means == {"a": 2.0, "b": 15.0, "c": 7.0}
    assert all(type(k) is str for k in table.means)
    assert table.global_mean == pytest.approx(np.mean(targets))
    assert list(pp.zstats.cols) == []  # categorical codes are not z-scored

    applied = pp.apply(_categorical(["b", "zzz", "a"], [0.0] * 3)).features[:, 0]
    assert np.allclose(applied, [15.0, table.global_mean, 2.0])


def test_zscore_fit_and_apply():
    x = np.array([[1.0, 100.0], [3.0, 100.0], [5.0, 100.0]])

    def cont(features):
        return Dataset(features=features, targets=np.zeros(len(features)), names=["a", "b"],
                       kinds=["continuous"] * 2, task="rank")

    pp = PreprocessState()
    out = pp.fit(cont(x)).features
    assert np.allclose(out[:, 0], (x[:, 0] - 3.0) / x[:, 0].std())
    assert np.array_equal(out[:, 1], np.zeros(3))  # constant column zeroed
    assert np.array_equal(x, [[1.0, 100.0], [3.0, 100.0], [5.0, 100.0]])
    assert list(pp.zstats.cols) == [0, 1]

    fresh = pp.apply(cont(np.array([[3.0, 7.0]]))).features
    assert fresh[0, 0] == 0.0 and fresh[0, 1] == 0.0


def test_preprocess_state_fit_apply_consistency(tmp_path):
    csv_p = write(tmp_path / "d.csv", "num,cat,y\n" + "".join(
        f"{v},{c},{t}\n" for v, c, t in
        [(1.0, "a", 0), (2.0, "a", 1), (3.0, "b", 1), (4.0, "b", 0),
         (5.0, "a", 1), (6.0, "b", 1)]))
    schema = {"num": "continuous", "cat": "categorical", "y": "target"}
    ds = load_csv(csv_p, schema, task="class")
    pp = PreprocessState()
    train = pp.fit(ds)
    assert not train.cat_raw
    assert abs(train.features[:, 0].mean()) <= 1e-12
    assert abs(train.features[:, 0].std() - 1.0) <= 1e-12

    # apply reuses training statistics: unlike fit, every "a" row lands on
    # the full per-category mean (no own-row exclusion), and only the column
    # declared continuous is z-scored
    applied = pp.apply(ds)
    cat_codes = applied.features[:, 1]
    a_mean = pp.loo_tables[1].means["a"]
    assert np.allclose(cat_codes[[0, 1, 4]], a_mean)
    assert list(pp.zstats.cols) == [0]

    with pytest.raises(DataError, match="fit before apply"):
        PreprocessState().apply(ds)

    # a dataset unlike the fit one: a column fewer, or the categorical one
    # declared continuous
    def like(cols, kinds):
        return Dataset(features=ds.features[:, cols], targets=ds.targets,
                       names=[ds.names[j] for j in cols], kinds=kinds, task="class")

    with pytest.raises(DataError, match="1 feature columns, fit saw 2"):
        pp.apply(like([0], ["continuous"]))
    with pytest.raises(DataError, match="categorical columns differ"):
        pp.apply(like([0, 1], ["continuous", "continuous"]))


def test_preprocess_zscore_covers_encoded_categoricals():
    # after encoding, every feature column is numeric; only the columns
    # declared continuous get normalized
    ds = Dataset(features=np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]),
                 targets=np.array([1.0, 2.0, 3.0]),
                 names=["num", "cat"], kinds=["continuous", "categorical"],
                 task="rank", cat_raw={1: ["x", "y", "x"]})
    pp = PreprocessState()
    out = pp.fit(ds)
    assert list(pp.zstats.cols) == [0]
    # fit codes leave out the own row: the other "x" row has target 3.0, the
    # singleton "y" falls back to the global mean; neither gets z-scored
    assert out.features[0, 1] == 3.0
    assert out.features[1, 1] == pp.loo_tables[1].global_mean
    assert out.features[2, 1] == 1.0


def test_stratified_split_proportions_and_determinism():
    rng = Rng(0)
    y = np.array([0] * 60 + [1] * 40)
    ds = Dataset(features=rng.standard_normal((100, 3)), targets=y,
                 names=["a", "b", "c"], kinds=["continuous"] * 3, task="class")
    t1, v1 = stratified_split(ds, frac=0.2, seed=5)
    t2, v2 = stratified_split(ds, frac=0.2, seed=5)
    assert np.array_equal(v1.features, v2.features)
    assert v1.n_rows == 20 and t1.n_rows == 80
    assert int((v1.targets == 0).sum()) == 12 and int((v1.targets == 1).sum()) == 8
    # no row in both splits, all rows covered
    assert t1.n_rows + v1.n_rows == 100
    _, v3 = stratified_split(ds, frac=0.2, seed=6)
    assert not np.array_equal(v1.features, v3.features)  # seed matters


def test_stratified_split_rank_and_errors():
    rng = Rng(1)
    ds = Dataset(features=rng.standard_normal((10, 2)), targets=rng.standard_normal(10),
                 names=["a", "b"], kinds=["continuous"] * 2, task="rank")
    t, v = stratified_split(ds, frac=0.3, seed=0)
    assert v.n_rows == 3 and t.n_rows == 7
    with pytest.raises(DataError):
        stratified_split(ds, frac=0.0)
    tiny = Dataset(features=np.zeros((3, 1)), targets=np.array([0, 0, 1]),
                   names=["a"], kinds=["continuous"], task="class")
    with pytest.raises(DataError, match="class 1 has only 1"):
        stratified_split(tiny, frac=0.4)


def test_synth_formula_values():
    x = np.zeros((1, 11))
    x[0, 2:6] = 1.0
    assert FORMULAS[1](x)[0] == 4.0  # sum of four unit squares

    x = np.zeros((1, 11))
    x[0, 0] = 1.0  # |log|1 - 0|| = 0, cos(0 + sin 0) = 1
    assert abs(FORMULAS[2](x)[0] - 1.0) <= 1e-7

    x = np.zeros((1, 11))
    x[0, 6] = 2.0
    x[0, 7] = 3.0  # one pair sums to 5, the other to 0
    expect = -10.0 * np.sin(0.5) + 25.0
    assert abs(FORMULAS[3](x)[0] - expect) <= 1e-12

    x = np.zeros((2, 11))
    x[:, 2:6] = 1.0
    x[0, 1] = -1.0  # negative switch column: quadratic branch
    x[1, 1] = +1.0  # positive: logarithm branch
    y = FORMULAS[4](x)
    assert y[0] == 4.0
    assert y[1] == FORMULAS[2](x[1:])[0]


def test_synth_generate_shapes_and_guard():
    ds = synth_generate(2, n=500, seed=3)
    assert ds.features.shape == (500, 11)
    assert np.all(np.abs(ds.features[:, 0] - ds.features[:, 2]) >= 1e-300)
    assert np.all(np.isfinite(ds.targets))
    again = synth_generate(2, n=500, seed=3)
    assert np.array_equal(ds.features, again.features)
    other = synth_generate(2, n=500, seed=4)
    assert not np.array_equal(ds.features, other.features)


def test_synth_classification_binarizes_at_the_median():
    ds = synth_generate(1, n=1001, seed=5, task="class")
    scores = FORMULAS[1](ds.features)
    assert np.array_equal(ds.targets, (scores > np.median(scores)).astype(np.int64))
    counts = np.bincount(ds.targets)
    assert abs(int(counts[0]) - int(counts[1])) <= 1  # near-balanced


def test_synth_generate_errors():
    with pytest.raises(DataError):
        synth_generate(5)
    with pytest.raises(DataError):
        synth_generate(1, n=0)
    with pytest.raises(DataError):
        synth_generate(1, task="other")
    with pytest.raises(DataError, match="seed must be >= 0, got -3"):
        synth_generate(1, seed=-3)


def test_write_csv_round_trips_exactly(tmp_path):
    ds = synth_generate(3, n=50, seed=6, task="rank")
    path = tmp_path / "synth.csv"
    write_csv(ds, path, target_name="y")
    schema = {name: "continuous" for name in ds.names}
    schema["y"] = "target"
    back = load_csv(path, schema, task="rank")
    assert np.array_equal(back.features, ds.features)  # repr is value-exact
    assert np.array_equal(back.targets, ds.targets)


def test_write_csv_categorical_and_collision(tmp_path):
    ds = Dataset(features=np.array([[1.5, 0.0]]), targets=np.array([1]),
                 names=["num", "cat"], kinds=["continuous", "categorical"],
                 task="class", cat_raw={1: ["hello, world"]})
    path = tmp_path / "c.csv"
    write_csv(ds, path, target_name="y")
    text = path.read_text()
    assert '"hello, world"' in text  # embedded comma quoted per RFC 4180
    with pytest.raises(DataError, match="collides"):
        write_csv(ds, path, target_name="cat")


def test_dataset_validation_and_subset():
    with pytest.raises(DataError):
        Dataset(features=np.zeros(3), targets=np.zeros(3), names=["a"],
                kinds=["continuous"], task="rank")
    with pytest.raises(DataError):
        Dataset(features=np.zeros((3, 1)), targets=np.zeros(2), names=["a"],
                kinds=["continuous"], task="rank")
    with pytest.raises(DataError):
        Dataset(features=np.zeros((3, 2)), targets=np.zeros(3), names=["a"],
                kinds=["continuous", "continuous"], task="rank")
    ds = Dataset(features=np.arange(6.0).reshape(3, 2), targets=np.array([1., 2., 3.]),
                 names=["a", "b"], kinds=["continuous", "categorical"], task="rank",
                 cat_raw={1: ["x", "y", "z"]})
    sub = ds.subset([2, 0])
    assert np.array_equal(sub.features, [[4.0, 5.0], [0.0, 1.0]])
    assert sub.cat_raw == {1: ["z", "x"]}
    sub.features[0, 0] = 99.0
    assert ds.features[2, 0] == 4.0  # subset copies
    masked = ds.subset(np.array([True, False, True]))
    assert np.array_equal(masked.features, [[0.0, 1.0], [4.0, 5.0]])
    assert masked.cat_raw == {1: ["x", "z"]} and np.array_equal(masked.targets, [1.0, 3.0])
    for bad in ([0.0, 2.0], [True, False], [[0], [2]]):  # floats, a short mask, 2-D
        with pytest.raises(DataError, match="integer positions or a boolean mask of 3 rows"):
            ds.subset(bad)


@pytest.mark.parametrize("targets", [np.array([0.0, 1.0, 1.0]), np.array([False, True, True])],
                         ids=["float", "bool"])
def test_dataset_rejects_non_integer_class_targets(targets):
    # class labels index the logits; a float label used to pass here and end
    # in numpy's IndexError at the first training ghost
    with pytest.raises(DataError, match="classification targets must be integers"):
        Dataset(features=np.zeros((3, 1)), targets=targets, names=["a"],
                kinds=["continuous"], task="class")
    Dataset(features=np.zeros((3, 1)), targets=targets, names=["a"],
            kinds=["continuous"], task="rank")  # the check is for class labels only


@pytest.mark.parametrize("cat_raw, msg", [
    ({2: ["x", "y", "z"]}, "not a categorical column index"),  # no such column
    ({0: ["x", "y", "z"]}, "not a categorical column index"),  # a continuous column
    ({"1": ["x", "y", "z"]}, "not a categorical column index"),  # a name, not an index
    ({1.0: ["x", "y", "z"]}, "not a categorical column index"),  # not an integer
    ({1: ["x", "y"]}, r"cat_raw\[1\] holds 2 values for 3 rows"),
], ids=["out-of-range", "continuous-column", "string-key", "float-key", "short-list"])
def test_dataset_rejects_cat_raw_that_does_not_fit_its_columns(cat_raw, msg):
    with pytest.raises(DataError, match=msg):
        Dataset(features=np.zeros((3, 2)), targets=np.zeros(3), names=["a", "b"],
                kinds=["continuous", "categorical"], task="rank", cat_raw=cat_raw)
