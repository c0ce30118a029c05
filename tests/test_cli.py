"""End-to-end command-line behavior: config precedence, the train/eval/
compress cycle, reports, and exit codes."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import danet.cli
from danet import (AbstractUnit, DANet, DANetConfig, Rng, TrainConfig, count_flops, entmax15,
                   load_model, save_model)
from danet.reparam import compressed_like
from danet.cli import _KEYS, ConfigError, build_parser, main, parse_config_file, resolve_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_config_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# full line comment\n"
                 "depth = 4   # trailing comment\n"
                 "lr0=0.004\n"
                 "\n"
                 "task = rank\n", encoding="utf-8")
    assert parse_config_file(p) == {"depth": 4, "lr0": 0.004, "task": "rank"}


def test_parse_config_file_reads_a_byte_order_mark_as_nothing(tmp_path):
    p = tmp_path / "bom.cfg"
    p.write_text("\ufeffdepth = 4\n", encoding="utf-8")
    assert parse_config_file(p) == {"depth": 4}


def test_parse_config_file_errors(tmp_path):
    p = tmp_path / "bad.cfg"
    for text, msg in (("depth 4", "expected 'key = value'"),
                      ("verbosity = 3", "unknown config key"),
                      # a constant of the recipe, like QHAdam's, not a key
                      ("weight_decay = 0", "unknown config key 'weight_decay'"),
                      ("depth = 4\ndepth = 6", "duplicate config key"),
                      ("depth = four", "cannot parse")):
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=msg):
            parse_config_file(p)


def test_flag_beats_config_beats_default(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("depth = 4\nk0 = 3\nlr0 = 0.001\n", encoding="utf-8")
    args = build_parser().parse_args(
        ["train", "--config", str(cfg_file), "--depth", "6"])
    cfg = resolve_config(args)
    assert cfg.depth == 6          # flag wins
    assert cfg.k0 == 3             # config file wins over default
    assert cfg.lr0 == 0.001        # config-file-only key
    assert cfg.d0 == 32            # untouched default


@pytest.mark.parametrize("key", sorted(_KEYS))
def test_every_key_is_a_flag_that_beats_the_file_that_beats_the_default(key, tmp_path):
    kind, default = _KEYS[key]
    if kind is str:
        in_file, in_flag = "from-file", "from-flag"
    else:
        in_file, in_flag = kind(default + 1), kind(default + 2)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = {in_file}\n", encoding="utf-8")
    parse = build_parser().parse_args
    assert getattr(resolve_config(parse(["train"])), key) == default
    from_file = getattr(resolve_config(parse(["train", "--config", str(cfg_file)])), key)
    assert from_file == in_file and type(from_file) is kind
    from_flag = getattr(resolve_config(parse(
        ["train", "--config", str(cfg_file), f"--{key}", str(in_flag)])), key)
    assert from_flag == in_flag and type(from_flag) is kind


@pytest.mark.parametrize("key, raw", [("depth", "x"), ("batch_size", "1.5"),
                                      ("lr0", "fast"), ("valid_frac", "")])
def test_a_bad_value_is_one_error_whether_flag_or_file(key, raw, tmp_path, capsys):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(f"{key} = {raw}\n", encoding="utf-8")
    errors = []
    for argv in (["train", f"--{key}", raw], ["train", "--config", str(cfg_file)]):
        code, _, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1
        errors.append(err)
    assert errors[0] == errors[1] == (
        f"error: config key {key!r}: cannot parse {raw!r} as {_KEYS[key][0].__name__}\n")


def test_train_help_names_every_key_and_its_default(capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["train", "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's wrapping
    for key, (_, default) in _KEYS.items():
        assert f"--{key} " in text
        assert ("no default" if default is None else f"default {default}") in text, key


def test_defaults_are_the_config_dataclass_defaults():
    cfg = vars(resolve_config(build_parser().parse_args(["train"])))
    assert sorted(cfg) == sorted([
        "data", "schema", "out", "valid_frac", "task", "seed", "depth", "k0", "d0",
        "d1", "dropout", "head_hidden", "ghost_size", "batch_size", "lr0",
        "max_epochs", "patience"])
    for defaults in (TrainConfig(), DANetConfig()):
        for f in fields(defaults):
            if f.name != "num_classes":
                assert cfg[f.name] == getattr(defaults, f.name), f.name
    assert cfg["valid_frac"] == 0.2
    assert cfg["data"] is cfg["schema"] is cfg["out"] is None


def test_readme_key_table_lists_the_resolved_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| keys | defaults |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for span in re.findall(r"`([^`]*)`", re.sub(r"\([^)]*\)", "", table)):  # no asides
        for item in span.split(", "):
            key, _, value = item.partition(" ")
            listed[key] = value or None
    cfg = vars(resolve_config(build_parser().parse_args(["train"])))
    assert sorted(listed) == sorted(cfg)
    for key, value in listed.items():
        default = cfg[key]
        if default is not None and not isinstance(default, str):
            value = type(default)(value)
        assert value == default, key


def test_the_docs_name_the_parsers_subcommands():
    parser_help = build_parser().format_help()
    commands = set(re.search(r"\{([\w,-]+)\}", parser_help).group(1).split(","))
    doc = re.search(r"Subcommands: ([^.]+)\.", " ".join(danet.cli.__doc__.split())).group(1)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    layout = re.search(r"^  cli\.py +(.+)$", readme, re.M).group(1)
    quick = readme.split("## Quick start (CLI)\n\n```bash\n", 1)[1].split("```", 1)[0]
    assert set(doc.split(", ")) == commands
    assert set(layout.split(" / ")) == commands
    assert set(re.findall(r"^danet (\S+)", quick, re.M)) == commands


def test_synth_writes_csv_and_schema(tmp_path, capsys):
    out = tmp_path / "f1.csv"
    schema_out = tmp_path / "f1.schema"
    code, stdout, _ = run(capsys, "synth", "--formula", "1", "--n", "50",
                          "--seed", "7", "--task", "class",
                          "--out", str(out), "--schema-out", str(schema_out))
    assert code == 0
    assert "wrote 50 rows" in stdout
    header = out.read_text().splitlines()[0]
    assert header == ",".join([f"v{i}" for i in range(11)] + ["target"])
    lines = schema_out.read_text().splitlines()
    assert lines[0] == "v0=continuous" and lines[-1] == "target=target"

    twin = tmp_path / "f1b.csv"
    run(capsys, "synth", "--formula", "1", "--n", "50", "--seed", "7",
        "--task", "class", "--out", str(twin))
    assert out.read_bytes() == twin.read_bytes()  # same seed, same bytes

    other = tmp_path / "f1c.csv"
    run(capsys, "synth", "--formula", "1", "--n", "50", "--seed", "8",
        "--task", "class", "--out", str(other))
    assert out.read_bytes() != other.read_bytes()


def test_synth_rejects_bad_formula(capsys, tmp_path):
    with pytest.raises(SystemExit):  # argparse enforces the choices
        main(["synth", "--formula", "9", "--out", str(tmp_path / "x.csv")])
    capsys.readouterr()  # drop the usage text
    code, _, err = run(capsys, "synth", "--formula", "1", "--n", "0",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1 and err.startswith("error:")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small end-to-end training run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    schema = root / "data.schema"
    assert main(["synth", "--formula", "1", "--n", "240", "--seed", "5",
                 "--task", "class", "--out", str(data),
                 "--schema-out", str(schema)]) == 0
    cfg = root / "run.cfg"
    cfg.write_text(
        "task = class\ndepth = 2\nk0 = 1\nd0 = 4\nd1 = 8\n"
        "ghost_size = 32\nbatch_size = 64\nmax_epochs = 4\npatience = 10\n"
        f"seed = 3\ndata = {data}\nschema = {schema}\n", encoding="utf-8")
    out_dir = root / "run1"
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    return root, cfg, out_dir, data, schema


def test_train_writes_artifacts_and_summary(trained, capsys):
    _, cfg, out_dir, _, _ = trained
    capsys.readouterr()
    assert (out_dir / "model.danet").exists()
    history = (out_dir / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,lr,train_loss,valid_metric"
    assert len(history) == 1 + 4  # header + max_epochs rows
    line = (out_dir / "metrics.txt").read_text().strip()
    assert line.startswith("dataset=data depth=2 k0=1 d0=4 d1=8 seed=3 accuracy=")
    assert "valid_accuracy=" in line and line.endswith("epochs=4")


def test_train_is_byte_reproducible(trained, tmp_path, capsys):
    root, cfg, out_dir, _, _ = trained
    twin = tmp_path / "run2"
    code, _, _ = run(capsys, "train", "--config", str(cfg), "--out", str(twin))
    assert code == 0
    assert (out_dir / "model.danet").read_bytes() == (twin / "model.danet").read_bytes()
    assert (out_dir / "history.csv").read_bytes() == (twin / "history.csv").read_bytes()
    assert (out_dir / "metrics.txt").read_bytes() == (twin / "metrics.txt").read_bytes()


def test_eval_agrees_with_the_training_summary(trained, capsys):
    _, _, out_dir, data, _ = trained
    code, stdout, _ = run(capsys, "eval", "--model", str(out_dir / "model.danet"),
                          "--data", str(data))
    assert code == 0
    reported = dict(kv.split("=") for kv in
                    (out_dir / "metrics.txt").read_text().split())
    assert stdout.strip() == f"accuracy={reported['accuracy']}"


def test_eval_with_explicit_schema(trained, capsys):
    _, _, out_dir, data, schema = trained
    code, stdout, _ = run(capsys, "eval", "--model", str(out_dir / "model.danet"),
                          "--data", str(data), "--schema", str(schema))
    assert code == 0 and stdout.startswith("accuracy=")


def test_eval_with_a_schema_narrower_than_the_model_fails_cleanly(trained, tmp_path, capsys):
    _, _, out_dir, data, _ = trained
    rows = [line.split(",") for line in data.read_text().splitlines()]
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("\n".join(",".join(r[1:]) for r in rows) + "\n")  # v0 dropped
    schema = tmp_path / "narrow.schema"
    schema.write_text("".join(f"{n}=continuous\n" for n in rows[0][1:-1]) + "target=target\n")
    code, _, err = run(capsys, "eval", "--model", str(out_dir / "model.danet"),
                       "--data", str(narrow), "--schema", str(schema))
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1
    assert "10 feature columns, fit saw 11" in err


def _swap_columns(src, dst, a: int, b: int):
    # the CSV with columns a and b swapped, header and values together
    rows = [line.split(",") for line in src.read_text().splitlines()]
    for r in rows:
        r[a], r[b] = r[b], r[a]
    dst.write_text("\n".join(",".join(r) for r in rows) + "\n")
    return rows[0]


def test_eval_reads_the_csv_columns_by_name(trained, tmp_path, capsys):
    _, _, out_dir, data, schema = trained
    model = str(out_dir / "model.danet")
    _, line, _ = run(capsys, "eval", "--model", model, "--data", str(data))
    swapped = tmp_path / "swapped.csv"
    assert _swap_columns(data, swapped, 0, 3)[:4] == ["v3", "v1", "v2", "v0"]
    for extra in ((), ("--schema", str(schema))):
        code, out, err = run(capsys, "eval", "--model", model, "--data", str(swapped), *extra)
        assert (code, out, err) == (0, line, "")


def test_eval_with_a_schema_that_renames_a_column_fails_cleanly(trained, tmp_path, capsys):
    _, _, out_dir, data, _ = trained
    rows = [line.split(",") for line in data.read_text().splitlines()]
    rows[0][0] = "w0"
    renamed = tmp_path / "renamed.csv"
    renamed.write_text("\n".join(",".join(r) for r in rows) + "\n")
    schema = tmp_path / "renamed.schema"
    schema.write_text("".join(f"{n}=continuous\n" for n in rows[0][:-1]) + "target=target\n")
    code, out, err = run(capsys, "eval", "--model", str(out_dir / "model.danet"),
                         "--data", str(renamed), "--schema", str(schema))
    assert code == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "['w0', 'v1'," in err and "['v0', 'v1'," in err


def test_eval_requires_a_schema_from_somewhere(tmp_path, capsys):
    model = DANet(11, DANetConfig(depth=2, k0=1, d0=2, d1=2), seed=0)
    bare = tmp_path / "bare.danet"
    save_model(bare, model)  # no feature names, no target, no preprocess
    data = tmp_path / "d.csv"
    main(["synth", "--formula", "1", "--n", "20", "--task", "class",
          "--out", str(data)])
    capsys.readouterr()
    code, _, err = run(capsys, "eval", "--model", str(bare), "--data", str(data))
    assert code == 1 and "no feature schema" in err


def test_compress_preserves_the_metric(trained, tmp_path, capsys):
    _, _, out_dir, data, _ = trained
    small = tmp_path / "small.danet"
    code, stdout, _ = run(capsys, "compress", "--model", str(out_dir / "model.danet"),
                          "--out", str(small))
    assert code == 0
    assert "original_flops=" in stdout and "reduction=" in stdout

    _, live_out, _ = run(capsys, "eval", "--model", str(out_dir / "model.danet"),
                         "--data", str(data))
    _, folded_out, _ = run(capsys, "eval", "--model", str(small), "--data", str(data))
    assert live_out == folded_out

    code, _, err = run(capsys, "compress", "--model", str(small),
                       "--out", str(tmp_path / "again.danet"))
    assert code == 1 and "already compressed" in err
    code, stdout, _ = run(capsys, "inspect", "--model", str(small))
    assert code == 0 and stdout.startswith("masks: folded away in a compressed model\n")


def test_compress_refuses_a_model_that_never_trained(tmp_path, capsys):
    # its batch norms still hold their initial statistics; predict folds
    # them, but a compressed container would keep them for good
    fresh = tmp_path / "fresh.danet"
    save_model(fresh, DANet(5, DANetConfig(depth=2, k0=1, d0=2, d1=2), seed=0))
    out = tmp_path / "small.danet"
    code, stdout, err = run(capsys, "compress", "--model", str(fresh), "--out", str(out))
    assert code == 1 and stdout == "" and err.startswith("error:") and err.count("\n") == 1
    assert "block0.main1.u0.bn1 running statistics are unpopulated" in err
    assert not out.exists()


def test_eval_prints_the_same_line_with_blas_pinned_or_not(trained, tmp_path, capsys):
    # BLAS reads its thread count once, at load, so each setting gets its
    # own interpreter; pinned, predict scores the blocks after the first on
    # a pool (one thread per CPU), unpinned on one thread
    _, _, out_dir, _, _ = trained
    data = tmp_path / "wide.csv"
    rows = 2 * danet.network.PREDICT_BLOCK + 5
    assert main(["synth", "--formula", "1", "--n", str(rows), "--seed", "9",
                 "--task", "class", "--out", str(data)]) == 0
    capsys.readouterr()
    env = dict(os.environ)
    src = str(Path(danet.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("OMP_NUM_THREADS", None)
    argv = [sys.executable, "-m", "danet.cli", "eval", "--model",
            str(out_dir / "model.danet"), "--data", str(data)]
    lines = []
    for pinned in (True, False):
        env.pop("OPENBLAS_NUM_THREADS", None)
        if pinned:
            env["OPENBLAS_NUM_THREADS"] = "1"
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        lines.append(proc.stdout)
    assert lines[0] == lines[1] and re.fullmatch(r"accuracy=[0-9.]+\n", lines[0])


def test_train_writes_the_same_model_with_blas_pinned_or_not(trained, tmp_path):
    # pinned, each step's ghosts run on a pool of forked workers (one per
    # CPU), unpinned in one process; both must write the same bytes. The
    # timeout turns a pool that hangs into a failure
    root, cfg, _, _, _ = trained
    env = dict(os.environ)
    src = str(Path(danet.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("OMP_NUM_THREADS", None)
    blobs = []
    for pinned in (True, False):
        env.pop("OPENBLAS_NUM_THREADS", None)
        if pinned:
            env["OPENBLAS_NUM_THREADS"] = "1"
        out = tmp_path / f"pinned{pinned}"
        proc = subprocess.run([sys.executable, "-m", "danet.cli", "train", "--config", str(cfg),
                               "--out", str(out)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        blobs.append(((out / "model.danet").read_bytes(), (out / "history.csv").read_bytes()))
    assert blobs[0] == blobs[1]


def inspect_report(capsys, path):
    """``danet inspect`` output as (mask lines, table rows split into cells)."""
    code, stdout, err = run(capsys, "inspect", "--model", str(path))
    assert code == 0 and err == ""
    lines = stdout.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("layer "))
    return lines[:at], [line.split() for line in lines[at:]]


def test_inspect_names_the_raw_units_features_and_fresh_masks_are_uniform(tmp_path, capsys):
    model = DANet(5, DANetConfig(depth=4, k0=2, d0=3, d1=4), seed=1)
    path = tmp_path / "fresh.danet"
    save_model(path, model, feature_names=list("abcde"),
               feature_kinds=["continuous"] * 5, target_name="y")
    masks, _ = inspect_report(capsys, path)
    units = [(prefix[:-1], u) for prefix, u in model.walk() if isinstance(u, AbstractUnit)]
    assert [line.split()[0] for line in masks] == [label for label, _ in units]
    raw = [line for line in masks if line.split()[1] == "support=5/5"]
    assert [line.split()[0] for line in raw] == [
        "block0.main1.u0", "block0.main1.u1", "block0.shortcut.u0", "block0.shortcut.u1",
        "block1.shortcut.u0", "block1.shortcut.u1"]
    for line, (_, unit) in zip(masks, units):  # zero-init logits spread mass evenly
        cells = [cell.split("=") for cell in line.split()[2:]]
        names = "abcde" if line in raw else [f"f{j}" for j in range(unit.in_dim)]
        assert [n for n, _ in cells] == list(names)
        assert np.allclose([float(p) for _, p in cells], 1.0 / unit.in_dim)


def test_inspect_mask_probabilities_are_the_units_entmax_bit_for_bit(trained, tmp_path, capsys):
    _, _, out_dir, _, _ = trained
    bundle = load_model(out_dir / "model.danet")
    masks, _ = inspect_report(capsys, out_dir / "model.danet")
    units = [u for _, u in bundle.model.walk() if isinstance(u, AbstractUnit)]
    assert len(masks) == len(units)
    for line, unit, raw in zip(masks, units, [True, False, True]):
        probs = entmax15(unit.mask_logits).probs
        names = bundle.feature_names if raw else [f"f{j}" for j in range(unit.in_dim)]
        kept = [f"{n}={float(p)!r}" for n, p in zip(names, probs) if p > 0]
        assert line.split()[1:] == [f"support={len(kept)}/{unit.in_dim}"] + kept
        assert [float(cell.split("=")[1]) for cell in line.split()[2:]] == list(probs[probs > 0])
    # with no feature names in the container, the raw units read f0, f1, ...
    bare = tmp_path / "bare.danet"
    save_model(bare, bundle.model)
    bare_masks, _ = inspect_report(capsys, bare)
    assert bare_masks == [re.sub(r" v(\d+)=", r" f\1=", line) for line in masks]
    assert bare_masks != masks


def test_inspect_flop_table_is_count_flops_live_and_folded(trained, capsys):
    _, _, out_dir, _, _ = trained
    model = load_model(out_dir / "model.danet").model
    _, table = inspect_report(capsys, out_dir / "model.danet")
    live, folded = count_flops(model), count_flops(compressed_like(model))
    assert table[0] == ["layer", "original", "compressed"]
    assert table[1:-2] == [[name, str(n), str(nf)]
                           for (name, n), (_, nf) in zip(live.lines, folded.lines)]
    assert table[-2] == ["total", str(live.total), str(folded.total)]
    assert folded.total < live.total
    assert table[-1] == [f"reduction={100.0 * (1.0 - folded.total / live.total):.2f}%"]


def test_inspect_on_a_compressed_model_prints_one_column(trained, tmp_path, capsys):
    _, _, out_dir, _, _ = trained
    small = tmp_path / "c.danet"
    run(capsys, "compress", "--model", str(out_dir / "model.danet"),
        "--out", str(small))
    masks, table = inspect_report(capsys, small)
    assert masks == ["masks: folded away in a compressed model"]
    report = count_flops(load_model(small).model)
    live = load_model(out_dir / "model.danet").model
    assert report.lines == count_flops(compressed_like(live)).lines
    assert table == ([["layer", "compressed"]] + [[name, str(n)] for name, n in report.lines]
                     + [["total", str(report.total)]])


def test_inspect_takes_only_a_model(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["inspect", "--help"])
    assert set(re.findall(r"--\w+", capsys.readouterr().out)) == {"--help", "--model"}


def test_inspect_into_a_closed_pipe_exits_quietly(tmp_path):
    # a reader that stops after one line, as `danet inspect ... | head -1`
    # does; the report is far longer than a pipe holds, so the writer meets
    # the closed pipe for certain
    n = 1000
    model = DANet(n, DANetConfig(depth=2, k0=4, d0=2, d1=2), seed=1)
    path = tmp_path / "wide.danet"
    save_model(path, model, feature_names=[f"feature_{j:04d}" for j in range(n)],
               feature_kinds=["continuous"] * n, target_name="y")
    env = dict(os.environ)
    src = str(Path(danet.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "danet.cli", "inspect", "--model", str(path)]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read()
    proc.stderr.close()
    assert first.startswith(f"block0.main1.u0 support={n}/{n} feature_0000=".encode())
    assert code == 1 and err == b""


def test_train_requires_data_schema_out(capsys):
    code, _, err = run(capsys, "train")
    assert code == 1 and "required" in err


def test_unknown_config_key_fails_the_run(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("depht = 4\n", encoding="utf-8")
    code, _, err = run(capsys, "train", "--config", str(cfg))
    assert code == 1 and "unknown config key" in err


def test_train_rejects_a_validation_split_that_rounds_to_zero(tmp_path, capsys):
    data, schema = tmp_path / "d.csv", tmp_path / "d.schema"
    assert main(["synth", "--formula", "1", "--n", "40", "--seed", "2", "--task", "class",
                 "--out", str(data), "--schema-out", str(schema)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("valid_frac = 0.01\ndepth = 2\nk0 = 1\nd0 = 2\nd1 = 2\n"
                   "ghost_size = 8\nbatch_size = 16\nmax_epochs = 2\n", encoding="utf-8")
    capsys.readouterr()
    code, _, err = run(capsys, "train", "--config", str(cfg), "--data", str(data),
                       "--schema", str(schema), "--out", str(tmp_path / "run"))
    assert code == 1 and err.startswith("error:") and "empty validation set" in err
    assert not (tmp_path / "run" / "model.danet").exists()

    # the labels must be exactly 0..C-1 with C >= 2: one class, even when it
    # is not 0, has nothing to classify, and a gap must fail before a head
    # of max + 1 logits is built ((100000001, 8) here: 6 GB)
    lines = data.read_text().splitlines()
    relabelled = tmp_path / "relabelled.csv"
    for label_of_row, msg in ((lambda i: 0, "need at least 2 classes, found 1"),
                              (lambda i: 1, "need at least 2 classes, found 1"),
                              (lambda i: 100_000_000 if i < 2 else i % 2,
                               "0..C-1 without gaps, found 3 distinct labels, the largest 100000000")):
        rows = [line.rsplit(",", 1)[0] + f",{label_of_row(i)}" for i, line in enumerate(lines[1:])]
        relabelled.write_text("\n".join([lines[0]] + rows) + "\n")
        code, _, err = run(capsys, "train", "--config", str(cfg), "--data", str(relabelled),
                           "--schema", str(schema), "--out", str(tmp_path / "run"))
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1
        assert msg in err
        assert not (tmp_path / "run" / "model.danet").exists()


def test_train_fails_on_an_unusable_out_before_it_trains(trained, tmp_path, capsys,
                                                         monkeypatch):
    # an --out that names a file fails at once, not after the whole fit
    _, cfg, _, _, _ = trained
    reached = []
    monkeypatch.setattr(danet.cli, "fit", lambda *a: reached.append(a) or 1 / 0)
    out = tmp_path / "taken"
    out.write_text("not a directory\n", encoding="utf-8")
    code, _, err = run(capsys, "train", "--config", str(cfg), "--out", str(out))
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1
    assert str(out) in err and not reached


def test_missing_files_exit_cleanly(tmp_path, capsys):
    code, _, err = run(capsys, "eval", "--model", str(tmp_path / "nope.danet"),
                       "--data", str(tmp_path / "nope.csv"))
    assert code == 1 and err.startswith("error:")


def test_eval_rejects_preprocessing_that_does_not_fit_the_model(trained, tmp_path, capsys):
    _, _, out_dir, data, _ = trained
    magic, line, tensors = (out_dir / "model.danet").read_bytes().split(b"\n", 2)
    manifest = json.loads(line)
    assert manifest["preprocess"]["zscore"]["cols"] == list(range(11))
    manifest["preprocess"]["zscore"]["cols"][-1] = 19
    bad = tmp_path / "bad.danet"
    bad.write_bytes(magic + b"\n" + json.dumps(manifest).encode() + b"\n" + tensors)
    code, _, err = run(capsys, "eval", "--model", str(bad), "--data", str(data))
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1
    assert "partition" in err


def test_an_overlong_csv_field_fails_train_and_eval_cleanly(trained, tmp_path, capsys):
    _, cfg, out_dir, data, _ = trained
    lines = data.read_text().splitlines()
    cells = lines[2].split(",")
    cells[0] = "1" * 131073
    long_csv = tmp_path / "long.csv"
    long_csv.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
    for argv in (["eval", "--model", str(out_dir / "model.danet")],
                 ["train", "--config", str(cfg), "--out", str(tmp_path / "run")]):
        code, _, err = run(capsys, *argv, "--data", str(long_csv))
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1
        assert "line 3" in err and "field larger than field limit" in err


@pytest.mark.parametrize("bad", ["schema", "data", "config"])
def test_a_file_that_is_not_utf8_is_named_in_the_error(bad, trained, tmp_path, capsys):
    _, cfg, _, data, schema = trained
    paths = {"schema": schema, "data": data, "config": cfg}
    paths[bad] = tmp_path / f"latin.{bad}"
    paths[bad].write_bytes(b"\xff" + b"depth = 2\n")
    code, _, err = run(capsys, "train", "--config", str(paths["config"]),
                       "--data", str(paths["data"]), "--schema", str(paths["schema"]),
                       "--out", str(tmp_path / "run"))
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1
    assert str(paths[bad]) in err and "not UTF-8" in err


def test_a_bad_task_or_negative_seed_is_one_typed_error(trained, tmp_path, capsys):
    _, _, _, data, schema = trained
    out = tmp_path / "run"
    files = ["--data", str(data), "--schema", str(schema), "--out", str(out)]
    for flag, value, word in (("--task", "bogus", "task"), ("--seed", "-1", "seed")):
        code, _, err = run(capsys, "train", *files, flag, value)
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1
        assert word in err and value in err
        assert not (out / "model.danet").exists()
    code, _, err = run(capsys, "synth", "--formula", "1", "--seed", "-3",
                       "--out", str(tmp_path / "x.csv"))
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1
    assert "seed" in err and not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flag, value, error", [
    ("--lr0", "-1e-3", "error: TrainConfig: lr0 must be positive and finite, got -0.001\n"),
    ("--dropout", "-1e-1", "error: DANetConfig: dropout must be in [0, 1), got -0.1\n")],
    ids=["lr0", "dropout"])
def test_a_negative_value_in_exponent_form_reaches_the_config_check(
        flag, value, error, trained, tmp_path, capsys):
    _, _, _, data, schema = trained
    code, _, err = run(capsys, "train", "--data", str(data), "--schema", str(schema),
                       "--out", str(tmp_path / "run"), flag, value)
    assert (code, err) == (1, error)


def test_a_flag_name_after_a_flag_is_still_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["train", "--data", "--out", "x"])
    assert exit_info.value.code == 2
    assert "--data: expected one argument" in capsys.readouterr().err


def test_flags_alone_train_the_same_bytes_as_the_config_file(trained, tmp_path, capsys):
    _, cfg, out_dir, _, _ = trained
    argv = ["train", "--out", str(tmp_path / "flags")]
    for key, value in parse_config_file(cfg).items():
        argv += [f"--{key}", str(value)]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    for name in ("model.danet", "history.csv", "metrics.txt"):
        assert (tmp_path / "flags" / name).read_bytes() == (out_dir / name).read_bytes()
