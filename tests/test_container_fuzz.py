"""Corrupted containers: with any one byte of the magic or the manifest line
replaced, a container either loads or raises ContainerError, and `danet eval`
of whatever loads ends with exit 0 or 1, never with an escaping exception."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from danet import ContainerError, load_model
from danet.cli import main


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """A small trained container whose data has one categorical column, so
    the manifest carries a leave-one-out table beside the z-score stats."""
    root = tmp_path_factory.mktemp("fuzz")
    data, schema = root / "data.csv", root / "data.schema"
    rows = [f"{0.1 * i:.1f},{(i * 7) % 5 - 2},{'abc'[i % 3]},{int(i % 3 == 0 or i % 4 == 0)}"
            for i in range(48)]
    data.write_text("x0,x1,c,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
    schema.write_text("x0=continuous\nx1=continuous\nc=categorical\ny=target\n",
                      encoding="utf-8")
    cfg = root / "run.cfg"
    cfg.write_text("depth = 2\nk0 = 1\nd0 = 2\nd1 = 2\nghost_size = 8\nbatch_size = 16\n"
                   "max_epochs = 2\nseed = 1\n", encoding="utf-8")
    out = root / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data), "--schema", str(schema),
                 "--out", str(out)]) == 0
    assert list(load_model(out / "model.danet").preprocess.loo_tables) == [2]
    raw = (out / "model.danet").read_bytes()
    header_len = raw.index(b"\n", raw.index(b"\n") + 1) + 1  # magic and manifest lines
    # hypothesis draws low indices far more often than high ones, so positions
    # come from fixed shuffles: of both lines, and of the manifest up to its
    # tensor directory, where the schema, config and preprocessing are
    shuffle = np.random.default_rng(0).permutation
    anywhere = shuffle(header_len).tolist()
    before_directory = shuffle(raw.index(b'"tensors":')).tolist()
    return raw, anywhere, before_directory, data, root / "mutated.danet"


# JSON's own bytes, which keep a mutated manifest parseable far more often
# than a uniformly drawn byte does
JSON_BYTES = list(b'0123456789-+.eE,:"[]{} abcxyz')


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(draw=st.data(), byte=st.sampled_from(JSON_BYTES) | st.integers(0, 255))
def test_a_replaced_manifest_byte_loads_or_raises_container_error(container, draw, byte):
    raw, anywhere, before_directory, data, path = container
    pos = draw.draw(st.sampled_from(anywhere) | st.sampled_from(before_directory))
    mutated = bytearray(raw)
    mutated[pos] = byte
    path.write_bytes(bytes(mutated))
    try:
        load_model(path)
    except ContainerError:
        return
    assert main(["eval", "--model", str(path), "--data", str(data)]) in (0, 1)
