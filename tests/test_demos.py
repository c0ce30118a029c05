"""Smoke test: every script under demos/ runs against the current package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, key_line", [
    ("abstraction_layer.py", r"^eval outputs identical despite the poisoned masked column: True$"),
    ("compress_and_count.py", r"^predictions identical: True$"),
    ("sparse_masks.py", r"^  scale 8\.0 -> .* support 1/5$"),
    ("train_synthetic.py", r"^best epoch \d+ \(valid mse [\d.]+\), final valid mse [\d.]+$"),
])
def test_demo_runs(script, key_line):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH"))
                                        if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert re.search(key_line, proc.stdout, re.MULTILINE), proc.stdout
