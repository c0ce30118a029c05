"""Seeded synthetic inputs with the shape of the cardiovascular-disease table.

Eleven feature columns (five continuous, six categorical) and a binary
``cardio`` target, in the column order of the public dataset. Labels are drawn
from a known logistic model, so the benchmark can compute the Bayes accuracy
of every generated file without reference to the code under test. Height,
gender, smoke and alco carry no signal.

Continuous values are whole numbers or tenths. They are written with ``repr``
so that ``float`` of the written text is exactly the generated value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONTINUOUS = ("age", "height", "weight", "ap_hi", "ap_lo")
CATEGORICAL = ("gender", "cholesterol", "gluc", "smoke", "alco", "active")
COLUMNS = ("age", "gender", "height", "weight", "ap_hi", "ap_lo",
           "cholesterol", "gluc", "smoke", "alco", "active")
TARGET = "cardio"

_LEVELS = {
    "gender": (("1", "2"), (0.65, 0.35)),
    "cholesterol": (("1", "2", "3"), (0.75, 0.14, 0.11)),
    "gluc": (("1", "2", "3"), (0.85, 0.07, 0.08)),
    "smoke": (("0", "1"), (0.91, 0.09)),
    "alco": (("0", "1"), (0.95, 0.05)),
    "active": (("0", "1"), (0.20, 0.80)),
}
_EFFECT = {  # logit shift per level; columns not listed carry no signal
    "cholesterol": (0.0, 0.45, 1.1),
    "gluc": (0.0, 0.15, 0.3),
    "active": (0.2, 0.0),
}


@dataclass
class Table:
    """Generated rows: raw column values, labels and true P(cardio = 1)."""

    cont: dict  # column name -> float64 array
    cat: dict  # column name -> array of category strings
    labels: np.ndarray
    p_true: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.labels.shape[0]

    def bayes_accuracy(self) -> float:
        """Expected accuracy of the best possible classifier on these rows."""
        return float(np.mean(np.maximum(self.p_true, 1.0 - self.p_true)))

    def majority_share(self) -> float:
        return float(max(np.mean(self.labels), 1.0 - np.mean(self.labels)))

    def write_csv(self, path) -> None:
        cols = [[repr(float(v)) for v in self.cont[c]] if c in self.cont
                else list(self.cat[c]) for c in COLUMNS]
        cols.append([str(int(v)) for v in self.labels])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(COLUMNS + (TARGET,)) + "\n")
            fh.write("".join(",".join(row) + "\n" for row in zip(*cols)))


def write_schema(path) -> None:
    lines = [f"{c}={'continuous' if c in CONTINUOUS else 'categorical'}" for c in COLUMNS]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines + [f"{TARGET}=target"]) + "\n")


def generate(n: int, seed: int) -> Table:
    rng = np.random.Generator(np.random.PCG64(seed))
    age = rng.integers(10800, 23800, n).astype(np.float64)  # days, as in the source table
    height = np.clip(np.rint(rng.normal(164.0, 8.0, n)), 120, 210)
    weight = np.clip(np.rint(rng.normal(740.0, 140.0, n)), 350, 1800) / 10.0
    ap_hi = np.clip(np.rint(rng.normal(127.0, 17.0, n)), 80, 220)
    ap_lo = np.clip(np.rint(0.4 * ap_hi + rng.normal(30.0, 7.0, n)), 50, 140)
    cont = {"age": age, "height": height, "weight": weight, "ap_hi": ap_hi, "ap_lo": ap_lo}

    cat, codes = {}, {}
    for name, (levels, probs) in _LEVELS.items():
        codes[name] = rng.choice(len(levels), size=n, p=probs)
        cat[name] = np.array(levels)[codes[name]]

    logit = (0.00018 * (age - 17300.0) + 0.025 * (weight - 74.0)
             + 0.05 * (ap_hi - 127.0) + 0.02 * (ap_lo - 81.0)
             + 0.6 * (ap_hi > 140.0) - 0.25)
    for name, shift in _EFFECT.items():
        logit = logit + np.asarray(shift)[codes[name]]
    p_true = 1.0 / (1.0 + np.exp(-logit))
    labels = (rng.random(n) < p_true).astype(np.int64)
    return Table(cont=cont, cat=cat, labels=labels, p_true=p_true)
