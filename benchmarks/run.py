"""DANet benchmark: training, 1-row serving and whole-file scoring.

    python3 benchmarks/run.py --workload {train_ref,serve_rows,score_file}
                              --seed N --seconds S --trace {0,1}

Each workload runs in this one process: it builds its inputs from ``--seed``
(CSV files plus the kept container ``model/serve.danet``), sets up, then
calls its entry point in whole rounds until they have taken ``--seconds``,
and checks the outputs against computations that do not use the code under
test. Set-up time is sampled in fresh interpreters, several times before the
rounds and again between them, each importing ``danet`` and setting the
workload up once. The last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics ``setup_s``, ``rows_per_s``,
``latency_ms.p50`` and ``peak_rss_mb``. ``--trace 1`` first measures the
workload untraced, then again with the span wrappers of ``spans.py``
installed, exercises the other two workloads once under the same wrappers,
and reports the per-layer metrics plus the tracing overhead. See README.md.
"""

import argparse
import contextlib
import copy
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import env

env.prepare()

import numpy as np  # noqa: E402

import danet  # noqa: E402
import danet.cli  # noqa: E402
import gen  # noqa: E402
from spans import Tracer  # noqa: E402

perf = time.perf_counter

FILE_ROWS = 70_000  # train_ref and score_file CSVs; cardiovascular table size
POOL_ROWS = 2048  # distinct held-out rows cycled by serve_rows
SERVE_ROUND = 256  # 1-row calls per serve_rows round
PROBE_ROWS = 512  # fixed batch for the training checks
FOLD_TOL = 1e-10  # folded vs live scores
GRAD_H = 1e-8  # central-difference step along a unit direction; see backward_errors
GRAD_TOL = 2e-3  # per parameter group, in units of |grads_g|/sqrt(n_g)
PP_SAMPLE = 256  # rows compared by the preprocessing check
MIN_ROUNDS = 2  # a train_ref fit can outlast the whole run length


def train_config(seed: int) -> danet.TrainConfig:
    # reference recipe, one epoch; patience above max_epochs so early stopping cannot fire
    return danet.TrainConfig(max_epochs=1, patience=2, seed=seed)


def encode(table: gen.Table, pp) -> np.ndarray:
    """Independent numpy encoding of raw generated rows: z-score of the
    continuous columns and a leave-one-out table lookup of the categorical
    ones, with the statistics stored in a fitted ``PreprocessState``."""
    x = np.empty((table.n_rows, len(gen.COLUMNS)))
    z = pp.zstats
    for j, name in enumerate(gen.COLUMNS):
        if name in table.cont:
            k = int(np.flatnonzero(z.cols == j)[0])
            std = z.std[k]
            x[:, j] = (table.cont[name] - z.mean[k]) / std if std >= 1e-12 else 0.0
        else:
            lut = pp.loo_tables[j]
            x[:, j] = [lut.means.get(v, lut.global_mean) for v in table.cat[name]]
    return x


def schema_of(bundle) -> dict:
    schema = dict(zip(bundle.feature_names, bundle.feature_kinds))
    schema[bundle.manifest["target"]] = "target"
    return schema


def setup_sample(w) -> float:
    """Seconds from the start of a fresh interpreter, through its import of
    this module (numpy, ``danet``, ``danet.cli``), to the end of one
    ``setup`` of the workload in it: what a user pays before the first call.
    The interpreter reads the end time on the monotonic clock it shares with
    this process and is waited for."""
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", "import sys, run; run.setup_child(*sys.argv[1:])",
         w.name, str(w.work), str(w.seed), repr(t0)],
        cwd=env.BENCH_DIR, check=True, stdout=subprocess.PIPE, text=True)
    return float(done.stdout.split()[-1])


def setup_child(name: str, work: str, seed: str, t0: str) -> None:
    """Body of a set-up sample's interpreter; see ``setup_sample``."""
    WORKLOADS[name](Path(work), int(seed)).setup()
    print(time.monotonic() - float(t0))


def median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = perf()
        fn()
        times.append(perf() - t0)
    return statistics.median(times)


def quiet_cli(argv):
    """``danet`` in-process; returns (exit status, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = danet.cli.main(argv)
    return status, buf.getvalue()


class Workload:
    """One job. Subclasses set ``name``, ``setup_reps`` (set-up samples
    before the rounds) and ``setup_per_round`` (samples before each round
    and after the last, which spread them over the run) and implement ``make_inputs`` (writes
    the generated inputs to ``work``), ``setup`` (what set-up time measures,
    besides the import; also run in sample interpreters), ``prepare``
    (untimed state the rounds and checks need), ``round`` (one fixed-size
    round of timed calls) and ``final_checks``."""

    name = ""
    setup_reps = 3
    setup_per_round = 2

    def __init__(self, work, seed: int):
        self.work, self.seed = work, seed
        self.attempted = self.failed = 0
        self.setup_times = []

    def op(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def sample_setup(self, reps: int) -> None:
        self.setup_times.extend(setup_sample(self) for _ in range(reps))

    def measure(self, seconds: float, min_rounds: int = 1):
        """Whole rounds until they have taken ``seconds`` and there are at
        least ``min_rounds``. ``setup_per_round`` set-up samples, whose time
        does not count, precede each round and follow the last.
        Returns (call times in s, [(rows, seconds) per round])."""
        calls, rounds, spent = [], [], 0.0
        while True:
            self.sample_setup(self.setup_per_round)
            t0 = perf()
            times, rows = self.round()
            spent += perf() - t0
            calls.extend(times)
            rounds.append((rows, sum(times)))
            if spent >= seconds and len(rounds) >= min_rounds:
                self.sample_setup(self.setup_per_round)
                return calls, rounds


class TrainRef(Workload):
    """One ``fit`` of one epoch at the reference recipe on the 80% split."""

    name = "train_ref"
    setup_reps = 2

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.csv, self.schema = work / "train.csv", work / "train.schema"
        self.cfg = train_config(seed)

    def make_inputs(self):
        gen.generate(FILE_ROWS, self.seed).write_csv(self.csv)
        gen.write_schema(self.schema)

    def setup(self):
        ds = danet.load_csv(self.csv, danet.read_schema(self.schema))
        train_raw, valid_raw = danet.stratified_split(ds, frac=0.2, seed=self.seed)
        pp = danet.PreprocessState()
        self.train_set = pp.fit(train_raw)
        self.valid_set = pp.apply(valid_raw)
        self.init = danet.DANet(self.train_set.n_features, danet.DANetConfig(),
                                ghost_size=self.cfg.ghost_size, seed=self.seed)

    def prepare(self):
        # a one-batch fit first touches the memory of a step and of a full validation pass
        warm = copy.deepcopy(self.init)
        danet.fit(warm, self.train_set.subset(np.arange(self.cfg.batch_size)),
                  self.valid_set, self.cfg)
        self.probe_x = self.train_set.features[:PROBE_ROWS]
        self.probe_y = self.train_set.targets[:PROBE_ROWS]
        self.loss_before = self.probe_loss(copy.deepcopy(self.init))
        self.kept = danet.load_model(env.KEPT_MODEL).model
        self.fitted = []

    def probe_loss(self, model, grads=False):
        """Training-mode loss on the probe batch with a fixed dropout stream."""
        out, ctx = model.forward(self.probe_x, train=True, rng=danet.Rng(self.seed + 1))
        loss, dout = danet.cross_entropy(out, self.probe_y)
        return (loss, model.backward(ctx, dout)[1]) if grads else loss

    def round(self):
        model = copy.deepcopy(self.init)
        t0 = perf()
        danet.fit(model, self.train_set, self.valid_set, self.cfg)
        dt = perf() - t0
        self.fitted.append(model)  # checked in final_checks, outside any traced span
        return [dt], self.train_set.n_rows * self.cfg.max_epochs

    def final_checks(self):
        # progress: probe loss fell during each fit and every parameter is finite
        for model in self.fitted:
            finite = all(np.all(np.isfinite(a)) for _, _, a in model.named_params())
            self.op(finite and self.probe_loss(model) < self.loss_before)
        self.fitted = []
        # backward: on the initial model and on the kept trained one, whose
        # masks are no longer near uniform
        for label, model in (("init", self.init), ("kept", self.kept)):
            for group, error in self.backward_errors(model).items():
                print(f"# train_ref backward check, {label} {group}: "
                      f"error {error:.3g} of |grads|/sqrt(n)")
                self.op(error <= GRAD_TOL)

    def backward_errors(self, model) -> dict:
        """Backward check, one per parameter group (entmax mask logits,
        batch-norm scales and shifts, unit weights, head): a central
        difference of the probe loss along one seeded unit direction v over
        the group's parameters vs <grads, v>. The error is measured in units
        of |grads_g| / sqrt(n_g), the typical size of <grads_g, v> for the
        group's own gradients, because a random v can make <grads_g, v>
        itself arbitrarily small. With the step GRAD_H, rounding gives
        errors up to ~2e-4; a ReLU or entmax-support kink inside the step,
        rare at this step, gave up to ~1.1e-3 at larger steps."""
        _, grads = self.probe_loss(copy.deepcopy(model), grads=True)
        groups = {}
        for n, kind, _ in model.named_params():
            groups.setdefault("head" if n.startswith("head.") else kind, []).append(n)
        rng = np.random.Generator(np.random.PCG64(self.seed + 2))
        errors = {}
        for group, names in groups.items():
            v = {n: rng.standard_normal(grads[n].shape) for n in names}
            norm = np.sqrt(sum(float(np.sum(d * d)) for d in v.values()))
            v = {n: d / norm for n, d in v.items()}
            analytic = sum(float(np.sum(grads[n] * d)) for n, d in v.items())
            unit = np.sqrt(sum(float(np.sum(grads[n] ** 2)) for n in v)
                           / sum(d.size for d in v.values()))
            side = []
            for sign in (1.0, -1.0):
                shifted = copy.deepcopy(model)
                for n, _, a in shifted.named_params():
                    if n in v:
                        a += sign * GRAD_H * v[n]
                side.append(self.probe_loss(shifted))
            numeric = (side[0] - side[1]) / (2.0 * GRAD_H)
            errors[group] = abs(numeric - analytic) / unit
        return errors


class ServeRows(Workload):
    """Closed loop, one caller: 1-row ``predict`` on the compressed model."""

    name = "serve_rows"
    setup_reps = 5
    setup_per_round = 0  # a round lasts well under a second

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.pool_csv = work / "pool.csv"

    def make_inputs(self):
        gen.generate(POOL_ROWS, self.seed).write_csv(self.pool_csv)

    def setup(self):
        self.bundle = danet.load_model(env.KEPT_MODEL)
        self.cmodel = danet.compress_model(self.bundle.model)

    def prepare(self):
        ds = self.bundle.preprocess.apply(danet.load_csv(self.pool_csv, schema_of(self.bundle)))
        self.x = ds.features
        self.rows = [self.x[i:i + 1] for i in range(self.x.shape[0])]
        self.live = self.bundle.model.scores(self.x)
        self.expected = np.argmax(self.live, axis=1)
        self.next = 0
        self.round()  # warm-up

    def round(self):
        predict, rows, times = self.cmodel.predict, self.rows, []
        for _ in range(SERVE_ROUND):
            i = self.next
            t0 = perf()
            label = predict(rows[i])
            times.append(perf() - t0)
            self.op(label.shape == (1,) and label[0] == self.expected[i])
            self.next = (i + 1) % len(rows)
        return times, SERVE_ROUND

    def final_checks(self):
        # the folding property: each row's 1-row folded score equals its live score
        for i, row in enumerate(self.rows):
            diff = np.max(np.abs(self.cmodel.scores(row)[0] - self.live[i]))
            self.op(bool(diff <= FOLD_TOL))


class ScoreFile(Workload):
    """``danet eval`` of the compressed container on a 70k-row CSV."""

    name = "score_file"
    setup_reps = 5

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.csv, self.compressed = work / "score.csv", work / "compressed.danet"

    def make_inputs(self):
        self.table = gen.generate(FILE_ROWS, self.seed)
        self.table.write_csv(self.csv)

    def setup(self):
        status, _ = quiet_cli(["compress", "--model", str(env.KEPT_MODEL),
                               "--out", str(self.compressed)])
        if status != 0:
            raise RuntimeError(f"danet compress exited with {status}")

    def prepare(self):
        # expected accuracy: live model on independently encoded features vs generator labels
        live = danet.load_model(env.KEPT_MODEL)
        self.features = encode(self.table, live.preprocess)
        block = 8192
        preds = np.concatenate([
            np.argmax(live.model.scores(self.features[s:s + block]), axis=1)
            for s in range(0, FILE_ROWS, block)])
        self.accuracy = float(np.mean(preds == self.table.labels))
        majority = self.table.majority_share()
        self.floor = majority + 0.5 * (self.table.bayes_accuracy() - majority)
        self.expected_line = f"accuracy={self.accuracy:.6f}\n"

    def round(self):
        t0 = perf()
        status, out = quiet_cli(["eval", "--model", str(self.compressed),
                                 "--data", str(self.csv)])
        dt = perf() - t0
        self.op(status == 0 and out == self.expected_line and self.accuracy >= self.floor)
        return [dt], FILE_ROWS

    def final_checks(self):
        bundle = danet.load_model(self.compressed)
        ds = bundle.preprocess.apply(danet.load_csv(self.csv, schema_of(bundle)))
        rows = np.random.Generator(np.random.PCG64(self.seed)).choice(
            FILE_ROWS, PP_SAMPLE, replace=False)
        self.op(bool(np.max(np.abs(ds.features[rows] - self.features[rows])) <= 1e-12))


WORKLOADS = {w.name: w for w in (TrainRef, ServeRows, ScoreFile)}


# -- end-to-end --------------------------------------------------------------

def tail_percentile(times):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it."""
    n = len(times)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            q = statistics.quantiles(times, n=1000, method="inclusive")[int(p * 10) - 1]
            return p, q
    return None


def e2e_metrics(setup_s, calls, rounds) -> dict:
    return {
        "setup_s": setup_s,
        "rows_per_s": statistics.median(rows / secs for rows, secs in rounds),
        "latency_ms.p50": statistics.median(calls) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


E2E_UNITS = {"setup_s": "s", "rows_per_s": "rows/s", "latency_ms.p50": "ms",
             "peak_rss_mb": "MB"}


def run_e2e(w: Workload, seconds: float, min_rounds: int = MIN_ROUNDS):
    w.setup()
    w.setup_times = []
    w.sample_setup(w.setup_reps)
    w.prepare()
    calls, rounds = w.measure(seconds, min_rounds)
    setup_s = statistics.median(w.setup_times)
    print(f"# {w.name} set-up samples (s): " + " ".join(f"{t:.4f}" for t in w.setup_times))
    w.final_checks()
    tail = tail_percentile(calls)
    if tail:
        print(f"# {w.name} latency_ms.p{tail[0]:g}={tail[1] * 1e3:.4f} "
              f"(n={len(calls)} calls)")
    else:
        print(f"# {w.name} n={len(calls)} calls: too few for a tail percentile")
    return e2e_metrics(setup_s, calls, rounds)


# -- traced run --------------------------------------------------------------

def time_per_row(fn, x, reps) -> float:
    return median_seconds(lambda: fn(x), reps) / x.shape[0] * 1e6


def reference(train: TrainRef, serve: ServeRows, score: ScoreFile) -> dict:
    """Untraced direct timings: live vs folded per row at 1/64/8192 rows,
    whole file in 8192-row blocks, counted flops, and the tracemalloc peak
    of one training step."""
    live, folded = serve.bundle.model, serve.cmodel
    x = score.features
    out = {}
    for b, reps in ((1, 200), (64, 50), (8192, 3)):
        out[f"network.scores.us_per_row.b{b}"] = time_per_row(live.scores, x[:b], reps)
        out[f"reparam.forward.us_per_row.b{b}"] = time_per_row(folded.scores, x[:b], reps)

    def blocks(xx):
        for s in range(0, xx.shape[0], 8192):
            folded.scores(xx[s:s + 8192])
    out["reparam.forward.us_per_row.file_blocks"] = time_per_row(blocks, x, 1)
    out["network.flops_per_row.live"] = danet.count_flops(live).total
    out["network.flops_per_row.folded"] = danet.count_flops(folded).total

    model = copy.deepcopy(train.init)
    opt = danet.QhAdam(model.named_params(), train.cfg)
    xb = train.train_set.features[:train.cfg.batch_size]
    yb = train.train_set.targets[:train.cfg.batch_size]
    rng = danet.Rng(train.seed)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out_, ctx = model.forward(xb, train=True, rng=rng)
        _, dout = danet.cross_entropy(out_, yb)
        _, grads = model.backward(ctx, dout)
        opt.step(grads, train.cfg.lr0)
        del out_, ctx, dout, grads
        out["training.step.peak_alloc_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    return out


def layer_metrics(tr: Tracer) -> dict:
    T, MS, US = "train", 1e3, 1e6
    m = {}
    for role in ("main1", "main2", "shortcut"):
        for phase in ("forward", "backward"):
            m[f"layers.{role}.{phase}.ms"] = tr.median_self(T, f"layers.{role}.{phase}", MS)
    for part in ("unit", "ghost_bn"):
        for phase in ("forward", "backward"):
            m[f"layers.{part}.{phase}.ms"] = tr.median_self(T, f"layers.{part}.{phase}", MS)
    m["layers.sigmoid.ms"] = tr.median_self(T, "layers.sigmoid", MS)
    m["entmax.forward.us"] = tr.median_self(T, "entmax.forward", US)
    m["entmax.backward.us"] = tr.median_self(T, "entmax.backward", US)
    # one step = one training forward + one backward
    fwd, bwd = tr.count(T, "network.forward_train"), tr.count(T, "network.backward")
    for name in ("layers.ghost_bn", "entmax"):
        m[f"{name}.calls_per_step"] = (tr.count(T, f"{name}.forward") / fwd
                                       + tr.count(T, f"{name}.backward") / bwd
                                       if fwd and bwd else None)
    m["network.forward_train.ms"] = tr.median_self(T, "network.forward_train", MS)
    m["network.forward_train.total_ms"] = tr.median_total(T, "network.forward_train", MS)
    m["network.backward.ms"] = tr.median_self(T, "network.backward", MS)
    m["network.backward.total_ms"] = tr.median_total(T, "network.backward", MS)
    m["network.block.forward_train.ms"] = tr.median_self(T, "network.block.forward", MS)
    m["network.block.backward.ms"] = tr.median_self(T, "network.block.backward", MS)
    m["network.head.forward.ms"] = tr.median_self(T, "network.head.forward", MS)
    m["network.head.backward.ms"] = tr.median_self(T, "network.head.backward", MS)
    m["network.state_dict.ms"] = tr.median_self("", "network.state_dict", MS)
    m["network.forward_train.minflt"] = tr.median_minflt(T, "network.forward_train")
    m["network.backward.minflt"] = tr.median_minflt(T, "network.backward")
    m["training.qhadam_step.ms"] = tr.median_self("", "training.qhadam_step", MS)
    m["training.cross_entropy.ms"] = tr.median_self("", "training.cross_entropy", MS)
    m["training.evaluate.ms"] = tr.median_self("", "training.evaluate", MS)
    m["network.scores.us_per_row.valid"] = tr.us_per_row("eval", "network.forward_eval")
    m["reparam.layer.forward.us"] = tr.median_self("folded_b1", "reparam.layer.forward", US)
    m["reparam.unit.forward.us"] = tr.median_self("folded_b1", "reparam.unit.forward", US)
    m["reparam.forward.us_per_row.file"] = tr.us_per_row("folded", "reparam.forward")
    m["reparam.compress_model.ms"] = tr.median_self("", "reparam.compress_model", MS)
    for name in ("serialize.load_model", "serialize.save_model", "data.load_csv",
                 "data.stratified_split", "data.preprocess_fit", "data.preprocess_apply"):
        m[f"{name}.ms"] = tr.median_self("", name, MS)
    m["cli.eval.self_ms"] = tr.median_self("", "cli.eval", MS)
    m["cli.eval.total_ms"] = tr.median_total("", "cli.eval", MS)
    return m


LAYER_UNITS = {"ms": "ms", "us": "us", "self_ms": "ms", "total_ms": "ms", "minflt": "count",
               "calls_per_step": "count", "peak_alloc_mb": "MB", "live": "flops",
               "folded": "flops", "pct": "%"}


def layer_unit(name: str) -> str:
    return "us/row" if "us_per_row" in name else LAYER_UNITS[name.rsplit(".", 1)[1]]


def run_traced(w: Workload, work, seed: int, seconds: float):
    """Returns (metrics, [w] + the other workloads, whose operations count too)."""
    # half the time untraced, half traced, one round or more each, so the pair fits one run
    untraced = run_e2e(w, seconds / 2, 1)
    others = [cls(work, seed) for name, cls in WORKLOADS.items() if name != w.name]
    for o in others:
        o.make_inputs()
        o.setup()
        o.prepare()
    # the sample interpreters are not traced: the set-up overhead is that
    # of the wrappers on the in-process set-up
    plain_setup = median_seconds(w.setup, w.setup_reps)
    with Tracer() as tr:
        traced_setup = median_seconds(w.setup, w.setup_reps)
        calls, rounds = w.measure(seconds / 2)
        for o in others:
            o.setup()
            o.measure(0)
    for x in [w] + others:
        x.final_checks()
    untraced["setup_s"] = plain_setup
    traced = e2e_metrics(traced_setup, calls, rounds)
    by_name = {x.name: x for x in [w] + others}
    metrics = layer_metrics(tr)
    metrics.update(reference(by_name["train_ref"], by_name["serve_rows"], by_name["score_file"]))
    metrics["trace.overhead.setup_s.pct"] = 100.0 * (traced["setup_s"] / untraced["setup_s"] - 1)
    metrics["trace.overhead.latency_ms.p50.pct"] = 100.0 * (
        traced["latency_ms.p50"] / untraced["latency_ms.p50"] - 1)
    metrics["trace.overhead.rows_per_s.pct"] = 100.0 * (
        untraced["rows_per_s"] / traced["rows_per_s"] - 1)
    missing = sorted(k for k, v in metrics.items() if v is None)
    if missing:  # the traced function or method no longer exists
        print(f"# no spans recorded, reported as 0: {' '.join(missing)}")
        metrics.update((k, 0.0) for k in missing)
    for label, values in (("untraced", untraced), ("traced", traced)):
        values["setup_in_process_s"] = values.pop("setup_s")
        print(f"# {w.name} {label}: " + " ".join(f"{k}={v:.6g}" for k, v in values.items()))
    return metrics, [w] + others


# -- main --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not env.KEPT_MODEL.is_file():
        sys.stderr.write(f"benchmark: kept model {env.KEPT_MODEL} is missing\n")
        return 2

    work = env.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        w = WORKLOADS[args.workload](work, args.seed)
        w.make_inputs()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        print(f"# blas={blas.get('name')} {blas.get('version')} threads={env.BLAS_THREADS} "
              f"numpy={np.__version__} cpus={os.cpu_count()}")
        if args.trace:
            values, checked = run_traced(w, work, args.seed, args.seconds)
            units = {k: layer_unit(k) for k in values}
        else:
            values, checked = run_e2e(w, args.seconds), [w]
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for k, v in values.items():
        print(f"# {k:<42} {v:>16.6f} {units[k]}")
    attempted = sum(x.attempted for x in checked)
    failed = sum(x.failed for x in checked)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
