"""Per-layer spans for the traced benchmark run, from outside ``src/``.

``Tracer`` swaps the public functions and methods of the ``danet`` modules
for timing wrappers while it is active, and puts the originals back when it
exits. Nothing in the package is edited. Spans are kept in memory, one column
array per (context, name): for every call the wrapper records its wall time,
its self time (wall time minus the time of the spans it directly encloses)
and, where asked, its minor page faults and the rows of its input.

Every span is filed under a *context*: ``train`` inside a training-mode
``DANet.forward`` or a ``DANet.backward``, ``eval`` inside an eval-mode
``DANet.forward``, ``folded_b1``/``folded`` inside a 1-row/larger compressed
forward, and ``""`` elsewhere. Abstraction layers are named by their role in
their block (``main1``, ``main2``, ``shortcut``).
"""

from __future__ import annotations

import functools
import inspect
import resource
import statistics
import sys
import time
from array import array
from collections import defaultdict

import danet
import danet.cli
import danet.data
import danet.layers
import danet.network
import danet.reparam
import danet.serialize
import danet.training

_perf = time.perf_counter


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Series:
    """All calls of one span name in one context, column by column."""

    __slots__ = ("self_s", "total_s", "rows", "minflt")

    def __init__(self):
        self.self_s, self.total_s = array("d"), array("d")
        self.rows, self.minflt = array("q"), array("q")

    def add(self, self_s, total_s, rows, minflt):
        self.self_s.append(self_s)
        self.total_s.append(total_s)
        self.rows.append(rows)
        self.minflt.append(minflt)


class Tracer:
    """Context manager that installs the wrappers; spans land in ``samples``."""

    def __init__(self):
        self.samples = defaultdict(Series)  # (context, name) -> Series
        self._child = []  # per open span: time covered by its direct children
        self._context = [""]
        self._roles = {}  # id(AbstractLayer) -> role in its block
        self._restore = []

    # -- recording -----------------------------------------------------------

    def _call(self, name, fn, args, kwargs, context=None, rows=None, faults=False):
        if context is not None:
            self._context.append(context)
        self._child.append(0.0)
        f0 = _minflt() if faults else 0
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            total = _perf() - t0
            flt = _minflt() - f0 if faults else 0
            child = self._child.pop()
            if self._child:
                self._child[-1] += total
            ctx = self._context[-1]
            if context is not None:
                self._context.pop()
            self.samples[(ctx, name)].add(total - child, total, rows or 0, flt)

    # -- installation --------------------------------------------------------

    def __enter__(self):
        L, N, R = danet.layers, danet.network, danet.reparam

        def method(module, cls_name, attr, name, **opts):
            cls = getattr(module, cls_name, None)
            orig = getattr(cls, attr, None)
            if orig is None:  # gone after a refactor: its metrics read 0
                return
            self._restore.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr, self._wrapper(orig, name, **opts))

        def role(phase):
            def name(args, _kwargs):
                return f"layers.{self._roles.get(id(args[0]), 'layer')}.{phase}"
            return name

        def block(name):
            def register(args, _kwargs):
                for r in ("main1", "main2", "shortcut"):
                    self._roles[id(getattr(args[0], r))] = r
                return name
            return register

        method(N, "DANet", "forward", None, rows=True, faults=True,
               by_mode=("network.forward_train", "network.forward_eval"))
        method(N, "DANet", "backward", "network.backward", context="train", faults=True)
        method(N, "DANet", "state_dict", "network.state_dict")
        method(N, "BasicBlock", "forward", block("network.block.forward"))
        method(N, "BasicBlock", "backward", block("network.block.backward"))
        method(N, "MlpHead", "forward", "network.head.forward")
        method(N, "MlpHead", "backward", "network.head.backward")
        method(L, "AbstractLayer", "forward", role("forward"))
        method(L, "AbstractLayer", "backward", role("backward"))
        method(L, "AbstractUnit", "forward", "layers.unit.forward")
        method(L, "AbstractUnit", "backward", "layers.unit.backward")
        method(L, "GhostBatchNorm", "forward", "layers.ghost_bn.forward")
        method(L, "GhostBatchNorm", "backward", "layers.ghost_bn.backward")
        method(R, "CompressedModel", "forward", "reparam.forward", rows=True, folded=True)
        method(R, "CompressedLayer", "forward", "reparam.layer.forward")
        method(R, "CompressedUnit", "forward", "reparam.unit.forward")
        method(danet.training, "QhAdam", "step", "training.qhadam_step")
        method(danet.data, "PreprocessState", "fit", "data.preprocess_fit")
        method(danet.data, "PreprocessState", "apply", "data.preprocess_apply")

        # sigmoid and entmax are timed where training calls them; the folded
        # path's own uses stay unwrapped so reparam self times keep them
        for fn, name in ((getattr(L, "sigmoid", None), "layers.sigmoid"),
                         (getattr(L, "entmax15", None), "entmax.forward"),
                         (getattr(L, "entmax15_backward", None), "entmax.backward")):
            self._rebind(fn, name, only=L)
        for module, attr, name in ((danet.training, "cross_entropy", "training.cross_entropy"),
                                   (danet.training, "evaluate", "training.evaluate"),
                                   (danet.data, "load_csv", "data.load_csv"),
                                   (danet.data, "stratified_split", "data.stratified_split"),
                                   (danet.serialize, "load_model", "serialize.load_model"),
                                   (danet.serialize, "save_model", "serialize.save_model"),
                                   (R, "compress_model", "reparam.compress_model"),
                                   (danet.cli, "cmd_eval", "cli.eval")):
            self._rebind(getattr(module, attr, None), name)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._restore):
            if orig is None:  # the wrapper shadowed an inherited method
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._restore.clear()
        return False

    def _rebind(self, fn, name, only=None):
        """Wrap ``fn`` under every name any danet module (or just ``only``)
        binds it to."""
        if fn is None:
            return
        wrapper = self._wrapper(fn, name)
        for modname, mod in list(sys.modules.items()):
            if modname != "danet" and not modname.startswith("danet."):
                continue
            if only is not None and mod is not only:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, fn))

    def _wrapper(self, fn, name, context=None, by_mode=None, rows=False, faults=False,
                 folded=False):
        """Timing wrapper for ``fn``. ``name`` is a span name or a callable
        naming the span from the call's arguments; ``by_mode`` is a
        (train, eval) pair of names chosen by the call's ``train`` flag,
        which also sets the context; ``folded`` sets the context from the
        rows of the input."""
        sig = inspect.signature(fn)
        params = list(sig.parameters)
        train_pos = params.index("train") if "train" in params else None
        train_default = sig.parameters["train"].default if train_pos is not None else None
        def wrapper(*args, **kwargs):
            label, ctx, nrows = name, context, None
            if rows:
                x = args[1] if len(args) > 1 else kwargs.get(params[1])
                nrows = int(getattr(x, "shape", (len(x),))[0])
            if by_mode:
                if train_pos is not None and len(args) > train_pos:
                    train = args[train_pos]
                else:
                    train = kwargs.get("train", train_default)
                label, ctx = (by_mode[0], "train") if train else (by_mode[1], "eval")
            elif folded:
                ctx = "folded_b1" if nrows == 1 else "folded"
            if callable(label):
                label = label(args, kwargs)
            return self._call(label, fn, args, kwargs, context=ctx, rows=nrows, faults=faults)

        return functools.update_wrapper(wrapper, fn)

    # -- reporting -----------------------------------------------------------

    def _series(self, context, name):
        return self.samples.get((context, name))

    def median_self(self, context, name, scale) -> float | None:
        s = self._series(context, name)
        return statistics.median(s.self_s) * scale if s else None

    def median_total(self, context, name, scale) -> float | None:
        s = self._series(context, name)
        return statistics.median(s.total_s) * scale if s else None

    def count(self, context, name) -> int:
        s = self._series(context, name)
        return len(s.self_s) if s else 0

    def us_per_row(self, context, name) -> float | None:
        s = self._series(context, name)
        rows = sum(s.rows) if s else 0
        return sum(s.total_s) / rows * 1e6 if rows else None

    def median_minflt(self, context, name) -> float | None:
        s = self._series(context, name)
        return float(statistics.median(s.minflt)) if s else None
