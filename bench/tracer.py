"""Per-layer tracing for the benchmark, installed from outside the package.

A `Tracer` wraps a fixed set of public commitlotto functions and methods
(`LAYERS`) in timing wrappers. A function is replaced at every module that
imported it by name, so `compute_ntxid` is traced whether `chain`,
`scaffold` or `harness` calls it; a method is replaced on its class.
Nothing under `src/` changes, and `uninstall` puts every original back.

Each outermost call of a layer is one span: layer, parent span, trial,
start and end. A recursive call of the same layer (`predicate_bytes`
calls itself) stays inside the outer span and is not counted again. Spans
are kept in memory and written out by `write_spans`. Per-layer totals
(calls, accepted calls, time, self time) are summed as spans close, so
runs longer than the kept spans still report them; self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from contextlib import contextmanager

# (metric prefix, defining module, attribute, accepted(result) or None).
# `accepted` feeds the layer's ok count; a call that raises is never ok.
LAYERS = (
    ("primitives.sha256", "commitlotto.primitives", "sha256", None),
    ("script.predicate_bytes", "commitlotto.script", "predicate_bytes", None),
    ("chain.body_bytes", "commitlotto.chain", "body_bytes", None),
    ("chain.compute_ntxid", "commitlotto.chain", "compute_ntxid", None),
    ("chain.sig_digest_for", "commitlotto.chain", "sig_digest_for", None),
    ("scaffold.build_tournament", "commitlotto.scaffold", "build_tournament", None),
    ("scaffold.signing_ceremony", "commitlotto.scaffold", "signing_ceremony", None),
    ("script.SignatureOracle.sign", "commitlotto.script", "SignatureOracle.sign", None),
    ("chain.Chain.submit", "commitlotto.chain", "Chain.submit", lambda res: res.accepted),
    ("script.evaluate_explain", "commitlotto.script", "evaluate_explain", lambda res: res[0]),
    ("harness.ScaffoldRuntime.run", "commitlotto.harness", "ScaffoldRuntime.run", None),
    ("harness.ScaffoldRuntime.drain", "commitlotto.harness", "ScaffoldRuntime._drain", None),
    ("contracts.Vm.call", "commitlotto.contracts", "Vm.call", None),
    ("contracts.Vm.static_call", "commitlotto.contracts", "Vm.static_call", None),
    ("harness.ContractRuntime.run", "commitlotto.harness", "ContractRuntime.run", None),
)
LAYER_NAMES = tuple(layer[0] for layer in LAYERS)
TRIAL = len(LAYERS)  # span layer index of a trial's root span
SPAN_NAMES = LAYER_NAMES + ("trial",)
SPAN_COLUMNS = (("layer", "h"), ("parent", "q"), ("trial", "q"), ("start", "d"), ("end", "d"))


class Tracer:
    """Spans and per-layer totals for the trials run inside `trial()`."""

    def __init__(self):
        n = len(LAYERS)
        self.calls = [0] * n
        self.ok = [0] * n
        self.total_s = [0.0] * n
        self.self_s = [0.0] * n
        self.bodies_built = 0  # TransactionBody objects the scaffold module constructed
        self.trials = 0
        self.keep_spans = True
        self.spans = {name: array(code) for name, code in SPAN_COLUMNS}
        self._stack: list[list] = []  # open spans: [child seconds, span id]
        self._busy = [False] * n
        self._trial = -1
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """Every (owner, attribute, original, replacement) the tracer swaps in."""
        patches = []
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "commitlotto"]
        for idx, (_, module, attr, accepted) in enumerate(LAYERS):
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                original = vars(owner)[attr]
                patches.append((owner, attr, original, self._wrap(idx, original, accepted)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(idx, original, accepted)
            for mod in package:
                for name, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, name, original, wrapper))
        scaffold = sys.modules["commitlotto.scaffold"]
        body_cls = scaffold.TransactionBody

        def counted_body(*args, **kwargs):
            self.bodies_built += 1
            return body_cls(*args, **kwargs)

        patches.append((scaffold, "TransactionBody", body_cls, counted_body))
        return patches

    def _wrap(self, idx: int, fn, accepted):
        stack = self._stack
        busy = self._busy
        calls, ok_count, total_s, self_s = self.calls, self.ok, self.total_s, self.self_s
        spans = self.spans
        s_layer, s_parent, s_trial = spans["layer"], spans["parent"], spans["trial"]
        s_start, s_end = spans["start"], spans["end"]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if busy[idx]:
                return fn(*args, **kwargs)
            busy[idx] = True
            parent = stack[-1]
            span = -1
            if self.keep_spans:
                span = len(s_start)
                s_layer.append(idx)
                s_parent.append(parent[1])
                s_trial.append(self._trial)
                s_start.append(0.0)
                s_end.append(0.0)
            frame = [0.0, span]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True if accepted is None else bool(accepted(result))
                return result
            finally:
                end = clock()
                stack.pop()
                busy[idx] = False
                duration = end - start
                parent[0] += duration
                calls[idx] += 1
                ok_count[idx] += ok
                total_s[idx] += duration
                self_s[idx] += duration - frame[0]
                if span >= 0:
                    s_start[span] = start
                    s_end[span] = end

        return wrapper

    @contextmanager
    def trial(self, index: int):
        """Trace one trial: install the wrappers, open its root span, restore."""
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        self._trial = index
        span = -1
        if self.keep_spans:
            span = len(self.spans["start"])
            for column, value in zip(self.spans.values(), (TRIAL, -1, index, 0.0, 0.0)):
                column.append(value)
        self._stack.append([0.0, span])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.trials += 1
            if span >= 0:
                self.spans["start"][span] = start
                self.spans["end"][span] = end


def write_spans(tracer: Tracer, stem: str) -> None:
    """Write `<stem>.bin` (the span columns back to back) and `<stem>.json`."""
    header = {
        "names": list(SPAN_NAMES),
        "columns": [[name, code, len(tracer.spans[name])] for name, code in SPAN_COLUMNS],
        "byteorder": sys.byteorder,
        "time": "time.perf_counter seconds",
    }
    with open(stem + ".bin", "wb") as fp:
        for name, _ in SPAN_COLUMNS:
            tracer.spans[name].tofile(fp)
    with open(stem + ".json", "w") as fp:
        json.dump(header, fp, indent=1)


def read_spans(stem: str) -> tuple[list[str], dict[str, array]]:
    with open(stem + ".json") as fp:
        header = json.load(fp)
    columns = {}
    with open(stem + ".bin", "rb") as fp:
        for name, code, count in header["columns"]:
            col = array(code)
            col.fromfile(fp, count)
            if header["byteorder"] != sys.byteorder:
                col.byteswap()
            columns[name] = col
    return header["names"], columns


def self_seconds_from_spans(names: list[str], spans: dict[str, array]) -> dict[str, float]:
    """Per-layer self time recomputed from the spans alone."""
    covered = [0.0] * len(spans["start"])
    for span, parent in enumerate(spans["parent"]):
        if parent >= 0:
            covered[parent] += spans["end"][span] - spans["start"][span]
    out = dict.fromkeys(names, 0.0)
    for span, layer in enumerate(spans["layer"]):
        out[names[layer]] += spans["end"][span] - spans["start"][span] - covered[span]
    return out
