"""Layer spans recorded from outside the library.

The benchmark never edits the program.  It replaces the module-level names
that callers look up at call time (for example
``dwimoco.registration.loss_and_gradient``, which ``optimize_fields``
resolves through its own module globals) with thin wrappers, so every call
crossing a layer boundary opens a span.  A span holds its name, start, end,
the id of the span that was open when it began (its parent) and the id of
the benchmark run it belongs to (a set-up repetition or a timed unit).
Spans stay in memory and are written out once, when the benchmark ends.

Some wrappers also derive counts at the same boundary: bytes moved by a
kernel, computed from the sizes of the arrays it reads and writes (cache
behaviour is ignored, so they are labelled as computed), and step counts
read from the values a layer returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


def _array_bytes(*arrays) -> int:
    return int(sum(a.nbytes for a in arrays if isinstance(a, np.ndarray)))


def _match_terms_bytes(args, _result) -> dict:
    # reads vol, disp, fixed, pred_log, roi and grad_out; writes grad_out
    return {"bytes_computed": _array_bytes(*args[:5], args[8]) + _array_bytes(args[8])}


def _adam_update_bytes(args, _result) -> dict:
    # reads x, g, m, v; writes x, m, v
    x, g, m, v = args[:4]
    return {"bytes_computed": _array_bytes(x, g, m, v) + _array_bytes(x, m, v)}


def _optimizer_counts(_args, result) -> dict:
    """Steps, learning-rate drops and improving steps from the returned trace.

    The trace holds one LossBreakdown per evaluation, the initial one first.
    A drop happens on every step whose loss exceeds the previous step's
    (the rule in ``registration.adam_minimize``); a step improves when it
    lowers the best loss seen so far.
    """
    _fields, trace = result
    totals = [bd.total for bd in trace]
    drops = sum(1 for a, b in zip(totals, totals[1:]) if b > a)
    improving = 0
    best = totals[0]
    for t in totals[1:]:
        if t < best:
            improving += 1
            best = t
    return {"inner_steps": len(totals) - 1, "lr_drops": drops, "improving_steps": improving}


def _case_counts(_args, result) -> dict:
    return {"outer_iters": len(result.records)}


def _case_dir_bytes(args, _result) -> dict:
    case_dir = Path(args[0]).parent
    return {"bytes_read": int(sum(p.stat().st_size for p in case_dir.iterdir() if p.is_file()))}


# span name -> (module:attribute names that callers resolve at call time,
#               optional function deriving counts from (args, result))
LAYERS = {
    "cli.main": (["dwimoco.cli:main"], None),
    "io.read_case": (["dwimoco.io:read_case"], _case_dir_bytes),
    "io.write_case_report": (["dwimoco.io:write_case_report"], None),
    "pipeline.run_case": (["dwimoco.pipeline:run_case", "dwimoco.cli:run_case"], _case_counts),
    "registration.optimize_fields": (["dwimoco.pipeline:optimize_fields"], _optimizer_counts),
    "objective.loss_and_gradient": (["dwimoco.registration:loss_and_gradient"], None),
    "objective.total_loss": (["dwimoco.pipeline:total_loss"], None),
    "_kernels.match_terms": (["dwimoco._kernels:match_terms"], _match_terms_bytes),
    "_kernels.smooth_loss_grad": (["dwimoco._kernels:smooth_loss_grad"], None),
    "_kernels.adam_update": (["dwimoco._kernels:adam_update"], _adam_update_bytes),
    "_kernels.warp3d": (["dwimoco._kernels:warp3d"], None),
    "volume.warp_series": (
        ["dwimoco.pipeline:warp_series", "dwimoco.objective:warp_series"], None
    ),
    "volume.compose_displacements": (["dwimoco.pipeline:compose_displacements"], None),
    "signal_model.lls_fit": (["dwimoco.pipeline:lls_fit", "dwimoco.cli:lls_fit"], None),
    "signal_model.reconstruct": (["dwimoco.pipeline:reconstruct"], None),
    "signal_model.irls_fit": (["dwimoco.pipeline:irls_fit", "dwimoco.cli:irls_fit"], None),
    "signal_model.irls_fit_volume": (["dwimoco.cli:irls_fit_volume"], None),
    "maturity.fit_saturation": (["dwimoco.pipeline:fit_saturation"], None),
    "phantom.simulate": (
        [
            "dwimoco.phantom:make_phantom",
            "dwimoco.phantom:simulate_series",
            "dwimoco.phantom:apply_synthetic_motion",
        ],
        None,
    ),
}


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Probe:
    """Wraps the layer names; records spans and keeps chosen return values.

    With ``trace`` off only the names in ``capture`` are wrapped, and those
    wrappers record nothing but the returned value, so the end-to-end runs
    pay one extra Python call per captured call and nothing else.  Probes
    that share a ``spans`` list number their spans in one sequence; every
    span a probe records carries its ``run`` id.
    """

    def __init__(self, trace: bool, capture=(), spans=None, run: str = ""):
        self.trace = trace
        self.capture = set(capture)
        self.spans: list[Span] = [] if spans is None else spans
        self.captured: dict = {name: [] for name in self.capture}
        self.run = run
        self._stack: list[Span] = []
        self._saved: list = []

    def __enter__(self):
        names = LAYERS if self.trace else {n: LAYERS[n] for n in self.capture}
        for name, (targets, counter) in names.items():
            for target in targets:
                mod_name, attr = target.split(":")
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original, counter))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, counter):
        keep = name in self.capture
        if not self.trace:

            @functools.wraps(fn)
            def capture_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.captured[name].append(result)
                return result

            return capture_only

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, self.run, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            if keep:
                self.captured[name].append(result)
            return result

        return traced

    def take(self, name):
        """Return and forget the values captured for one layer name."""
        values = self.captured[name]
        self.captured[name] = []
        return values



def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    child_time: dict = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    return {s.id: (s.end - s.start) - child_time.get(s.id, 0.0) for s in spans}


def per_run_totals(spans) -> dict:
    """run id -> layer name -> {"s": self time, "incl_s": span time, "calls": n,
    <count>: sum}."""
    own = self_times(spans)
    out: dict = {}
    for s in spans:
        row = out.setdefault(s.run, {}).setdefault(s.name, {"s": 0.0, "incl_s": 0.0, "calls": 0})
        row["s"] += own[s.id]
        row["incl_s"] += s.end - s.start
        row["calls"] += 1
        for key, value in s.counts.items():
            row[key] = row.get(key, 0) + value
    return out


def nesting_problems(spans) -> list:
    """Spans whose parent is missing, in another run, or does not contain them."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    problems = []
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} {s.name} ends before it starts")
        if own[s.id] < -1e-9:
            problems.append(f"span {s.id} {s.name} has negative self time {own[s.id]}")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"span {s.id} {s.name} has unknown parent {s.parent}")
        elif p.run != s.run or s.start < p.start or s.end > p.end:
            problems.append(f"span {s.id} {s.name} lies outside parent {p.id} {p.name}")
    return problems


def write_spans(spans, path) -> None:
    """One JSON object per span and line."""
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")
