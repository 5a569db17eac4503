"""Layer spans recorded from outside the program.

``installed(tracer)`` rebinds the public names where ``qoverpart`` looks them
up at call time (module globals of ``harness``, ``cli`` and ``bijections``,
and two ``LaurentSeries`` operators) to wrappers that record a span per call,
and restores them on exit.  No source file of the program changes.

A span is ``[name, start, end, parent, tag, work]``: ``parent`` is the index
of the enclosing span, ``tag`` the class kind of a ``count_class`` call, and
``work`` an exact counter (objects counted or listed, coefficient pairs
multiplied, terms summed).  Spans stay in memory; ``layer_metrics`` reduces
them.  A layer's self time is its span's duration minus the part of it that
its child spans cover; children can overlap when they come from pool workers.

Pool workers are forked with the wrappers in place.  A worker ships the
spans of each ``verify`` call back on the report it returns, and the
``verify_all`` wrapper adopts them under the span that started the pool.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, TAG, WORK = range(6)

CLASS_KINDS = ("partition", "overpartition", "pairs", "special")
SIDE_KINDS = ("enum-count", "series-sum", "series-product", "pair-count", "map-image")

# Spans reported with calls and self time, and the name of their counter.
LAYERS = {
    "enumerators.count_class": "objects",
    "enumerators.enumerate_class": "objects",
    "series.mul": "coeff_pairs",
    "series.add": None,
    "series.pochhammer": None,
    "series.apply_inverse_factors": None,
    "series.sum_terms": "terms",
    "bijections.forward": None,
    "partitions.conjugate": None,
    "harness.verify": None,
}

# Side kind of a layer span whose parent is a ``verify`` span (or the
# ``cli.run`` span of a ``coeff`` command, which computes sides directly).
SIDE_OF = {
    "enumerators.enumerate_class": "map-image",
    "bijections.forward": "map-image",
    "series.sum_terms": "series-sum",
    "series.mul": "series-sum",
    "series.add": "series-sum",
    "series.apply_inverse_factors": "series-product",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name, counter in LAYERS.items():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if counter:
            units[f"{name}.{counter}"] = "count"
    for kind in CLASS_KINDS:
        units[f"enumerators.count_class.{kind}.self_s"] = "s"
    units["harness.render.s"] = "s"
    for kind in SIDE_KINDS:
        units[f"harness.side_kind.{kind}.s"] = "s"
    units["harness.critical_id_s"] = "s"
    units["cli.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def is_counter(metric: str) -> bool:
    return metric_units()[metric] == "count"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pid = os.getpid()

    def open(self, name: str, tag: str | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, tag, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self.stack.pop()

    def adopt(self, shipped: list[list]) -> None:
        """Append spans recorded in a worker under the currently open span."""
        base = len(self.spans)
        here = self.stack[-1] if self.stack else None
        for span in shipped:
            span[PARENT] = here if span[PARENT] is None else span[PARENT] + base
            self.spans.append(span)

    def timed(self, name, fn, work=None, tag=None):
        """``fn`` wrapped in a span; ``work(args, result)`` sets the counter."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name, tag(*args) if tag else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if work:
                self.spans[idx][WORK] = work(args, result)
            return result

        return wrapper


def _coeff_pairs(args, result) -> int:
    a, b = args
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


@contextmanager
def installed(tracer: Tracer):
    """Rebind the program's layer entry points to traced wrappers."""
    from qoverpart import bijections, cli, enumerators, harness
    from qoverpart.series import LaurentSeries

    saved = []

    def rebind(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    rebind(harness, "count_class", tracer.timed(
        "enumerators.count_class", harness.count_class,
        work=lambda args, result: result,
        tag=lambda class_id, n: enumerators.class_kind(class_id)))
    rebind(harness, "enumerate_class", tracer.timed(
        "enumerators.enumerate_class", harness.enumerate_class,
        work=lambda args, result: len(result)))
    for attr in ("pochhammer", "apply_inverse_factors"):
        rebind(harness, attr, tracer.timed(f"series.{attr}", getattr(harness, attr)))
    rebind(LaurentSeries, "__mul__", tracer.timed(
        "series.mul", LaurentSeries.__mul__, work=_coeff_pairs))
    rebind(LaurentSeries, "__add__", tracer.timed("series.add", LaurentSeries.__add__))
    rebind(bijections, "conjugate", tracer.timed("partitions.conjugate", bijections.conjugate))

    sum_terms = harness.sum_terms

    def traced_sum_terms(terms, *args, **kwargs):
        idx = tracer.open("series.sum_terms")
        span = tracer.spans[idx]

        def counted():
            for term in terms:
                span[WORK] += 1
                yield term

        try:
            return sum_terms(counted(), *args, **kwargs)
        finally:
            tracer.close(idx)

    rebind(harness, "sum_terms", traced_sum_terms)

    get_map = harness.get_map

    def traced_get_map(map_id):
        spec = get_map(map_id)
        return dataclasses.replace(
            spec, forward=tracer.timed("bijections.forward", spec.forward))

    rebind(harness, "get_map", traced_get_map)

    timed_verify = tracer.timed("harness.verify", harness.verify)

    def traced_verify(*args, **kwargs):
        mark = len(tracer.spans)
        report = timed_verify(*args, **kwargs)
        if os.getpid() != tracer.pid:
            shipped = tracer.spans[mark:]
            del tracer.spans[mark:]
            for span in shipped:
                parent = span[PARENT]
                span[PARENT] = None if parent is None or parent < mark else parent - mark
            report.trace_spans = shipped
        return report

    rebind(harness, "verify", traced_verify)
    rebind(cli, "verify", traced_verify)

    verify_all = cli.verify_all

    def traced_verify_all(*args, **kwargs):
        reports = verify_all(*args, **kwargs)
        for report in reports:
            tracer.adopt(report.__dict__.pop("trace_spans", []))
        return reports

    rebind(cli, "verify_all", traced_verify_all)
    for attr in ("render_records", "render_csv", "render_table"):
        rebind(cli, attr, tracer.timed("harness.render", getattr(cli, attr)))
    rebind(cli, "run", tracer.timed("cli.run", cli.run))
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for start, end in sorted(children.get(i, ())):
            if hi is None or start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = start, end
            else:
                hi = max(hi, end)
        if hi is not None:
            covered += hi - lo
        out.append(span[END] - span[START] - covered)
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer calls, self times, counters and side-kind times of one pass.

    ``trace.wall_s`` and ``trace.overhead_ratio`` are left at 0 for the
    caller, which times the pass.
    """
    metrics = {name: 0 for name in metric_units()}
    selfs = self_times(spans)
    side_parents = {i for i, s in enumerate(spans)
                    if s[NAME] in ("harness.verify", "cli.run")}
    for span, self_s in zip(spans, selfs):
        name = span[NAME]
        duration = span[END] - span[START]
        if name in LAYERS:
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += self_s
            if LAYERS[name]:
                metrics[f"{name}.{LAYERS[name]}"] += span[WORK]
        if name == "enumerators.count_class":
            metrics[f"enumerators.count_class.{span[TAG]}.self_s"] += self_s
        elif name == "harness.render":
            metrics["harness.render.s"] += duration
        elif name == "cli.run":
            metrics["cli.self_s"] += self_s
        if name == "harness.verify":
            metrics["harness.critical_id_s"] = max(metrics["harness.critical_id_s"], duration)
        if span[PARENT] in side_parents:
            if name == "enumerators.count_class":
                kind = "pair-count" if span[TAG] == "pairs" else "enum-count"
            else:
                kind = SIDE_OF.get(name)
            if kind:
                metrics[f"harness.side_kind.{kind}.s"] += duration
    return metrics
