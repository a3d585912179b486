"""Per-layer tracing from outside the program.

:func:`install` wraps public functions of ``lowdisc`` at every module
attribute that refers to them (``lowdisc.cli.compute_discrepancy``,
``lowdisc.experiments.stream``, the ``star_disc_*`` globals the dispatcher
calls, ``PointSet.rows``, ...), so every caller inside the package goes
through the wrapper.  Most wrappers record a span (name, start, end, parent,
info, paused); a few functions called per point only count calls and time.
Spans stay in memory until :meth:`Tracer.dump`; :meth:`Tracer.remove`
restores the original functions.  A layer's time is its span less
``paused``, the time the tracer's own hooks ran inside it; its self time is
that less the time of its child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from fractions import Fraction

# (name, unit) of every per-layer metric, in report order.  ``K`` in the
# discrepancy rows ranges over the kernels in KERNELS.
KERNELS = (
    "star_disc_1d",
    "extreme_disc_1d",
    "star_disc_2d_sweep",
    "star_disc_exact",
    "star_disc_bracket",
    "extreme_disc_grid",
)
STREAM_FAMILIES = ("halton", "kronecker", "hybrid", "digitsum", "power-ratio", "lattice")
DIOPHANTINE = ("zaremba_scan", "moser_scan", "littlewood_scan", "largest_quotient_2k_sqrt2", "schmidt_count")
LAYER_METRICS = (
    [
        ("cli.import_s", "s"),
        ("cli.processes", "count"),
        ("pointio.parse_spec.s", "s"),
        ("pointio.write_points.s", "s"),
        ("pointio.write_points.bytes", "bytes"),
        ("pointio.read_points.s", "s"),
        ("pointio.read_points.rows", "count"),
        ("generators.stream.s", "s"),
        ("generators.stream.points", "count"),
    ]
    + [(f"generators.stream.{f}.s", "s") for f in STREAM_FAMILIES]
    + [
        ("generators.PointSet.rows.calls", "count"),
        ("generators.PointSet.rows.s", "s"),
        ("generators.rows_per_disc", "ratio"),
        ("algebra.mat_vec_mod_q.calls", "count"),
        ("algebra.mat_vec_mod_q.s", "s"),
        ("algebra.FixedPointReal.from_fraction.calls", "count"),
        ("discrepancy.compute_discrepancy.calls", "count"),
        ("discrepancy.compute_discrepancy.self_s", "s"),
    ]
    + [m for k in KERNELS for m in ((f"discrepancy.{k}.calls", "count"), (f"discrepancy.{k}.self_s", "s"))]
    + [
        ("discrepancy.refusals", "count"),
        ("discrepancy.star_disc_exact.corners", "count"),
        ("discrepancy.star_disc_bracket.cells", "count"),
        ("discrepancy.bracket.halfwidth_max", "1"),
        ("experiments.run_scaling.self_s", "s"),
        ("experiments.rows", "count"),
        ("experiments.rows_failed", "count"),
        ("experiments.regen_ratio", "ratio"),
        ("experiments.scaling_csv.s", "s"),
        ("experiments.lattice_scan.s", "s"),
    ]
    + [(f"diophantine.{f}.s", "s") for f in DIOPHANTINE]
    + [
        ("diophantine.cf_rational.calls", "count"),
        ("trace.overhead_s", "s"),
    ]
)

_FAMILY = {
    "Halton": "halton",
    "Kronecker": "kronecker",
    "Digital": "digital",
    "DigitalKronecker": "digital-kronecker",
    "Lattice": "lattice",
    "RationalNet": "rational-net",
    "Hammersley": "hammersley",
    "PowerRatio": "power-ratio",
    "DigitSumFiltered": "digitsum",
    "Hybrid": "hybrid",
}
_FINITE = ("Lattice", "Hammersley", "RationalNet")


def _is_finite(spec) -> bool:
    """Finite families are rebuilt at each N of a schedule; a prefix of an
    infinite family would serve every row of the table."""
    name = type(spec).__name__
    if name == "Hybrid":
        return _is_finite(spec.left) or _is_finite(spec.right)
    if name == "DigitSumFiltered":
        return _is_finite(spec.inner)
    return name in _FINITE


def _write_pos(args, kwargs) -> dict:
    return {"pos": args[1].tell()}


def _write_bytes(record, args, result) -> None:
    record[4]["bytes"] = args[1].tell() - record[4]["pos"]


def _read_rows(record, args, result) -> None:
    record[4] = {"rows": len(result.rows)}


def _stream_info(args, kwargs) -> dict:
    return {"family": _FAMILY.get(type(args[0]).__name__, "other"), "points": args[2]}


def _scaling_rows(record, args, result) -> None:
    plan = args[0]
    needed = sum(plan.schedule) if _is_finite(plan.spec) else max(plan.schedule)
    record[4] = {"needed": needed, "rows": len(result), "failed": sum(r.error is not None for r in result)}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, info, paused]
        self._stack: list[int] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []
        self._rows = None

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, info=None, after=None):
        """Wrap ``fn`` in a span.  ``info(args, kwargs)`` labels the span
        before the call; ``after(record, args, result)`` runs after the span
        closes, and its time is booked as paused in every span still open,
        so that it stays out of every layer's time."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, info(args, kwargs) if info else None, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = clock()
                stack.pop()
                record[4] = dict(record[4] or {}, error=type(exc).__name__)
                raise
            record[2] = clock()
            stack.pop()
            if after:
                start = clock()
                after(record, args, result)
                paused = clock() - start
                for open_span in stack:
                    spans[open_span][5] += paused
            return result

        return wrapper

    def counter(self, name: str, fn, timed: bool):
        """Wrap a per-point function in a call counter (and a timer)."""
        calls, seconds = self.calls, self.seconds
        clock = time.perf_counter
        if not timed:
            def counting(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counting

        def timing(*args, **kwargs):
            calls[name] += 1
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - t
        return timing

    # -- installation ------------------------------------------------------

    def _replace(self, modules, original, wrapped) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def install(self) -> None:
        import lowdisc
        from lowdisc import algebra, cli, diophantine, discrepancy, experiments, generators, pointio

        modules = (lowdisc, algebra, cli, diophantine, discrepancy, experiments, generators, pointio)
        span, counter = self.span, self.counter

        def wrap(module, fname, make) -> None:
            original = getattr(module, fname)
            self._replace(modules, original, make(original))

        def layer(module, fname, prefix, **hooks) -> None:
            wrap(module, fname, lambda f: span(f"{prefix}.{fname}", f, **hooks))

        pointset = generators.PointSet
        layer(cli, "main", "cli")
        layer(pointio, "parse_spec", "pointio")
        layer(pointio, "write_points", "pointio", info=_write_pos, after=_write_bytes)
        layer(pointio, "read_points", "pointio", after=_read_rows)
        layer(generators, "stream", "generators", info=_stream_info)
        self._rows = pointset.rows
        self._set_attr(pointset, "rows", span("generators.PointSet.rows", pointset.rows))
        wrap(algebra, "mat_vec_mod_q", lambda f: counter("algebra.mat_vec_mod_q", f, timed=True))
        original = vars(algebra.FixedPointReal)["from_fraction"]
        self._set_attr(algebra.FixedPointReal, "from_fraction", classmethod(
            counter("algebra.FixedPointReal.from_fraction", original.__func__, timed=False)))
        layer(discrepancy, "compute_discrepancy", "discrepancy",
              info=lambda a, kw: {"pointset": isinstance(a[0], pointset)})
        hooks = {"star_disc_exact": self._count_corners, "star_disc_bracket": self._bracket_cells}
        for kernel in KERNELS:
            layer(discrepancy, kernel, "discrepancy", after=hooks.get(kernel))
        layer(experiments, "run_scaling", "experiments", after=_scaling_rows)
        layer(experiments, "scaling_csv", "experiments")
        layer(experiments, "lattice_scan", "experiments")
        for name in DIOPHANTINE:
            layer(diophantine, name, "diophantine")
        wrap(diophantine, "cf_rational", lambda f: counter("diophantine.cf_rational", f, timed=False))

    def _set_attr(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- hooks run after a span closed ---------------------------------------

    def _points(self, points) -> list:
        if isinstance(points, (list, tuple)):
            return [tuple(Fraction(c) for c in p) for p in points]
        return self._rows(points)

    def _count_corners(self, rec, args, result) -> None:
        """Corners of the critical grid, computed from the input points."""
        rows = self._points(args[0])
        corners = 1
        for j in range(len(rows[0])):
            corners *= len({r[j] for r in rows} | {Fraction(1)})
        rec[4] = {"corners": corners}

    def _bracket_cells(self, rec, args, result) -> None:
        """Cells of the bracket lattice, computed from k and the dimension."""
        rec[4] = {"cells": (args[1] + 1) ** result.dim, "halfwidth": float(result.half_width)}

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info", "paused"], "spans": self.spans}, fh)

    def metrics(self) -> dict[str, float]:
        """Aggregate the spans and counters into the per-layer metrics
        (all but cli.import_s and trace.overhead_s, which need other runs)."""
        spans = self.spans
        durations = [end - start - paused for _, start, end, _, _, paused in spans]
        child = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                child[span[3]] += durations[i]

        def ancestor(i, name):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] == name:
                    return parent
                parent = spans[parent][3]
            return -1

        out: dict[str, float] = {name: 0 for name, _ in LAYER_METRICS}
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, *_) in enumerate(spans):
            dur = durations[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            if ancestor(i, name) < 0:  # outermost span of a recursive layer
                total[name] += dur
        out["cli.processes"] = calls["cli.main"]
        for layer in ("pointio.parse_spec", "pointio.write_points", "pointio.read_points",
                      "generators.stream", "experiments.scaling_csv", "experiments.lattice_scan"):
            out[f"{layer}.s"] = total[layer]
        for name in DIOPHANTINE:
            out[f"diophantine.{name}.s"] = total[f"diophantine.{name}"]
        out["generators.PointSet.rows.calls"] = calls["generators.PointSet.rows"]
        out["generators.PointSet.rows.s"] = total["generators.PointSet.rows"]
        out["discrepancy.compute_discrepancy.calls"] = calls["discrepancy.compute_discrepancy"]
        out["discrepancy.compute_discrepancy.self_s"] = self_s["discrepancy.compute_discrepancy"]
        for kernel in KERNELS:
            out[f"discrepancy.{kernel}.calls"] = calls[f"discrepancy.{kernel}"]
            out[f"discrepancy.{kernel}.self_s"] = self_s[f"discrepancy.{kernel}"]
        out["experiments.run_scaling.self_s"] = self_s["experiments.run_scaling"]
        for counter in ("algebra.mat_vec_mod_q", "algebra.FixedPointReal.from_fraction",
                        "diophantine.cf_rational"):
            out[f"{counter}.calls"] = self.calls[counter]
        out["algebra.mat_vec_mod_q.s"] = self.seconds["algebra.mat_vec_mod_q"]

        pointset_discs = rows_in_discs = streamed = needed = 0
        halfwidths = [0.0]
        for i, (name, _, _, _, info, _) in enumerate(spans):
            info = info or {}
            if name == "pointio.write_points":
                out["pointio.write_points.bytes"] += info.get("bytes", 0)
            elif name == "pointio.read_points":
                out["pointio.read_points.rows"] += info.get("rows", 0)
            elif name == "generators.stream":
                out["generators.stream.points"] += info["points"]
                if ancestor(i, name) < 0:
                    key = f"generators.stream.{info['family']}.s"
                    if key in out:
                        out[key] += durations[i]
                if ancestor(i, "experiments.run_scaling") >= 0:
                    streamed += info["points"]
            elif name == "generators.PointSet.rows":
                disc = ancestor(i, "discrepancy.compute_discrepancy")
                if disc >= 0 and spans[disc][4]["pointset"]:
                    rows_in_discs += 1
            elif name == "discrepancy.compute_discrepancy":
                pointset_discs += info["pointset"]
                out["discrepancy.refusals"] += info.get("error") == "BudgetError"
            elif name == "discrepancy.star_disc_exact":
                out["discrepancy.star_disc_exact.corners"] += info.get("corners", 0)
            elif name == "discrepancy.star_disc_bracket" and "cells" in info:
                out["discrepancy.star_disc_bracket.cells"] += info["cells"]
                halfwidths.append(info["halfwidth"])
            elif name == "experiments.run_scaling" and "rows" in info:
                out["experiments.rows"] += info["rows"]
                out["experiments.rows_failed"] += info["failed"]
                needed += info["needed"]
        out["generators.rows_per_disc"] = rows_in_discs / pointset_discs if pointset_discs else 0
        out["discrepancy.bracket.halfwidth_max"] = max(halfwidths)
        out["experiments.regen_ratio"] = streamed / needed if needed else 0
        return out
