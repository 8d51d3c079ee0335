"""Span recorder that reaches each cadfit layer from outside.

``Tracer.install`` replaces every reference to a traced function, in every
loaded module that imported it (the package's own modules and the
benchmark's), with a wrapper that records a span: name, start, end, parent
span and operation id.  ``uninstall`` puts the originals back.  Spans stay
in memory and are written out once, after the run.  Counts are taken at the
same boundaries from the calls' arguments and results, so the program
itself is not changed and an untraced run installs nothing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import astuple, dataclass

import numpy as np

from cadfit import engine, generator, gridio, kernel, metrics, planner, report, sequence, synth
from cadfit.errors import RenderInvalidError

# (span name, module, attribute); a module-level function is replaced
# wherever it is referenced, a method on its class
SPANNED = (
    ("kernel.render", kernel, "render"),
    ("kernel.attribute", kernel, "attribute"),
    ("kernel.surface_points", kernel, "surface_points"),
    ("planner.relative_scores", planner, "relative_scores"),
    ("planner.select_segments", planner, "select_segments"),
    ("generator.infill", generator, "infill"),
    ("engine.run", engine, "run"),
    ("engine.embed_sequence", engine, "embed_sequence"),
    ("engine.queue_push", engine.PriorityQueue, "push"),
    ("metrics.report_for", metrics, "report_for"),
    ("metrics.chamfer", metrics, "chamfer"),
    ("metrics.jsd", metrics, "jsd"),
    ("metrics.iou", metrics, "iou"),
    ("sequence.serialize", sequence, "serialize_sequence"),
    ("sequence.parse", sequence, "parse_sequence"),
    ("sequence.edit_distance", sequence, "edit_distance"),
    ("gridio.read", gridio, "read_tsdf"),
    ("gridio.read", gridio, "read_grid_text"),
    ("gridio.read", gridio, "read_sequence_file"),
    ("gridio.write", gridio, "write_tsdf"),
    ("gridio.write", gridio, "write_grid_text"),
    ("gridio.write", gridio, "write_sequence_file"),
    ("gridio.write", gridio, "write_text_atomic"),
    ("synth.synth", synth, "synth"),
    ("report.run_report", report, "run_report"),
)

# counted, not timed, and only where the named module calls them
COUNTED = (
    ("generator.validate", generator, "validate_sequence"),
    ("synth.mutate", synth, "mutate"),
)


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    op: int  # operation (edit or command) the span belongs to


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _spec_of(args, kwargs):
    if len(args) > 1:
        return args[1]
    return kwargs.get("spec", kernel.GridSpec())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.count: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._names: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._bodies_seen: set = set()
        self._streams_seen: set = set()
        self._serialize = sequence.serialize_sequence

    # -- operations and the benchmark's own spans ---------------------------

    def begin(self, op: int) -> None:
        """Start a new operation: repeats are counted within one operation."""
        self.op = op
        self._bodies_seen = set()
        self._streams_seen = set()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark records around its own calls."""
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        self._names.append(name)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self._names.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = Span(name, start, end, parent, self.op)

    # -- wrapping -------------------------------------------------------------

    def _spanned(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            start = time.perf_counter()
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                tracer._close(idx, name, start)
                tracer._observe(name, args, kwargs, result, error)

        traced.perfbench_original = fn
        return traced

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count[name + ".calls"] += 1
            return fn(*args, **kwargs)

        counted.perfbench_original = fn
        return counted

    def _patch(self, holder, attr: str, wrapper) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in SPANNED:
            fn = getattr(owner, attr)
            wrapper = self._spanned(name, fn)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                namespace = getattr(mod, "__dict__", None)
                if isinstance(namespace, dict) and namespace.get(attr) is fn:
                    self._patch(mod, attr, wrapper)
        for name, owner, attr in COUNTED:
            self._patch(owner, attr, self._counted(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched = []

    # -- counts at the boundaries ---------------------------------------------

    def _observe(self, name, args, kwargs, result, error) -> None:
        c = self.count
        if name in ("kernel.render", "kernel.attribute"):
            seq, spec = args[0], _spec_of(args, kwargs)
            n = spec.resolution
            c["kernel.bodies"] += len(seq.pairs)
            c["kernel.points_evaluated"] += len(seq.pairs) * n**3
            # each body evaluation builds its n^3 x 3 float64 local coordinates
            c["kernel.bytes_computed"] += len(seq.pairs) * n**3 * 3 * 8
            for sketch, ext in seq.pairs:
                key = (sketch, ext, spec)
                c["kernel.body_repeats"] += key in self._bodies_seen
                self._bodies_seen.add(key)
                c["kernel.axis_bodies"] += ext.orientation[1] == 0
            c["kernel.render.invalid"] += isinstance(error, RenderInvalidError)
            if "metrics.report_for" in self._names:
                c["metrics.renders"] += 1
            if "synth.synth" in self._names:
                c["synth.render_attempts"] += 1
            if "engine.run" in self._names:
                c["engine.kernel_passes"] += 1
        elif error is not None:
            return
        elif name == "planner.select_segments":
            c["planner.selected"] += len(result)
            c["planner.segments"] += len(args[0].entries)
        elif name == "generator.infill":
            for cand in result:
                stream = self._serialize(cand.seq)
                c["generator.candidates"] += 1
                c["generator.duplicates"] += stream in self._streams_seen
                self._streams_seen.add(stream)
        elif name == "engine.run":
            c["engine.rounds"] += result.rounds_used
            c["engine.stop." + result.stop_reason] += 1
        elif name == "engine.embed_sequence":
            c["engine.unrenderable"] += not np.isfinite(result).all()
        elif name == "synth.synth":
            c["synth.triplets"] += len(result)
        elif name == "gridio.read" and "gridio.read" not in self._names:
            c["gridio.bytes_read"] += os.path.getsize(args[0])
        elif name == "gridio.write" and "gridio.write" not in self._names:
            c["gridio.bytes_written"] += os.path.getsize(args[0])

    # -- results ----------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as JSON lines: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(astuple(s)) + "\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        calls = Counter(s.name for s in self.spans)
        self_s = Counter()
        for s, own in zip(self.spans, self_times(self.spans)):
            self_s[s.name] += own
        c = self.count

        def share(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {}
        for name in (
            "kernel.render", "kernel.attribute", "planner.relative_scores", "generator.infill",
            "engine.embed_sequence", "engine.queue_push", "metrics.report_for", "sequence.serialize",
        ):
            out[name + ".calls"] = (calls[name], "count")
        for name in (
            "kernel.render", "kernel.attribute", "kernel.surface_points",
            "planner.relative_scores", "planner.select_segments", "generator.infill",
            "engine.run", "engine.embed_sequence", "engine.queue_push",
            "metrics.report_for", "metrics.chamfer", "metrics.jsd", "metrics.iou",
            "sequence.serialize", "sequence.parse", "sequence.edit_distance",
            "gridio.read", "gridio.write", "synth.synth", "report.run_report", "cli",
        ):
            out[name + ".self_s"] = (self_s[name], "s")
        for name in (
            "kernel.bodies", "kernel.points_evaluated", "kernel.bytes_computed", "kernel.render.invalid",
            "generator.candidates", "engine.rounds", "engine.unrenderable", "metrics.renders",
            "gridio.bytes_read", "gridio.bytes_written", "synth.render_attempts",
        ):
            out[name] = (c[name], "bytes" if name.startswith(("gridio.bytes", "kernel.bytes")) else "count")
        for reason in ("epsilon", "empty-mask", "patience", "max-rounds"):
            out["engine.stop." + reason] = (c["engine.stop." + reason], "count")
        out["kernel.body_repeat_share"] = (share("kernel.body_repeats", "kernel.bodies"), "share")
        out["kernel.axis_body_share"] = (share("kernel.axis_bodies", "kernel.bodies"), "share")
        out["planner.masked_share"] = (share("planner.selected", "planner.segments"), "share")
        out["generator.accept_ratio"] = (share("generator.candidates", "generator.validate.calls"), "ratio")
        out["generator.duplicate_share"] = (share("generator.duplicates", "generator.candidates"), "share")
        out["engine.renders_per_round"] = (share("engine.kernel_passes", "engine.rounds"), "count/round")
        out["synth.accept_ratio"] = (share("synth.triplets", "synth.mutate.calls"), "ratio")
        return out
