"""The traced run's instruments: span shims and the self-time split.

The program already records spans for planning, lowering, compiling,
kernel generation, packing and execution.  Layout conversion and the
IATF planning entry points carry none, so for the traced run only
:func:`layer_spans` wraps those public functions in spans of the
benchmark's own; the measured (untraced) runs never install them.

:func:`split` turns the recorded spans into per-layer self times.  A
span's self time is its duration minus the part of it its child spans
cover; the root's own self time is the named residual.  The self times
of a root's whole tree plus the residual equal the root's duration
exactly when every child lies inside its parent and siblings do not
overlap, so the split doubles as a conservation check.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager

#: program or benchmark span name -> the layer its self time counts to
LAYER_OF_SPAN = {
    "layout.interleave": "layout.interleave",
    "layout.deinterleave": "layout.deinterleave",
    "iatf.gemm_compact": "iatf.prepare",
    "iatf.trsm_compact": "iatf.prepare",
    "iatf.prepare_gemm": "iatf.prepare",
    "iatf.prepare_trsm": "iatf.prepare",
    "plan.gemm": "plan.build",
    "plan.trsm": "plan.build",
    "plan.autotune_candidate": "plan.build",
    "lower.plan": "lower",
    "megakernel.compile": "megakernel.compile",
    "codegen.generate": "codegen.generate",
    "codegen.optimize": "codegen.generate",
    "pack.A": "pack",
    "pack.B": "pack",
    "pack.T": "pack",
    "unpack.B": "pack",
    "engine.execute_gemm": "engine.execute",
    "engine.execute_trsm": "engine.execute",
    "engine.kernels": "backend.kernels",
    "backend.parallel.shard": "backend.kernels",
}

#: relative slack for the conservation check (float rounding of
#: microsecond sums only)
CONSERVATION_TOLERANCE = 1e-6

LAYOUT_BYTES = "bench.layout.bytes"


@contextmanager
def layer_spans(obs, compact_batch_cls, iatf_cls):
    """Wrap the layout conversions and the IATF compact/prepare entry
    points in spans, and count the bytes layout conversion moves (read
    plus written) into the ``bench.layout.bytes`` counter."""
    saved = {}

    def patch(cls, name, wrapper):
        saved[(cls, name)] = cls.__dict__[name]
        setattr(cls, name, wrapper)

    interleave = compact_batch_cls.__dict__["from_matrices"].__func__
    deinterleave = compact_batch_cls.__dict__["to_matrices"]

    def from_matrices(cls, matrices, *args, **kwargs):
        with obs.span("layout.interleave"):
            out = interleave(cls, matrices, *args, **kwargs)
        obs.count(LAYOUT_BYTES, matrices.nbytes + out.buffer.nbytes)
        return out

    def to_matrices(self):
        with obs.span("layout.deinterleave"):
            out = deinterleave(self)
        obs.count(LAYOUT_BYTES, self.buffer.nbytes + out.nbytes)
        return out

    def spanned(name):
        func = iatf_cls.__dict__[name]

        def wrapper(self, *args, **kwargs):
            with obs.span(f"iatf.{name}"):
                return func(self, *args, **kwargs)
        return wrapper

    try:
        patch(compact_batch_cls, "from_matrices", classmethod(from_matrices))
        patch(compact_batch_cls, "to_matrices", to_matrices)
        for name in ("gemm_compact", "trsm_compact", "prepare_gemm",
                     "prepare_trsm"):
            patch(iatf_cls, name, spanned(name))
        yield
    finally:
        for (cls, name), original in saved.items():
            setattr(cls, name, original)


class Split:
    """Per-layer self times (microseconds) over a set of root spans."""

    def __init__(self) -> None:
        self.layers: "dict[str, float]" = defaultdict(float)
        self.roots = 0
        self.residual_us = 0.0
        self.worst_error = 0.0      # max relative conservation error

    def per_root_ms(self, layer: str) -> float:
        return self.layers.get(layer, 0.0) / 1e3 / max(self.roots, 1)


def _self_us(span, kids) -> float:
    lo, hi = span.start_us, span.start_us + span.dur_us
    covered, reach = 0.0, lo
    for start, end in sorted((max(lo, k.start_us),
                              min(hi, k.start_us + k.dur_us)) for k in kids):
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return span.dur_us - covered


def children_index(spans) -> "dict[str, list]":
    kids = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            kids[s.parent_id].append(s)
    return kids


def split(spans, root_name: str, kids=None) -> Split:
    """Self times of every span below each ``root_name`` span, by layer
    (unmapped names count to ``"other"``), plus the roots' residual."""
    kids = children_index(spans) if kids is None else kids
    out = Split()
    for root in spans:
        if root.name != root_name:
            continue
        tree_us = 0.0
        stack = list(kids.get(root.span_id, ()))
        while stack:
            s = stack.pop()
            own = _self_us(s, kids.get(s.span_id, ()))
            out.layers[LAYER_OF_SPAN.get(s.name, "other")] += own
            tree_us += own
            stack.extend(kids.get(s.span_id, ()))
        residual = _self_us(root, kids.get(root.span_id, ()))
        out.roots += 1
        out.residual_us += residual
        if root.dur_us > 0:
            err = abs(tree_us + residual - root.dur_us) / root.dur_us
            out.worst_error = max(out.worst_error, err)
    return out


def totals_ms(spans, kids=None) -> "dict[str, float]":
    """Self time per layer over every recorded span, set-up included."""
    kids = children_index(spans) if kids is None else kids
    acc: "dict[str, float]" = defaultdict(float)
    for s in spans:
        layer = LAYER_OF_SPAN.get(s.name)
        if layer is not None:
            acc[layer] += _self_us(s, kids.get(s.span_id, ())) / 1e3
    return acc


def count_spans(spans, name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def write_trace(obs, registry, path) -> int:
    """Export the registry's spans as a Chrome trace, validate it with
    the program's own validator, and write it; returns the event count.
    Raises ``ValueError`` when the trace does not validate."""
    trace = obs.chrome_trace(registry)
    obs.validate_chrome_trace(trace)
    with open(path, "w") as f:
        json.dump(trace, f)
    return len(trace["traceEvents"])
