"""Outside-in tracing of the seshadri layers.

The traced run rebinds module attributes that the pipeline looks up at
call time (``seshadri.certify.split_by_affine``, ``seshadri.oracle.modrank``
and so on) to wrappers that record spans.  Nothing in the library changes,
and ``installed`` puts every original back when it exits.

A span records its name, start, end, parent span and operation id; spans
are kept in memory.  A span's self time is its duration minus the
durations of its children.  Every layer metric below is a sum of self
times, so the layer times of an operation add up to its wall time, less
the benchmark's own glue inside the operation.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

import seshadri.certify as certify
import seshadri.oracle as oracle

OP = "op"

# span name -> metric that receives its self time
SELF_TIME = {
    "certify.finite_certificate": "certify.self_s",
    "certify.verify": "certify.self_s",
    "certify.validate": "certify.validate_s",
    "certify.bound": "certify.bound_s",
    "certify.json": "certify.json_s",
    "geometry.profile": "geometry.profile_s",
    "reorder.rearrange": "reorder.rearrange_s",
    "lattice.enumerate": "lattice.enumerate_s",
    "lattice.split": "lattice.split_s",
    "lattice.witness": "lattice.witness_s",
    "oracle.modp": "oracle.modp_build_s",
    "oracle.exact": "oracle.exact_build_s",
    "oracle.exact_build": "oracle.exact_build_s",
    "oracle.exact_rank": "oracle.exact_rank_s",
    "kernels.modrank": "kernels.modrank_s",
}

# span name -> metric that counts its calls
CALLS = {
    "certify.validate": "certify.validate_calls",
    "geometry.profile": "geometry.calls",
    "reorder.rearrange": "reorder.calls",
    "oracle.modp": "oracle.calls",
    "oracle.exact": "oracle.calls",
    "oracle.exact_rank": "oracle.rank_calls",
    "kernels.modrank": "oracle.rank_calls",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "attrs": self.attrs}


def _matrix_note(args, rank) -> dict:
    rows = args[0]
    return {"rows": len(rows), "cols": len(rows[0]) if rows else 0, "rank": rank}


def _modrank_note(args, rank) -> dict:
    note = _matrix_note(args, rank)
    r, c = note["rows"], note["cols"]
    # computed, not counted: one multiply-mod per entry updated when pivot
    # row i clears the rows below it, pivots taken on the diagonal
    note["ops"] = sum((r - 1 - i) * (c - i) for i in range(rank))
    return note


def _verdict_note(_args, verdict) -> dict:
    return {"non_special": verdict.non_special}


def targets():
    """(owner, attribute, span name, note) for every rebound attribute."""
    return [
        (certify, "finite_certificate", "certify.finite_certificate", None),
        (certify, "verify_asymptotic", "certify.verify", None),
        (certify, "validate_dissection", "certify.validate", None),
        (certify, "certified_bound", "certify.bound", None),
        (certify, "dissection_from_json", "certify.json", None),
        (certify, "dump_json", "certify.json", None),
        (certify.FiniteCertificate, "to_json", "certify.json", None),
        (certify.AsymptoticReport, "to_json", "certify.json", None),
        (certify, "height_profile", "geometry.profile", None),
        (certify, "x_projection", "geometry.profile", None),
        (certify, "monotone_reorder", "reorder.rearrange", None),
        (certify, "sup_admissible", "reorder.rearrange", None),
        (certify, "scaled_points", "lattice.enumerate",
         lambda args, pts: {"points": len(pts)}),
        (certify, "split_by_affine", "lattice.split",
         lambda args, parts: {"points": len(args[0])}),
        (certify, "column_profile", "lattice.witness", None),
        (certify, "max_parallel_witness", "lattice.witness", None),
        (certify, "select_witness_subset", "lattice.witness", None),
        (certify, "system_dimension_modp", "oracle.modp", _verdict_note),
        (certify, "system_dimension_exact", "oracle.exact", _verdict_note),
        (oracle, "interpolation_matrix", "oracle.exact_build", None),
        (oracle, "fraction_free_rank", "oracle.exact_rank", _matrix_note),
        (oracle, "modrank", "kernels.modrank", _modrank_note),
    ]


class Tracer:
    """Span recorder; spans stay in memory until the run writes them out."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._ops = 0

    @contextmanager
    def span(self, name: str):
        attrs: Dict[str, object] = {}
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self._op, attrs)

    @contextmanager
    def op(self, name: str):
        """Root span of one benchmark operation; children share its id."""
        self._op = self._ops
        self._ops += 1
        try:
            with self.span(OP) as attrs:
                attrs["op"] = name
                yield
        finally:
            self._op = None

    def wrap(self, name: str, fn: Callable, note=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if note is not None:
                    attrs.update(note(args, result))
                return result
        return traced

    @contextmanager
    def installed(self):
        """Rebind every target to its traced wrapper; restore on exit."""
        saved = []
        try:
            for owner, attr, name, note in targets():
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, note))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def layer_metrics(spans: List[Span], first: int = 0) -> Dict[str, float]:
    """Per-layer totals of ``spans[first:]``, counting only spans that
    belong to an operation.  Parent indices refer to the whole list."""
    window = spans[first:]
    child = [0.0] * len(window)
    for s in window:
        if s.parent is not None and s.parent >= first:
            child[s.parent - first] += s.end - s.start
    out: Dict[str, float] = {name: 0.0 for name in SELF_TIME.values()}
    out.update({name: 0 for name in CALLS.values()})
    for name in ("lattice.enumerated_points", "lattice.split_points",
                 "oracle.cells", "kernels.modrank_calls", "kernels.modrank_ops"):
        out[name] = 0
    op_wall = layer_self = 0.0
    non_special = 0
    for s, child_time in zip(window, child):
        if s.op is None:
            continue
        if s.name == OP:
            op_wall += s.end - s.start
            continue
        self_time = s.end - s.start - child_time
        layer_self += self_time
        out[SELF_TIME[s.name]] += self_time
        if s.name in CALLS:
            out[CALLS[s.name]] += 1
        if s.name == "lattice.enumerate":
            out["lattice.enumerated_points"] += s.attrs["points"]
        elif s.name == "lattice.split":
            out["lattice.split_points"] += s.attrs["points"]
        elif s.name in ("oracle.modp", "oracle.exact"):
            non_special += s.attrs["non_special"]
        elif s.name in ("oracle.exact_rank", "kernels.modrank"):
            out["oracle.cells"] += s.attrs["rows"] * s.attrs["cols"]
            if s.name == "kernels.modrank":
                out["kernels.modrank_calls"] += 1
                out["kernels.modrank_ops"] += s.attrs["ops"]
    calls = out["oracle.calls"]
    out["oracle.non_special_ratio"] = non_special / calls if calls else 0.0
    busy = out["kernels.modrank_s"]
    out["kernels.modrank_rate"] = out["kernels.modrank_ops"] / busy if busy else 0.0
    out["trace.self_share"] = layer_self / op_wall if op_wall else 0.0
    return out
