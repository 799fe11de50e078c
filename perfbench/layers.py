"""Per-layer figures from collected spans.

The benchmark does not instrument the program: it reads the spans the
program already emits (``pipeline.*``, ``tiered.*``, ``serve.request``
and the server spans stitched under each ``serve.client.request``) plus
the spans the benchmark itself opens around public calls it times
(``db.load``, ``db.preprocess``, ``wire.encode``, ``wire.decode``).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np

from repro import Workload, write_chrome_trace

def union_seconds(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``(start, end)`` intervals clipped to [lo, hi]."""
    clipped = sorted(
        (max(s, lo), min(e, hi)) for s, e in intervals if e > lo and s < hi
    )
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def inside(span, wins) -> bool:
    """Whether ``span`` lies within one of the ``(start, end)`` windows."""
    return any(lo <= span.start_wall and span.end_wall <= hi for lo, hi in wins)


def attr_sum(spans, key: str) -> int:
    return sum(int(s.attributes.get(key, 0)) for s in spans)


class SpanSet:
    """Finished spans indexed by name and parent."""

    def __init__(self, spans):
        self.spans = [s for s in spans if s.end_wall is not None]
        self.by_id = {s.span_id: s for s in self.spans}
        self.children: dict[int, list] = {}
        for s in self.spans:
            if s.parent_id is not None:
                self.children.setdefault(s.parent_id, []).append(s)

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.wall_seconds for s in self.named(name))

    def self_seconds(self, span) -> float:
        """Duration minus the part covered by the span's children."""
        kids = [(c.start_wall, c.end_wall)
                for c in self.children.get(span.span_id, ())]
        return span.wall_seconds - union_seconds(
            kids, span.start_wall, span.end_wall)

    def find_child(self, span, name: str):
        """First descendant of ``span`` called ``name`` (or ``None``)."""
        frontier = list(self.children.get(span.span_id, ()))
        while frontier:
            s = frontier.pop(0)
            if s.name == name:
                return s
            frontier.extend(self.children.get(s.span_id, ()))
        return None

    def ancestor(self, span, name: str):
        """Closest enclosing span called ``name`` (or ``None``)."""
        parent = self.by_id.get(span.parent_id)
        while parent is not None and parent.name != name:
            parent = self.by_id.get(parent.parent_id)
        return parent

    def unattributed_frac(self, wins) -> float:
        """Share of the windows covered by no span but the benchmark's own."""
        layer = [(s.start_wall, s.end_wall) for s in self.spans
                 if not s.name.startswith("bench.")]
        covered = sum(union_seconds(layer, lo, hi) for lo, hi in wins)
        return 1.0 - covered / sum(hi - lo for lo, hi in wins)


def kernel_layer(spans: SpanSet, wins, padded_residues: int,
                 real_residues: int) -> dict:
    """``core.vectorized`` figures from the ``pipeline.score`` spans."""
    scores = [s for s in spans.named("pipeline.score") if inside(s, wins)]
    kernel_s = sum(s.wall_seconds for s in scores)
    qlen = sum(
        int(spans.ancestor(s, "pipeline.search").attributes["query_length"])
        for s in scores
    )
    return {
        "kernel.s": kernel_s,
        "kernel.share": kernel_s / sum(hi - lo for lo, hi in wins),
        "kernel.real_gcups": qlen * real_residues / kernel_s / 1e9,
        "kernel.padded_gcups": qlen * padded_residues / kernel_s / 1e9,
        "kernel.saturated_recomputed": attr_sum(scores, "saturated_recomputed"),
    }


def padding(pre) -> dict:
    """Real vs padded lane-group residues, and what the perf model assumes."""
    real = int(sum(int(g.lengths.sum()) for g in pre.groups))
    padded = int(sum(g.n_max * g.lanes for g in pre.groups))
    lengths = np.concatenate([g.lengths for g in pre.groups])
    model = Workload.from_lengths(lengths, pre.lanes)
    return {
        "preprocess.groups": len(pre.groups),
        "preprocess.real_cells": real,
        "preprocess.padded_cells": padded,
        "preprocess.padded_over_real": padded / real,
        "preprocess.model_padded_cells": int(
            (model.group_nmax * model.lanes).sum()
        ),
    }


def write_trace(tracer, path: Path, root: Path, metadata: dict) -> str | None:
    """Write the Chrome trace and validate it; ``None`` when valid."""
    write_chrome_trace(tracer.collector, path, metadata=metadata)
    validator = root / "tools" / "validate_trace.py"
    if not validator.exists():
        return None
    proc = subprocess.run(
        [sys.executable, str(validator), str(path)],
        capture_output=True, text=True, timeout=120, cwd=root,
    )
    if proc.returncode != 0:
        return (proc.stdout + proc.stderr).strip()[:500]
    return None
