"""Spans recorded from outside the program, around calls into each layer.

The traced run replays a workload's exact inputs in-process in the order
the server handles them and wraps the public seams — the objects in
``session.pipeline.stages``, ``session.process_quantum`` and
``session.delta_writer.append`` — with timing proxies.  Spans stay in
memory and are written as one JSON file when the run ends.  Spans *inside*
the program are a later change (ROADMAP item 5); nothing under ``src/`` is
touched here.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

from e2e_stats import self_times


class Tracer:
    """An in-memory list of ``[name, start, end, parent, quantum]`` spans.

    ``segment`` labels what the spans belong to (a workload phase); rows
    carry the label so a waterfall can be taken over one phase only.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, List[tuple]] = {}
        self.segment = ""
        self.quantum: Optional[int] = None
        self._stack: List[int] = []

    def count(self, name: str, value: float) -> None:
        """Record a count at a layer boundary, next to the layer's spans."""
        self.counts.setdefault(name, []).append((self.segment, value))

    def counted(self, segment: str, name: str) -> List[float]:
        return [v for s, v in self.counts.get(name, []) if s == segment]

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        row = [name, 0.0, 0.0, parent, self.quantum, self.segment]
        self.spans.append(row)
        self._stack.append(index)
        row[1] = time.perf_counter()
        try:
            yield row
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def segment_spans(self, segment: str) -> List[list]:
        """The spans of one segment, parent indexes renumbered to match."""
        index = {}
        rows = []
        for i, row in enumerate(self.spans):
            if row[5] != segment:
                continue
            index[i] = len(rows)
            rows.append(list(row))
        for row in rows:
            row[3] = index.get(row[3])
        return rows

    def durations(self, segment: str, name: str) -> List[float]:
        return [
            row[2] - row[1]
            for row in self.spans
            if row[5] == segment and row[0] == name
        ]

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header)
        payload["columns"] = [
            "name", "start", "end", "parent", "quantum", "segment",
        ]
        payload["spans"] = self.spans
        payload["counts"] = self.counts
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


class StageProxy:
    """Stands in for one pipeline stage: times ``run`` and forwards the rest."""

    def __init__(self, stage, tracer: Tracer) -> None:
        self._stage = stage
        self._tracer = tracer
        self.name = stage.name

    def run(self, ctx) -> None:
        with self._tracer.span(f"pipeline.{self.name}"):
            self._stage.run(ctx)

    def __getattr__(self, attribute):
        return getattr(self._stage, attribute)


def instrument_session(session, tracer: Tracer) -> List[str]:
    """Wrap a live session's public seams; returns the probes not found.

    A seam that a later change renames or removes is reported, never fatal:
    its layer then shows up inside its parent's self time.
    """
    missing: List[str] = []
    stages = getattr(getattr(session, "pipeline", None), "stages", None)
    if isinstance(stages, list) and all(
        hasattr(s, "run") and hasattr(s, "name") for s in stages
    ):
        stages[:] = [StageProxy(stage, tracer) for stage in stages]
    else:
        missing.append("pipeline.stages")

    process = getattr(session, "process_quantum", None)
    if callable(process):
        def traced_process(messages):
            tracer.quantum = session.current_quantum + 1
            try:
                with tracer.span("api.session.process_quantum"):
                    return process(messages)
            finally:
                tracer.quantum = None

        session.process_quantum = traced_process
    else:
        missing.append("api.session.process_quantum")

    writer = getattr(session, "delta_writer", None)
    if writer is not None:
        append = getattr(writer, "append", None)
        if callable(append):
            def traced_append(state):
                with tracer.span("api.deltalog.append"):
                    size = append(state)
                tracer.count("api.deltalog.append_bytes", size)
                return size

            writer.append = traced_append
        else:
            missing.append("api.deltalog.append")
    return missing


def waterfall(
    tracer: Tracer, segment: str, untraced_wall: Optional[float]
) -> Dict[str, float]:
    """Self seconds per layer over one segment, plus the residual.

    With an ``untraced_wall`` from a run over a real server, the residual
    row is what no in-process span accounts for (asyncio, sockets, queue
    and thread hops), so the rows sum to the untraced wall by construction
    and the residual's *share* is the finding.  Without one (an in-process
    workload) there is no residual row.
    """
    rows = self_times(tracer.segment_spans(segment))
    if untraced_wall is not None:
        rows["serve.residual"] = untraced_wall - sum(rows.values())
    return rows
