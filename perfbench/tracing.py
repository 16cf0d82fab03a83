"""Spans recorded around the engine's layers, from the benchmark's side.

A span is ``[name, start_ns, end_ns, parent, count]``: ``parent`` is the
index of the enclosing span in the same process (or None) and ``count``
is the work the call did (rows, tokens, runs, postings).  Spans are
kept in memory; the traced run writes them out when it ends.

Layers are timed by wrapping their public callables (module functions
and class methods of ``raystorm``) while a traced run is active.
Nothing under ``raystorm/`` is modified on disk.  In Ray worker
processes the build-stage wrappers are installed by
``worker_setup``, run as Ray's ``worker_process_setup_hook``; a worker
appends its spans to ``<trace dir>/w-<pid>.jsonl`` after each stage
call, because Ray may stop the worker without running exit hooks.

Self time is a span's duration minus the part of it that its children
cover (children may come from other processes, so their union is
taken).
"""

from __future__ import annotations

import json
import os
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Tracer:
    """In-memory span recorder for one process (single-threaded)."""

    def __init__(self, sink: str | None = None):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._sink = sink
        self._flushed = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), 0, parent, 0])
        i = len(self.spans) - 1
        self._stack.append(i)
        return i

    def close(self, i: int, count: int = 0) -> None:
        span = self.spans[i]
        span[2] = time.perf_counter_ns()
        span[4] = int(count)
        self._stack.pop()
        if self._sink and not self._stack:
            self.flush()

    def flush(self) -> None:
        """Append spans not yet written to the sink file (JSON lines),
        followed by a ``trace.flush`` span timing the write itself."""
        if not self._sink or self._flushed == len(self.spans):
            return
        start = time.perf_counter_ns()
        with open(self._sink, "a") as fh:
            for span in self.spans[self._flushed :]:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps(["trace.flush", start, time.perf_counter_ns(), None, 0]) + "\n")
        self._flushed = len(self.spans)


def wrap(tracer: Tracer, name, fn, count=None):
    """``fn`` timed as a span.  ``name`` is a string or a function of the
    call's arguments; ``count(result, args, kwargs)`` gives the span's
    work count."""

    def traced(*args, **kwargs):
        i = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        n = 0
        try:
            out = fn(*args, **kwargs)
            if count is not None:
                n = count(out, args, kwargs)
            return out
        finally:
            tracer.close(i, n)

    traced.__wrapped__ = fn
    return traced


class Patches:
    """Attribute replacements that ``undo`` restores in reverse order."""

    def __init__(self):
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def _len(out, args, kwargs) -> int:
    return len(out)


def _tokens(out, args, kwargs) -> int:
    return len(out[0])


def install_build_worker(tracer: Tracer, p: Patches) -> None:
    """Wrappers for the build stages that run inside Ray workers."""
    from raystorm import build, normalize, segments

    p.set(build.StatsStage, "__call__", wrap(tracer, "build.stats_map", build.StatsStage.__call__, _len))
    p.set(build, "_combine_stats_block", wrap(tracer, "build.stats_combine", build._combine_stats_block, _len))
    p.set(build.BuildTokenStage, "__call__", wrap(tracer, "build.token_map", build.BuildTokenStage.__call__, _len))
    p.set(build.PartitionWriter, "__call__", wrap(tracer, "build.partition_write", build.PartitionWriter.__call__))
    p.set(normalize, "tokenize_column", wrap(tracer, "normalize.tokenize", normalize.tokenize_column, _tokens))
    p.set(
        segments,
        "encode_run",
        wrap(tracer, "segments.encode", segments.encode_run, lambda out, a, k: len(a[0])),
    )


def install_build_driver(tracer: Tracer, p: Patches) -> None:
    """Wrappers for the driver side of ``build.build_index``."""
    from raystorm import build, docids

    p.set(build, "build_index", wrap(tracer, "build.build_index", build.build_index))
    p.set(build, "compute_stats", wrap(tracer, "build.compute_stats", build.compute_stats, _len))
    p.set(build.Vocab, "__init__", wrap(tracer, "build.vocab", build.Vocab.__init__))
    p.set(
        docids.DocIdCodec,
        "from_pandas",
        classmethod(wrap(tracer, "build.codec", docids.DocIdCodec.from_pandas.__func__)),
    )


def install_query(tracer: Tracer, p: Patches) -> None:
    """Wrappers for one top-k query's layers (in-process)."""
    from raystorm import docids, normalize, query, segments

    si = query.SegmentIndex
    p.set(
        si,
        "topk",
        wrap(
            tracer,
            lambda a, k: "query.topk." + (a[3] if len(a) > 3 else k.get("mode", "bm25")),
            si.topk,
        ),
    )
    p.set(normalize, "tokenize_column", wrap(tracer, "normalize.tokenize", normalize.tokenize_column, _tokens))
    p.set(query._FieldDict, "rank_of", wrap(tracer, "query.dict_lookup", query._FieldDict.rank_of))
    p.set(si, "_decode_runs", wrap(tracer, "query.decode", si._decode_runs, lambda out, a, k: len(out)))
    p.set(segments, "decode_run", wrap(tracer, "segments.decode", segments.decode_run, lambda out, a, k: len(out[0])))
    p.set(segments, "bm25_term_scores", wrap(tracer, "segments.score", segments.bm25_term_scores))
    p.set(query, "_accumulate", wrap(tracer, "query.accumulate", query._accumulate))
    p.set(si, "_format_topk", wrap(tracer, "query.format", si._format_topk))
    # ranking rounds every candidate's score to RANK_ROUND decimals in
    # all three modes, so that call's length counts the candidates
    p.set(
        query,
        "round_half_up",
        wrap(
            tracer,
            "query.round",
            query.round_half_up,
            lambda out, a, k: len(a[0]) if a[1] == query.RANK_ROUND else 0,
        ),
    )
    p.set(docids.DocIdCodec, "decode", wrap(tracer, "docids.decode", docids.DocIdCodec.decode))


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace the build stages in this
    worker, writing spans under ``$PERFBENCH_TRACE_DIR``."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if not trace_dir:
        return
    tracer = Tracer(os.path.join(trace_dir, f"w-{os.getpid()}.jsonl"))
    install_build_worker(tracer, Patches())


def read_worker_spans(trace_dir: str) -> list[list]:
    """Spans written by workers.  Parent indices are shifted to positions
    in the returned list; ``trace.flush`` spans come after each worker's
    own spans (they are not part of the recorder's list)."""
    out: list[list] = []
    for name in sorted(os.listdir(trace_dir)):
        if not name.startswith("w-"):
            continue
        base = len(out)
        flushes = []
        with open(os.path.join(trace_dir, name)) as fh:
            for line in fh:
                span = json.loads(line)
                if span[0] == "trace.flush":
                    flushes.append(span)
                    continue
                if span[3] is not None:
                    span[3] += base
                out.append(span)
        out.extend(flushes)
    return out


# ----- interval arithmetic -------------------------------------------------


def union_ns(intervals, lo: int | None = None, hi: int | None = None) -> int:
    """Length of the union of ``(start, end)`` intervals, clipped to
    ``[lo, hi]`` when given."""
    clipped = []
    for s, e in intervals:
        if lo is not None:
            s = max(s, lo)
        if hi is not None:
            e = min(e, hi)
        if e > s:
            clipped.append((s, e))
    clipped.sort()
    total, cur_s, cur_e = 0, None, None
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


def self_times(spans) -> list[int]:
    """Per span: duration minus the union of its direct children."""
    children: dict[int, list] = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    return [
        (s[2] - s[1]) - union_ns(children.get(i, ()), s[1], s[2])
        for i, s in enumerate(spans)
    ]


def root_of(spans) -> list[int]:
    """Index of each span's root ancestor."""
    roots = []
    for i, span in enumerate(spans):
        roots.append(i if span[3] is None else roots[span[3]])
    return roots


def write(path: str, spans) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
