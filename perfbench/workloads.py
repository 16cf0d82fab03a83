"""The workloads: one client in a closed loop, in this process.

- ``build``: a fresh ``build.build_index`` of the corpus in a new Ray
  session, then the seed's first tail queries on the fresh index.
- ``query_tail``: ``SegmentIndex.topk`` over the seed's 2..4-term tail
  queries.
- ``query_head``: the same loop over all pairs of the 10 most frequent
  terms.

Every query runs in the three modes back to back, in a rotating order.
Pruned and BMW answers are compared with the bm25 answer, and a fixed
query set is compared with the DuckDB oracle; each wrong answer is a
failed operation.

Query timings are scaled to a nominal host speed by the reference loop
of ``perfbench/reference.py``, timed between the queries of the same
run; the unscaled figures go to stderr.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

from perfbench import answers, inputs, metrics, reference, tracing
from perfbench.inputs import K, MODES

#: index opens per query-workload run; set-up time is their median,
#: scaled by the reference loop timed after each open
SETUP_REPEATS = 40
#: queries answered (in every mode) before timing starts
WARMUP_QUERIES = 8
#: a query run answers at least this many queries (in every mode), so
#: that about ten samples lie beyond p90
MIN_SAMPLES = 100
#: tail queries answered on the freshly built index in a build run
POST_BUILD_QUERIES = 96
#: passes over the post-build queries; each query's latency is its median
POST_BUILD_PASSES = 2
#: seconds the post-build query process may take
FRESH_INDEX_TIMEOUT_S = 120


class Run:
    """One benchmark run: its inputs, options and operation counts."""

    def __init__(self, root: str, paths: dict, seed: int, seconds: float, trace: bool):
        self.root = root
        self.paths = paths
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self._reported = 0
        self.ref = reference.Reference()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self._reported < 20:
                self._reported += 1
                print(f"wrong: {what}", file=sys.stderr)

    def result(self, values: dict) -> dict:
        names = metrics.PER_LAYER if self.trace else metrics.END_TO_END
        return metrics.result(values, names, self.attempted, self.failed)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bytes_per_posting(index_dir: str) -> float:
    with open(os.path.join(index_dir, "manifest.json")) as fh:
        parts = json.load(fh)["partitions"]
    return sum(p["bytes"] for p in parts) / sum(p["postings"] for p in parts)


def check_oracle(run: Run, si) -> None:
    with open(run.paths["oracle"]) as fh:
        oracle = json.load(fh)
    for want in oracle:
        for m in MODES:
            got = answers.rows(si.topk(want["query"], K, m))
            run.check(answers.same(got, want), f"{m} {want['query']!r} differs from the oracle")


def answer_all_modes(run: Run | None, si, i: int, q: str) -> dict:
    """Query ``q`` in every mode (rotated by ``i``); return ns per mode.
    With ``run``, pruned and BMW answers are checked against bm25."""
    ns, got = {}, {}
    for m in inputs.mode_order(i):
        t0 = time.perf_counter_ns()
        got[m] = si.topk(q, K, m)
        ns[m] = time.perf_counter_ns() - t0
    if run is not None:
        run.attempted += 1  # the bm25 answer: only the oracle set can check it
        base = answers.rows(got["bm25"])
        for m in MODES[1:]:
            run.check(answers.same(answers.rows(got[m]), base), f"{m} {q!r} differs from bm25")
    return ns


def measure(run: Run, si, queries: list[str]) -> list[list[dict]]:
    """Passes over ``queries`` until ``run.seconds`` have passed, at
    least one whole pass is done and ``MIN_SAMPLES`` queries have been
    answered.  Returns, per query, the ns per mode of each time it ran;
    the reference loop is sampled in between."""
    per_query: list[list[dict]] = [[] for _ in queries]
    t0 = time.perf_counter()
    n = 0
    while True:
        for i, q in enumerate(queries):
            per_query[i].append(answer_all_modes(run, si, n, q))
            run.ref.tick()
            n += 1
            if n >= max(len(queries), MIN_SAMPLES) and time.perf_counter() - t0 >= run.seconds:
                return per_query


def latency_values(per_query: list[list[dict]], scale: float) -> dict:
    """Percentiles over the queries of each query's median latency
    (every query weighs the same however often it ran), scaled by
    ``scale``; speedups are medians of paired ratios, which need no
    scaling."""
    out = {}
    for m in MODES:
        ms = [statistics.median(s[m] for s in runs) / 1e6 * scale for runs in per_query]
        out[f"{m}.p50_ms"] = metrics.percentile(ms, 50)
        out[f"{m}.p90_ms"] = metrics.percentile(ms, 90)
    samples = [s for runs in per_query for s in runs]
    for m in MODES[1:]:
        out[f"{m}.speedup"] = statistics.median(s["bm25"] / s[m] for s in samples)
    return out


def ops_per_s(per_query: list[list[dict]], scale: float) -> float:
    """Queries answered per (scaled) second of time spent answering them."""
    samples = [s for runs in per_query for s in runs]
    return sum(len(s) for s in samples) / (sum(sum(s.values()) for s in samples) * scale / 1e9)


def report(name: str, per_query: list[list[dict]], ref: reference.Reference, unscaled: dict) -> None:
    """Sample counts, the run's scale and the unscaled metrics, on stderr."""
    print(
        f"{name}: {sum(map(len, per_query))} samples per mode over {len(per_query)} queries; "
        f"reference loop {statistics.median(ref.samples) / 1e6:.3f} ms "
        f"({len(ref.samples)} samples), scale {ref.scale():.4f}",
        file=sys.stderr,
    )
    print(f"{name}: unscaled {json.dumps(unscaled)}", file=sys.stderr)


# ----- traced query passes ---------------------------------------------------

_CATEGORY = {
    "normalize.tokenize": "tokenize",
    "query.dict_lookup": "dict_lookup",
    "query.decode": "decode",
    "segments.decode": "decode",
    "segments.score": "score",
    "query.accumulate": "accumulate",
    "query.format": "select_format",
    "query.round": "select_format",
    "docids.decode": "select_format",
}
_COUNTED = {
    "query.decode": "runs_decoded",
    "segments.decode": "postings_decoded",
    "query.round": "candidates",
}


def query_layer_values(spans, runs_total: list[int]) -> dict:
    """Per-mode means per query from a traced pass; ``runs_total[j]`` is
    the run count of the query behind the j-th ``query.topk`` span."""
    selfs = tracing.self_times(spans)
    roots = tracing.root_of(spans)
    per_root: dict[int, dict] = {}
    for i, span in enumerate(spans):
        if span[3] is None and span[0].startswith("query.topk."):
            per_root[i] = {
                "mode": span[0][len("query.topk.") :],
                "runs_total": runs_total[len(per_root) // len(MODES)],
                **{t: 0.0 for t in metrics.QUERY_TIMES},
                **{c: 0 for c in metrics.QUERY_COUNTS[1:]},
            }
    for i, span in enumerate(spans):
        acc = per_root.get(roots[i])
        if acc is None:
            continue
        acc["other" if i == roots[i] else _CATEGORY[span[0]]] += selfs[i] / 1e6
        if span[0] in _COUNTED:
            acc[_COUNTED[span[0]]] += span[4]
    out = {}
    for m in MODES:
        rows = [a for a in per_root.values() if a["mode"] == m]
        for t in metrics.QUERY_TIMES:
            out[f"query.{m}.{t}_ms"] = statistics.fmean(a[t] for a in rows)
        for c in metrics.QUERY_COUNTS:
            out[f"query.{m}.{c}"] = statistics.fmean(a[c] for a in rows)
        out[f"query.{m}.runs_decoded_ratio"] = statistics.fmean(
            a["runs_decoded"] / max(1, a["runs_total"]) for a in rows
        )
    return out


def tokenize_values(spans) -> dict:
    tok = [s for s in spans if s[0] == "normalize.tokenize"]
    return {
        "normalize.tokenize_calls": len(tok),
        "normalize.tokenize_s": tracing.union_ns((s[1], s[2]) for s in tok) / 1e9,
        "normalize.tokens": sum(s[4] for s in tok),
    }


def traced_pass(run: Run, si, queries: list[str]) -> tuple[list, float]:
    """Each query answered untraced and traced, in alternating order so
    that neither side always finds the caches warm.  Returns the traced
    spans and the traced/untraced time ratio."""
    tracer = tracing.Tracer()
    patches = tracing.Patches()
    plain_ns = traced_ns = 0
    for i, q in enumerate(queries):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracing.install_query(tracer, patches)
            try:
                ns = sum(answer_all_modes(run, si, i, q).values())
            finally:
                patches.undo()
            if traced:
                traced_ns += ns
            else:
                plain_ns += ns
    return tracer.spans, traced_ns / plain_ns


def runs_total(si, queries: list[str]) -> list[int]:
    return [sum(si.n_runs(t) for t in set(q.split())) for q in queries]


def save_trace(run: Run, name: str, spans) -> None:
    d = os.path.join(run.root, ".perfbench", "traces")
    os.makedirs(d, exist_ok=True)
    tracing.write(os.path.join(d, f"{name}-seed{run.seed}.jsonl"), spans)


ZERO_BUILD = {n: 0.0 for n in metrics.PER_LAYER if n.startswith(("build.", "segments."))}


# ----- query workloads -------------------------------------------------------


def query_workload(run: Run, queries: list[str], name: str) -> dict:
    from raystorm import query

    times = []
    setup_ref = reference.Reference()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        si = query.SegmentIndex(run.paths["index"])
        times.append(time.perf_counter() - t0)
        setup_ref.take(1)
    check_oracle(run, si)
    for i, q in enumerate(queries[:WARMUP_QUERIES]):
        answer_all_modes(None, si, i, q)
    if not run.trace:
        per_query = measure(run, si, queries)

        def values(scale: float, setup_scale: float) -> dict:
            return {
                "setup_s": statistics.median(times) * setup_scale,
                "peak_rss_mb": peak_rss_mb(),
                "ops_per_s": ops_per_s(per_query, scale),
                "index_bytes_per_posting": bytes_per_posting(run.paths["index"]),
                **latency_values(per_query, scale),
            }

        report(name, per_query, run.ref, values(1.0, 1.0))
        print(f"{name}: set-up scale {setup_ref.scale():.4f}", file=sys.stderr)
        return run.result(values(run.ref.scale(), setup_ref.scale()))
    totals = runs_total(si, queries)
    spans, overhead = traced_pass(run, si, queries)
    save_trace(run, name, spans)
    return run.result(
        {
            **ZERO_BUILD,
            **tokenize_values(spans),
            **query_layer_values(spans, totals),
            "trace.overhead_ratio": overhead,
        }
    )


def query_tail(run: Run) -> dict:
    return query_workload(run, inputs.tail_queries(run.seed), "query_tail")


def query_head(run: Run) -> dict:
    return query_workload(run, inputs.head_queries(run.seed), "query_head")


# ----- build -----------------------------------------------------------------


def warm_worker(batch):
    """Warm-up stage: a worker that has imported the build's modules."""
    import raystorm.build  # noqa: F401

    return batch


def build_layer_values(driver, workers) -> dict:
    """The build split from driver spans and worker spans.  Times are
    wall seconds during which a layer was running in some process (the
    union of its spans), so concurrent tasks count once and the parts
    add up to ``build.build_index``."""

    def spans(name, src):
        return [s for s in src if s[0] == name]

    def iv(src):
        return [(s[1], s[2]) for s in src]

    (b,) = spans("build.build_index", driver)
    (c,) = spans("build.compute_stats", driver)
    stats_map = spans("build.stats_map", workers)
    token_map = spans("build.token_map", workers)
    writes = spans("build.partition_write", workers)
    prep = spans("build.vocab", driver) + spans("build.codec", driver)
    encode = spans("segments.encode", workers)
    ns = {
        "stats_map": tracing.union_ns(iv(stats_map)),
        "stats_reduce": (c[2] - c[1]) - tracing.union_ns(iv(stats_map), c[1], c[2]),
        "token_map": tracing.union_ns(iv(token_map)),
        "partition_write": tracing.union_ns(iv(writes)),
    }
    lo, hi = c[2], max(s[2] for s in writes)
    ns["shuffle"] = (hi - lo) - tracing.union_ns(iv(token_map + writes + prep), lo, hi)
    ns["other"] = (b[2] - b[1]) - sum(ns.values())
    return {
        **{f"build.{k}_s": v / 1e9 for k, v in ns.items()},
        "build.stats_partial_rows": sum(s[4] for s in stats_map),
        "build.stats_rows": c[4],
        "build.token_rows": sum(s[4] for s in token_map),
        **tokenize_values(workers),
        "segments.encode_s": tracing.union_ns(iv(encode)) / 1e9,
        "segments.runs_encoded": len(encode),
        "segments.postings_encoded": sum(s[4] for s in encode),
    }


def span_cost_s(n: int = 20_000) -> float:
    """Seconds one wrapped call adds over a plain call."""
    f = lambda: None  # noqa: E731
    g = tracing.wrap(tracing.Tracer(), "calibrate", f)
    t0 = time.perf_counter()
    for _ in range(n):
        f()
    t1 = time.perf_counter()
    for _ in range(n):
        g()
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / n


def check_build(run: Run, index_dir: str, manifest: dict) -> None:
    import pyarrow.parquet as pq

    for field, gs in manifest["global_stats"].items():
        run.check(gs["N"] == inputs.CORPUS_TURNS, f"manifest N[{field}]={gs['N']}")
    df_sum = int(pq.read_table(os.path.join(index_dir, "terms_stats.parquet"))["df"].to_numpy().sum())
    postings = sum(p["postings"] for p in manifest["partitions"])
    run.check(postings == df_sum, f"partition postings {postings} != sum of df {df_sum}")


def build(run: Run) -> dict:
    from perfbench.raystart import RaySession

    trace_dir = os.path.join(run.dir, "trace")
    index_dir = os.path.join(run.dir, "index")
    os.makedirs(trace_dir, exist_ok=True)
    env, hook = ({tracing.TRACE_DIR_ENV: trace_dir}, "perfbench.tracing.worker_setup") if run.trace else ({}, None)
    tracer, patches = tracing.Tracer(), tracing.Patches()
    t0 = time.perf_counter()
    session = RaySession(run.root, env, hook)
    try:
        session.start()
        import logging

        import ray.data as rd

        logging.getLogger("ray.data").setLevel(logging.ERROR)
        rd.range(8, override_num_blocks=1).map_batches(warm_worker, batch_format="pyarrow").count()
        setup_s = time.perf_counter() - t0
        from raystorm import build as rbuild

        if run.trace:
            tracing.install_build_driver(tracer, patches)
        t0 = time.perf_counter()
        manifest = rbuild.build_index(
            rd.read_parquet(run.paths["corpus"]),
            index_dir,
            input_fingerprint=inputs.corpus_digest(),
            cfg=rbuild.BuildConfig(**inputs.BUILD_CONFIG),
        )
        build_s = time.perf_counter() - t0
    finally:
        patches.undo()
        session.stop()
    # the fresh index's write-back must not overlap the queries on it
    os.sync()
    # build throughput is a per-layer metric, not an end-to-end one: from
    # run to run it moved by more than any bound allows (the build spreads
    # over as many CPUs as the host's other tenants leave free, and the
    # reference loop does not follow it), so it is printed here and by the
    # traced run, and the untraced run's ``ops_per_s`` is the post-build
    # query throughput
    print(f"build: setup {setup_s:.3f} s, build {build_s:.3f} s", file=sys.stderr)
    check_build(run, index_dir, manifest)
    # the queries on the fresh index run in a new process, which carries
    # nothing over from the Ray session (threads, memory) into the timings
    values = fresh_index_process(run, index_dir)
    if not run.trace:
        return run.result(
            {
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss_mb(),
                "index_bytes_per_posting": bytes_per_posting(index_dir),
                **values,
            }
        )
    workers = tracing.read_worker_spans(trace_dir)
    save_trace(run, "build", tracer.spans + workers)
    # modelled, not measured: the spans' own cost and the workers' span
    # writes; hook installation and cache effects are left out, so this
    # is a lower bound of the tracing overhead
    cost_s = len(tracer.spans + workers) * span_cost_s() + sum(
        s[2] - s[1] for s in workers if s[0] == "trace.flush"
    ) / 1e9
    return run.result(
        {
            **build_layer_values(tracer.spans, workers),
            "build.turns_per_s": inputs.CORPUS_TURNS / build_s,
            **values,
            "trace.overhead_ratio": build_s / (build_s - cost_s),
        }
    )


def fresh_index_process(run: Run, index_dir: str) -> dict:
    """``fresh_index_queries`` in a new Python process (``python3 -m
    perfbench.workloads``, options on stdin, result on the last line of
    stdout); its operations are added to ``run``'s."""
    spec = {"root": run.root, "paths": run.paths, "seed": run.seed, "seconds": run.seconds,
            "trace": run.trace, "index_dir": index_dir}
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.workloads"],
        input=json.dumps(spec),
        stdout=subprocess.PIPE,
        cwd=run.root,
        text=True,
        check=True,
        timeout=FRESH_INDEX_TIMEOUT_S,
    )
    values, attempted, failed = json.loads(proc.stdout.splitlines()[-1])
    run.attempted += attempted
    run.failed += failed
    return values


def fresh_index_queries(run: Run, index_dir: str) -> tuple[dict, int, int]:
    """The seed's first tail queries on a freshly built index: query
    throughput and latency metrics (traced: query-layer metrics), and
    the operations attempted and failed."""
    from raystorm import query

    si = query.SegmentIndex(index_dir)
    check_oracle(run, si)
    queries = inputs.tail_queries(run.seed)[:POST_BUILD_QUERIES]
    for i, q in enumerate(queries[:WARMUP_QUERIES]):
        answer_all_modes(None, si, i, q)
    if run.trace:
        spans, _ = traced_pass(run, si, queries)
        values = query_layer_values(spans, runs_total(si, queries))
    else:
        per_query = [[] for _ in queries]
        for p in range(POST_BUILD_PASSES):
            for i, q in enumerate(queries):
                per_query[i].append(answer_all_modes(run, si, p + i, q))
                run.ref.tick()
        report("build", per_query, run.ref, latency_values(per_query, 1.0))
        scale = run.ref.scale()
        values = {"ops_per_s": ops_per_s(per_query, scale), **latency_values(per_query, scale)}
    return values, run.attempted, run.failed


WORKLOADS = {"query_tail": query_tail, "query_head": query_head, "build": build}


if __name__ == "__main__":
    spec = json.load(sys.stdin)
    child = Run(spec["root"], spec["paths"], spec["seed"], spec["seconds"], spec["trace"])
    print(json.dumps(fresh_index_queries(child, spec["index_dir"])), flush=True)
