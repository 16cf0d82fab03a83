"""CLI entry points — the ``ray job submit`` surface.

The reference submits jobs over HTTP (``FlameSubmit.submit``,
``/root/reference/src/cis5550/flame/FlameSubmit.java:11-59``); the
north_rule maps that to ``ray job submit``.  Usage on a cluster::

    ray job submit --working-dir . -- python -m raystorm.cli build \
        --input /data/transcripts --index-dir /data/index
    ray job submit --working-dir . -- python -m raystorm.cli query \
        --index-dir /data/index --query "hash join" --k 10

Locally the same commands run standalone (Ray auto-inits; we only call
``ray.init`` if no session exists — the driver contract forbids owning
the session from library code, so only this CLI and bench.py do).
"""

from __future__ import annotations

import argparse
import json
import sys

#: the ``--mode`` choices of ``query`` and ``serve`` (bm25_bmw is served
#: by MaxScore, like bm25_pruned)
QUERY_MODES = (
    "bm25", "bm25_pruned", "bm25_bmw", "bm25_and", "bm25_wild", "bm25_fuzzy",
    "bm25_regex", "bm25_syn", "bm25_rescore", "bm25_rescore_query", "bm25_bool",
    "bm25_boost", "bm25f", "dis_max", "most_fields", "cross_fields",
    "lm_dirichlet", "tfidf_classic", "script_score", "phrase", "collapsed",
    "faithful", "faithful_boosted",
)


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False, logging_level="ERROR")


def cmd_build(args) -> int:
    import ray.data as rd

    from . import build, corpus

    _ensure_ray()
    cfg = build.BuildConfig(
        num_partitions=args.partitions, split_target=args.split_target
    )
    if args.derive_from_documents:
        ds = corpus.transcripts_from_documents(args.input)
    else:
        ds = rd.read_parquet(args.input)
    manifest = build.build_index(ds, args.index_dir, input_fingerprint=args.input, cfg=cfg)
    if args.docstore:
        from . import docstore

        docstore.build_docstore(ds, args.index_dir)
    if args.docvalues:
        from . import docvalues

        docvalues.build_docvalues(ds, args.index_dir)
    print(
        json.dumps(
            {
                "index_dir": args.index_dir,
                "n_turns": manifest["global_stats"]["text"]["N"],
                "n_terms": manifest["n_terms"],
                "partitions": manifest["num_partitions"],
                "resumed_partitions": manifest["resumed_partitions"],
                "elapsed_s": manifest["elapsed_s"],
            }
        )
    )
    return 0


def cmd_update(args) -> int:
    """Incrementally append a delta corpus to an existing index
    (generation append — see update.py; run compact on cadence)."""
    import ray.data as rd

    from . import corpus, update

    _ensure_ray()
    if args.derive_from_documents:
        ds = corpus.transcripts_from_documents(args.input)
    else:
        ds = rd.read_parquet(args.input)
    m = update.update_index(
        ds, args.index_dir, delta_fingerprint=args.input,
        num_partitions=args.partitions,
    )
    print(
        json.dumps(
            {
                "index_dir": args.index_dir,
                "generations": m["generations"],
                "n_turns": m["global_stats"]["text"]["N"],
                "n_terms": m["n_terms"],
                "delta_partitions": m["delta_partitions"],
                "rescaled_parts": m["rescaled_parts"],
            }
        )
    )
    return 0


def cmd_delete(args) -> int:
    """Tombstone conversations (Lucene-style masked delete; run vacuum
    on cadence to reclaim space and re-tighten stats)."""
    from . import deletes

    m = deletes.delete_convs(
        args.index_dir, args.conv_ids, delete_fingerprint=",".join(args.conv_ids)
    )
    print(
        json.dumps(
            {
                "index_dir": args.index_dir,
                "n_deleted_convs": m["n_deleted_convs"],
                "n_deleted_docids": m["n_deleted_docids"],
            }
        )
    )
    return 0


def cmd_vacuum(args) -> int:
    """Physically drop tombstoned postings into a fresh index dir with
    exactly recomputed stats (query-identical to a rebuild)."""
    from . import deletes

    _ensure_ray()
    m = deletes.vacuum_index(args.index_dir, args.out_dir, args.partitions)
    print(
        json.dumps(
            {
                "out_dir": args.out_dir,
                "vacuumed_docids": m.get("vacuumed_docids", 0),
                "n_convs": m["n_convs"],
                "n_terms": m["n_terms"],
            }
        )
    )
    return 0


def cmd_query(args) -> int:
    from . import query

    _ensure_ray()
    idx = query.SegmentIndex(args.index_dir)
    if args.mode == "faithful_boosted":
        import os

        if os.path.isdir(os.path.join(args.index_dir, "docstore")):
            titles = query.LazyTitles(args.index_dir)
        elif args.sf_dir:
            titles = query.conv_titles(args.sf_dir)
        else:
            print(
                "--mode faithful_boosted needs --sf-dir or an index built "
                "with --docstore (title source)"
            )
            return 2
        df = query._topk_boosted(idx, args.query, args.k, titles)
    elif args.sort:
        from .docvalues import decode_clauses

        df = idx.topk_sorted(
            args.query,
            args.k,
            clauses=decode_clauses(args.filter) if args.filter else (),
            desc=not args.sort.endswith(":asc"),
        )
    elif args.filter:
        from .docvalues import decode_clauses

        df = idx.topk_filtered(
            args.query, args.k, decode_clauses(args.filter), args.mode
        )
    else:
        df = idx.topk(args.query, args.k, args.mode)
    print(df.to_string(index=False))
    return 0


def cmd_serve(args) -> int:
    from . import serve

    # usage validation BEFORE any actor launches: a pairing error after
    # serve.start() would leave the replica pool running (permanently,
    # with --detached) behind a failed command
    if args.http and bool(args.tls_cert) != bool(args.tls_key):
        print("serve: --tls-cert and --tls-key go together", file=sys.stderr)
        return 2
    _ensure_ray()
    handle = serve.start(
        args.index_dir,
        replicas=args.replicas,
        name=args.name,
        sf_dir=args.sf_dir,
        detached=args.detached,
    )
    info = {"replicas": args.replicas, "name": args.name, **handle.info()}
    if args.http:
        host, port = serve.start_http(
            args.index_dir, replicas=args.replicas, name=args.name,
            sf_dir=args.sf_dir, port=args.port, detached=args.detached,
            certfile=args.tls_cert, keyfile=args.tls_key,
        )
        scheme = "https" if args.tls_cert else "http"
        info["http"] = f"{scheme}://{host}:{port}"
    print(json.dumps(info))
    for q in args.query or []:
        df = handle.topk(q, args.k, args.mode)
        print(f"# {q}")
        print(df.to_string(index=False))
    if not args.detached and not args.query:
        print("(no --query given and not --detached: replicas stop with this driver)")
    return 0


def cmd_run(args) -> int:
    """Run a registered pipeline; print its job output then a JSON summary.

    Mirrors the reference's submit flow: ``FlameSubmit`` posts a job and
    the response body is whatever the job passed to ``ctx.output``
    (``FlameSubmit.java:11-59``, ``FlameContextImpl.java:18-25``).  Here
    the job is a registry pipeline and the output block is accumulated
    through :class:`raystorm.context.JobOutput`.
    """
    import time

    from . import pipelines
    from .context import JobOutput

    _ensure_ray()
    reg = pipelines.registry()
    if args.pipeline not in reg:
        print(f"unknown pipeline {args.pipeline!r}; one of: {', '.join(sorted(reg))}")
        return 2
    out = JobOutput()
    fn, _sql = reg[args.pipeline]
    t0 = time.perf_counter()
    result = fn(args.sf_dir)
    stats = None
    if args.stats:
        if hasattr(result, "stats"):  # a Ray Dataset
            result = result.materialize()
            stats = result.stats()
        else:  # DataFrame OR pyarrow.Table: both are driver-side results
            stats = (
                "(pipeline returned a driver-side result; per-stage Ray Data "
                "stats are available only for Dataset-returning pipelines)"
            )
    if hasattr(result, "to_pandas"):  # Dataset / pyarrow.Table -> DataFrame
        result = result.to_pandas()
    elapsed = time.perf_counter() - t0
    out.output(f"pipeline {args.pipeline}: {len(result)} rows in {elapsed:.2f}s")
    if args.head:
        out.output(result.head(args.head).to_string(index=False))
    if stats:
        # the ds.stats() feedback loop as a CLI surface: per-stage wall
        # time / blocks / rows for tuning batch sizes and pool widths
        out.output(stats)
    print(out.value())
    print(json.dumps({"pipeline": args.pipeline, "rows": len(result), "elapsed_s": round(elapsed, 3)}))
    return 0


def cmd_admin(args) -> int:
    from . import admin

    if args.op == "rename":
        admin.rename_index(args.src, args.dst)
        print(json.dumps({"renamed": [args.src, args.dst]}))
    elif args.op == "delete":
        admin.delete_index(args.src)
        print(json.dumps({"deleted": args.src}))
    elif args.op == "swap":
        backup = admin.swap_index(args.src, args.dst)
        print(json.dumps({"live": args.dst, "rollback": backup}))
    elif args.op == "info":
        print(json.dumps(admin.index_info(args.src)))
    elif args.op == "verify":
        _ensure_ray()
        report = admin.verify_index(args.src)
        print(json.dumps(report))
        return 0 if report["ok"] else 1
    elif args.op == "snapshot":
        # src=index dir, dst=repo, --name=snapshot name
        print(json.dumps(admin.snapshot_index(args.src, args.dst, args.name)))
    elif args.op == "restore":
        # src=repo, dst=target dir, --name=snapshot name
        print(json.dumps(admin.restore_index(args.src, args.name, args.dst)))
    elif args.op == "generations":
        # src=rollover root: list the index generations, oldest first
        print(json.dumps({"generations": admin.generations(args.src)}))
    elif args.op == "alias":
        # src=alias file, dst=index dir: create or atomically repoint
        admin.set_alias(args.src, args.dst)
        print(json.dumps({"alias": args.src, "target": admin.resolve_index(args.src)}))
    elif args.op == "unalias":
        admin.delete_alias(args.src)
        print(json.dumps({"deleted_alias": args.src}))
    return 0


def cmd_percolate(args) -> int:
    """Match one document text against the stored-query registry —
    the serving percolator's CLI form (no Ray session needed: the
    registry compiles locally and the match is one in-memory batch)."""
    import pyarrow as pa

    from .percolate import Percolator, compile_queries

    p = Percolator(compile_queries())
    out = p(
        pa.table(
            {
                "conv_id": ["_doc"],
                "turn_idx": pa.array([0], pa.int32()),
                "text": [args.text],
            }
        )
    )
    print(json.dumps({"matched": out["query_id"].to_pylist()}))
    return 0


def cmd_rollup(args) -> int:
    """Build, or incrementally catch up, the persisted hourly events
    rollup — the ES rollup-job / continuous-transform lifecycle as a
    CLI verb (mirrors the ``update`` verb's build-then-append shape).
    ``--delta`` crash-safely merges a new raw-event parquet into an
    existing rollup (``events.rollup_append`` intent journal;
    ``--delta-id`` must be stable across retries of the same delta —
    crashed retries roll forward and already-applied retries no-op via
    the manifest's applied-delta memory, so at-least-once schedulers
    can re-run this verb freely);
    without it, builds the rollup fresh from ``--events`` (skipping if
    the manifest already exists, after rolling forward any crashed
    append)."""
    import os

    import ray.data as rd

    from . import events, sinks

    _ensure_ray()
    cols = ["ts", "event_type", "value"]
    if args.delta:
        if not args.delta_id:
            print("rollup: --delta requires --delta-id", file=sys.stderr)
            return 2
        events.rollup_append(
            args.out_dir, rd.read_parquet(args.delta, columns=cols), args.delta_id
        )
        action = "append"
    elif os.path.isfile(os.path.join(args.out_dir, "_rollup_manifest.json")):
        events.rollforward_pending(args.out_dir)
        action = "noop"
    else:
        if not args.events:
            print("rollup: initial build requires --events", file=sys.stderr)
            return 2
        events._write_rollup(
            rd.read_parquet(args.events, columns=cols), args.out_dir,
            source=args.events,
        )
        action = "build"
    pdf = sinks.read_partitioned(
        args.out_dir, columns=["hour", "event_type", "n_events"]
    ).to_pandas()
    print(
        json.dumps(
            {
                "out_dir": args.out_dir,
                "action": action,
                "rollup_rows": len(pdf),
                "n_events": int(pdf["n_events"].sum()),
            }
        )
    )
    return 0


def cmd_mget(args) -> int:
    """Batch point retrieval by id: ids as conv:turn[,conv:turn...]."""
    from .docstore import mget

    ids = []
    for part in args.ids.split(","):
        conv, turn = part.rsplit(":", 1)
        ids.append((conv, int(turn)))
    df = mget(args.index_dir, tuple(ids))
    print(df.to_json(orient="records"))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="raystorm")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build (or resume) the inverted index")
    b.add_argument("--input", required=True, help="parquet dir of transcripts")
    b.add_argument("--index-dir", required=True)
    b.add_argument("--partitions", type=int, default=32)
    b.add_argument("--split-target", type=int, default=100_000)
    b.add_argument(
        "--docstore",
        action="store_true",
        help="also write the docid-sharded text store (snippet/title lookups)",
    )
    b.add_argument(
        "--docvalues",
        action="store_true",
        help="also write the doc-values metadata sidecar (filter/sort/facets)",
    )
    b.add_argument(
        "--derive-from-documents",
        action="store_true",
        help="input is a documents table; derive transcript turns",
    )
    b.set_defaults(fn=cmd_build)

    u = sub.add_parser(
        "update", help="append a delta corpus to an existing index (incremental)"
    )
    u.add_argument("--input", required=True, help="parquet dir of NEW transcripts")
    u.add_argument("--index-dir", required=True)
    u.add_argument("--partitions", type=int, default=None,
                   help="delta partition count (default: base config)")
    u.add_argument(
        "--derive-from-documents",
        action="store_true",
        help="input is a documents table; derive transcript turns",
    )
    u.set_defaults(fn=cmd_update)

    d = sub.add_parser("delete", help="tombstone conversations in a built index")
    d.add_argument("--index-dir", required=True)
    d.add_argument("conv_ids", nargs="+", help="conversation ids to delete")
    d.set_defaults(fn=cmd_delete)

    v = sub.add_parser(
        "vacuum", help="physically remove tombstoned docs (exact stats recompute)"
    )
    v.add_argument("--index-dir", required=True)
    v.add_argument("--out-dir", required=True)
    v.add_argument("--partitions", type=int, default=None)
    v.set_defaults(fn=cmd_vacuum)

    q = sub.add_parser("query", help="top-k query against a built index")
    q.add_argument("--index-dir", required=True)
    q.add_argument("--query", required=True)
    q.add_argument("--k", type=int, default=10)
    q.add_argument(
        "--mode",
        choices=QUERY_MODES,
        default="bm25",
    )
    q.add_argument(
        "--sf-dir", default=None, help="documents dir (faithful_boosted title map)"
    )
    q.add_argument(
        "--filter",
        default=None,
        help='doc-values filter clauses as JSON, e.g. \'[["role","=","user"]]\' '
        "(needs an index with build_docvalues run)",
    )
    q.add_argument(
        "--sort",
        default=None,
        help="sort by a doc value instead of score: ts_us or ts_us:asc",
    )
    q.set_defaults(fn=cmd_query)

    s = sub.add_parser(
        "serve", help="start the named query-serving actor pool"
    )
    s.add_argument("--index-dir", required=True)
    s.add_argument("--replicas", type=int, default=2)
    s.add_argument("--name", default="raystorm-server")
    s.add_argument("--sf-dir", default=None)
    s.add_argument("--detached", action="store_true",
                   help="replicas outlive this driver (cluster mode)")
    s.add_argument("--http", action="store_true",
                   help="also start the HTTP front (/search, /info)")
    s.add_argument("--port", type=int, default=0,
                   help="HTTP port (0 = ephemeral)")
    s.add_argument("--tls-cert", default=None,
                   help="PEM certificate chain: serve HTTPS (the reference's "
                        "secure port 443; alternatively terminate TLS at an LB)")
    s.add_argument("--tls-key", default=None, help="PEM private key for --tls-cert")
    s.add_argument("--query", action="append", help="evaluate via the pool")
    s.add_argument("--k", type=int, default=10)
    s.add_argument(
        "--mode",
        choices=QUERY_MODES,
        default="bm25",
    )
    s.set_defaults(fn=cmd_serve)

    r = sub.add_parser(
        "run", help="run a registered pipeline (FlameSubmit analog)"
    )
    r.add_argument("--pipeline", required=True, help="name from pipelines.registry()")
    r.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    r.add_argument("--head", type=int, default=0, help="also print the first N rows")
    r.add_argument("--stats", action="store_true",
                   help="print Ray Data per-stage stats (Dataset-returning pipelines)")
    r.set_defaults(fn=cmd_run)

    a = sub.add_parser(
        "admin", help="index lifecycle: rename/delete/swap/info"
    )
    a.add_argument(
        "op",
        choices=(
            "rename", "delete", "swap", "info", "verify",
            "snapshot", "restore", "generations", "alias", "unalias",
        ),
    )
    a.add_argument("src", help="index dir (or swap candidate / snapshot repo)")
    a.add_argument(
        "dst", nargs="?", default=None, help="target dir (rename/swap/snapshot repo)"
    )
    a.add_argument("--name", default="snap", help="snapshot name")
    a.set_defaults(fn=cmd_admin)

    p = sub.add_parser(
        "percolate", help="match a document text against the stored-query registry"
    )
    p.add_argument("text", help="document text to percolate")
    p.set_defaults(fn=cmd_percolate)

    ru = sub.add_parser(
        "rollup",
        help="build or incrementally catch up the persisted hourly events rollup",
    )
    ru.add_argument("--out-dir", required=True, help="rollup directory")
    ru.add_argument("--events", default=None,
                    help="raw events parquet (initial build)")
    ru.add_argument("--delta", default=None,
                    help="delta events parquet to append (catch-up)")
    ru.add_argument("--delta-id", default=None,
                    help="stable id of the delta batch (required with --delta; "
                         "retries of the same delta MUST reuse it)")
    ru.set_defaults(fn=cmd_rollup)

    g = sub.add_parser("mget", help="batch point retrieval by conv:turn ids")
    g.add_argument("index_dir")
    g.add_argument("ids", help="comma-separated conv_id:turn_idx list")
    g.set_defaults(fn=cmd_mget)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
