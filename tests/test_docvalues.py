"""Doc-values sidecar: build, point lookups, filter/sort parity vs DuckDB.

Lucene-DocValues analog (docvalues.py): columnar per-doc metadata next
to the index, powering ES-style filter context, range queries and
sort-by-field — each pinned rank-identical to a SQL oracle over the
same corpus (golden-oracle pattern, SURVEY.md §5).
"""

import numpy as np
import pandas as pd
import pytest

from raystorm import build, corpus, docvalues, query

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def dv_index(ray_session, tmp_path_factory):
    d = str(tmp_path_factory.mktemp("dvidx"))
    ds = corpus.transcripts_from_documents(SF)
    cfg = build.BuildConfig(num_partitions=8, split_target=500)
    m = build.build_index(ds, d, input_fingerprint=SF, cfg=cfg)
    assert m["status"] == "complete"
    dm = docvalues.build_docvalues(corpus.transcripts_from_documents(SF), d)
    assert dm["status"] == "complete"
    return d


def test_build_idempotent(ray_session, dv_index):
    """Second call returns the cached manifest without rewriting."""
    m1 = docvalues.build_docvalues(corpus.transcripts_from_documents(SF), dv_index)
    m2 = docvalues.build_docvalues(corpus.transcripts_from_documents(SF), dv_index)
    assert m1 == m2


def test_point_lookups_match_corpus(ray_session, dv_index, duck):
    """Sampled docids return exactly the corpus row's role/tool/ts."""
    idx = query.SegmentIndex(dv_index)
    dv = idx.docvalues()
    rows = duck.execute(
        f"WITH transcripts AS ({corpus.transcripts_sql()}) "
        "SELECT conv_id, turn_idx, role, tool, epoch_us(ts) AS ts_us "
        "FROM transcripts ORDER BY conv_id, turn_idx"
    ).df()
    # EVERY docid must be findable — shard-boundary docids regressed
    # once when writer assignment and reader bounds-map disagreed
    docids = idx.codec.encode(
        rows["conv_id"].to_numpy(), rows["turn_idx"].to_numpy(np.int64)
    )
    for col in ("role", "tool", "ts_us"):
        vals, found = dv.lookup(docids, col)
        assert found.all()
        assert list(vals) == list(rows[col])


def test_absent_docids_never_match(ray_session, dv_index):
    idx = query.SegmentIndex(dv_index)
    dv = idx.docvalues()
    ghost = np.array([idx.codec.span + 5, idx.codec.span + 99], np.int64)
    vals, found = dv.lookup(ghost, "role")
    assert not found.any()
    assert not dv.mask(ghost, (("role", "!=", "nosuchrole"),)).any()


def test_filtered_rank_identical(ray_session, dv_index, duck):
    idx = query.SegmentIndex(dv_index)
    rows = []
    for qid, text, k, clauses in query.FILTER_QUERIES:
        df = idx.topk_filtered(text, k, clauses)
        df.insert(0, "query_id", qid)
        rows.append(df)
    engine = pd.concat(rows, ignore_index=True)
    oracle = duck.execute(query.filtered_topk_sql()).df()
    pd.testing.assert_frame_equal(
        engine.reset_index(drop=True), oracle.reset_index(drop=True), check_dtype=False
    )
    # the filters actually bind: every filtered query returns a strict
    # subset (or reordering) of its unfiltered candidate list
    for qid, text, k, clauses in query.FILTER_QUERIES:
        unfiltered = idx.topk(text, 1000)
        filtered = idx.topk_filtered(text, 1000, clauses)
        assert len(filtered) <= len(unfiltered)


def test_sorted_rank_identical(ray_session, dv_index, duck):
    idx = query.SegmentIndex(dv_index)
    rows = []
    for qid, text, k, clauses, desc in query.SORT_QUERIES:
        df = idx.topk_sorted(text, k, clauses=clauses, desc=desc)
        df.insert(0, "query_id", qid)
        rows.append(df)
    engine = pd.concat(rows, ignore_index=True)
    oracle = duck.execute(query.sorted_topk_sql()).df()
    pd.testing.assert_frame_equal(
        engine.reset_index(drop=True), oracle.reset_index(drop=True), check_dtype=False
    )
    # direction sanity: sr01 is recency (non-increasing ts), sr02 ascending
    sr01 = engine[engine["query_id"] == "sr01"]["ts_us"].to_numpy()
    sr02 = engine[engine["query_id"] == "sr02"]["ts_us"].to_numpy()
    assert (np.diff(sr01) <= 0).all() and (np.diff(sr02) >= 0).all()


def test_stale_docvalues_guard(ray_session, dv_index, tmp_path):
    """An index fingerprint change must invalidate the sidecar."""
    import json
    import os
    import shutil

    d2 = str(tmp_path / "idx2")
    shutil.copytree(dv_index, d2)
    mpath = os.path.join(d2, "manifest.json")
    m = json.load(open(mpath))
    m["build_fingerprint"] = "deadbeef" + m["build_fingerprint"][8:]
    json.dump(m, open(mpath, "w"))
    with pytest.raises(ValueError, match="stale docvalues"):
        query.SegmentIndex(d2).docvalues()


def test_dv_facets_identical_to_join_pipeline(ray_session, dv_index, duck):
    """The doc-values facet path (candidate-bounded lookups, no corpus
    join) must be result-identical to the shuffle-join pipeline AND to
    the shared SQL oracle — for a metadata column and the day
    histogram (two independent bucket derivations)."""
    from raystorm import facets

    joined = facets.search_facets(SF, dv_index)
    dv = facets.search_facets_dv(dv_index)
    pd.testing.assert_frame_equal(joined, dv)
    oracle = duck.execute(facets.facets_sql()).df()
    pd.testing.assert_frame_equal(
        dv.reset_index(drop=True), oracle.reset_index(drop=True), check_dtype=False
    )

    joined_day = facets.search_facets_daily(SF, dv_index)
    dv_day = facets.search_facets_dv(dv_index, facet="day")
    pd.testing.assert_frame_equal(joined_day, dv_day)


def test_sorted_after_pages_never_overlap_or_skip(ray_session, dv_index):
    """Page 1 + page 2 of the sorted cursor == one double-size page;
    a cursor that is not a hit raises instead of silently paging."""
    idx = query.SegmentIndex(dv_index)
    for _qid, text, k, clauses, desc in query.SORT_QUERIES:
        p1 = idx.topk_sorted(text, k, clauses=clauses, desc=desc)
        if len(p1) < k:
            continue
        last = p1.iloc[-1]
        p2 = idx.topk_sorted_after(
            text, k, (last.conv_id, int(last.turn_idx)), clauses=clauses, desc=desc
        )
        both = pd.concat([p1, p2], ignore_index=True)
        both["rank"] = np.arange(1, len(both) + 1, dtype=np.int32)
        wide = idx.topk_sorted(text, 2 * k, clauses=clauses, desc=desc)
        pd.testing.assert_frame_equal(both, wide)
    with pytest.raises(KeyError):
        idx.topk_sorted_after("zzzabsent", 5, ("conv-00000000", 0))


def test_update_docvalues_matches_full_corpus(ray_session, tmp_path, duck):
    """Base build + index update + docvalues generation append: every
    docid (base AND delta) resolves to its corpus metadata — and a
    stale sidecar (no update run) refuses to serve."""
    from raystorm import update

    cutoff = 250
    d = str(tmp_path / "idx")
    cfg = build.BuildConfig(num_partitions=4, split_target=500)
    base_ds = corpus.transcripts_from_documents(SF, max_doc=cutoff)
    build.build_index(base_ds, d, input_fingerprint=f"{SF}|base", cfg=cfg)
    docvalues.build_docvalues(
        corpus.transcripts_from_documents(SF, max_doc=cutoff), d, num_shards=4
    )
    delta_ds = corpus.transcripts_from_documents(SF, min_doc=cutoff)
    update.update_index(delta_ds, d, delta_fingerprint=f"{SF}|delta")
    with pytest.raises(ValueError, match="stale docvalues"):
        query.SegmentIndex(d).docvalues()
    m = docvalues.update_docvalues(
        corpus.transcripts_from_documents(SF, min_doc=cutoff), d
    )
    assert m["generations"] == 2
    idx = query.SegmentIndex(d)
    dv = idx.docvalues()
    rows = duck.execute(
        f"WITH transcripts AS ({corpus.transcripts_sql()}) "
        "SELECT conv_id, turn_idx, role, tool, epoch_us(ts) AS ts_us "
        "FROM transcripts ORDER BY conv_id, turn_idx"
    ).df()
    docids = idx.codec.encode(
        rows["conv_id"].to_numpy(), rows["turn_idx"].to_numpy(np.int64)
    )
    for col in ("role", "ts_us"):
        vals, found = dv.lookup(docids, col)
        assert found.all()
        assert list(vals) == list(rows[col])
    # idempotent: re-running the append is a no-op
    assert docvalues.update_docvalues(delta_ds, d) == m


def test_http_filter_and_sort_routes(ray_session, dv_index):
    """GET /search with &filter= / &sort= must return exactly the direct
    index answers — the ES filter-context and field-sort request shapes
    over the stdlib HTTP front."""
    import json as _json
    import urllib.request
    from urllib.parse import quote

    from raystorm import serve

    host, port = serve.start_http(dv_index, replicas=2, name="t-dv-http")
    try:
        idx = query.SegmentIndex(dv_index)
        clauses = [["role", "=", "user"]]
        fj = quote(docvalues.encode_clauses(clauses))
        url = (
            f"http://{host}:{port}/search?q={quote('merge sort')}&k=10&filter={fj}"
        )
        rows = _json.loads(urllib.request.urlopen(url, timeout=30).read())
        got = pd.DataFrame(rows, columns=["rank", "conv_id", "turn_idx", "score"])
        want = idx.topk_filtered("merge sort", 10, [("role", "=", "user")])
        pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-9)

        url = f"http://{host}:{port}/search?q={quote('merge sort')}&k=10&sort=ts_us"
        rows = _json.loads(urllib.request.urlopen(url, timeout=30).read())
        got = pd.DataFrame(rows, columns=["rank", "conv_id", "turn_idx", "ts_us"])
        want = idx.topk_sorted("merge sort", 10)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

        url = f"http://{host}:{port}/search?q=the&k=5&sort=ts_us:asc&filter={fj}"
        rows = _json.loads(urllib.request.urlopen(url, timeout=30).read())
        got = pd.DataFrame(rows, columns=["rank", "conv_id", "turn_idx", "ts_us"])
        want = idx.topk_sorted(
            "the", 5, clauses=[("role", "=", "user")], desc=False
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    finally:
        assert serve.stop(replicas=2, name="t-dv-http") == 2


def test_facet_stats_match_oracle(ray_session, dv_index, duck):
    """ES stats sub-aggregation: per-bucket n_hits / top_score / ts
    range from the sidecar == the SQL groupby with epoch_us ranges."""
    from raystorm import facets

    got = facets.search_facets_stats(dv_index)
    want = duck.execute(facets.facets_stats_sql()).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )
    assert (got["min_ts_us"] <= got["max_ts_us"]).all()


def test_clause_roundtrip_and_sql_lockstep():
    """encode/decode preserves clauses; the SQL emitter renders every op
    the engine evaluates (one representation, two emitters)."""
    clauses = [
        ("role", "=", "user"),
        ("tool", "!=", "bash"),
        ("ts_us", ">=", "2025-01-03 00:00:00"),
        ("role", "in", ["user", "tool"]),
    ]
    rt = docvalues.decode_clauses(docvalues.encode_clauses(clauses))
    assert [list(c) for c in rt] == [list(c) for c in clauses]
    sql = docvalues.clauses_sql(clauses)
    assert "m.role = 'user'" in sql
    assert "m.tool <> 'bash'" in sql
    assert f"epoch_us(m.ts) >= {docvalues.ts_us('2025-01-03 00:00:00')}" in sql
    assert "m.role IN ('user', 'tool')" in sql


@pytest.mark.parametrize(
    "text", ["notjson", '{"role": "user"}', '[["role", "="]]', '[["role", "~", "x"]]', '[["role", ["="], "x"]]']
)
def test_malformed_filter_is_invalid_request(text):
    """A filter that is not a JSON list of [column, known op, value]
    clauses is the client's fault (HTTP 400), an unhashable op too."""
    with pytest.raises(query.InvalidRequest):
        docvalues.decode_clauses(text)


def test_percentiles_match_oracle(ray_session, dv_index, duck):
    """ES percentiles analog: rank-exact quantiles of the ts doc value
    over each query's hit set == the windowed SQL selection."""
    from raystorm import facets

    got = facets.search_percentiles(dv_index)
    want = duck.execute(facets.percentiles_sql()).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )
    # monotone within a query: p25 <= p50 <= p90
    for _qid, g in got.groupby("query_id"):
        v = g.sort_values("q")["ts_us"].to_numpy()
        assert (np.diff(v) >= 0).all()


def test_rescore_window_and_degenerate_weight(ray_session, dv_index, duck):
    """Rescore: oracle parity at sf0.001; every rescored hit comes from
    the bm25 top-window; w=0 reduces to the plain bm25 ranking."""
    idx = query.SegmentIndex(dv_index)
    rows = []
    for qid, text, k in query.REFERENCE_QUERIES:
        df = idx.topk(text, k, "bm25_rescore")
        df.insert(0, "query_id", qid)
        rows.append(df)
    got = pd.concat(rows, ignore_index=True)
    want = duck.execute(query.rescored_topk_sql()).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )
    for _qid, text, k in query.REFERENCE_QUERIES[:3]:
        wind = idx.topk(text, query.SegmentIndex.RESCORE_WINDOW, "bm25")
        resc = idx.topk_rescored(text, k)
        wkeys = set(zip(wind.conv_id, wind.turn_idx))
        assert all((c, t) in wkeys for c, t in zip(resc.conv_id, resc.turn_idx))
        flat = idx.topk_rescored(text, k, w=0.0)
        plain = idx.topk(text, k, "bm25")
        assert list(flat.conv_id) == list(plain.conv_id)
        assert list(flat.turn_idx) == list(plain.turn_idx)


def test_decay_semantics(ray_session, dv_index, duck):
    """Gauss decay function_score: oracle parity at sf0.001; the decay
    only ever shrinks scores (multiplier in (0, 1]); candidates within
    the offset of the query's newest hit keep their exact BM25 score;
    a huge scale reduces to the plain bm25 ranking."""
    idx = query.SegmentIndex(dv_index)
    rows = []
    for qid, text, k in query.REFERENCE_QUERIES:
        df = idx.topk(text, k, "bm25_decay")
        df.insert(0, "query_id", qid)
        rows.append(df)
    got = pd.concat(rows, ignore_index=True)
    want = duck.execute(query.decay_topk_sql()).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )
    for _qid, text, k in query.REFERENCE_QUERIES[:3]:
        dec = idx.topk_decayed(text, k)
        plain = idx.topk(text, 10**9, "bm25")
        pmap = {
            (c, t): s for c, t, s in zip(plain.conv_id, plain.turn_idx, plain.score)
        }
        # decay never raises a score above its bm25 base
        assert all(
            s <= pmap[(c, t)] + 1e-9
            for c, t, s in zip(dec.conv_id, dec.turn_idx, dec.score)
        )
        # within-offset hits keep the exact base score
        docids = idx.codec.encode(
            dec["conv_id"].to_numpy(), dec["turn_idx"].to_numpy("int64")
        )
        ts, found = idx.docvalues().lookup(docids, "ts_us")
        assert found.all()
        all_ids = idx.codec.encode(
            plain["conv_id"].to_numpy(), plain["turn_idx"].to_numpy("int64")
        )
        all_ts, _ = idx.docvalues().lookup(all_ids, "ts_us")
        origin = all_ts.max()
        for (c, t, s), tus in zip(
            zip(dec.conv_id, dec.turn_idx, dec.score), ts
        ):
            if origin - tus <= query.SegmentIndex.DECAY_OFFSET_US:
                assert s == pmap[(c, t)]
        # degenerate scale: multiplier -> 1, ranking collapses to bm25
        flat = idx.topk_decayed(text, k, scale_us=10**18)
        base = idx.topk(text, k, "bm25")
        assert list(flat.conv_id) == list(base.conv_id)
        assert list(flat.turn_idx) == list(base.turn_idx)


def test_decay_shapes_semantics(ray_session, dv_index, duck):
    """exp / linear decay shapes: oracle parity, and the family's
    pointwise order gauss >= exp (within scale) while linear reaches
    exactly zero past s = scale/(1-decay)."""
    import numpy as np

    idx = query.SegmentIndex(dv_index)
    for shape, mode in (("exp", "bm25_decay_exp"), ("linear", "bm25_decay_linear")):
        rows = []
        for qid, text, k in query.REFERENCE_QUERIES:
            df = idx.topk(text, k, mode)
            df.insert(0, "query_id", qid)
            rows.append(df)
        got = pd.concat(rows, ignore_index=True)
        want = duck.execute(query.decay_topk_sql(shape=shape)).df()
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want.reset_index(drop=True),
            check_dtype=False, obj=shape,
        )
    # multiplier math: all three agree at d=0 (1.0) and d=scale (decay);
    # linear is 0 past its span, gauss/exp never are
    sc = float(query.SegmentIndex.DECAY_SCALE_US)
    dc = query.SegmentIndex.DECAY_AT_SCALE
    span = sc / (1.0 - dc)
    for d in (0.0, sc, 2 * span):
        g = np.exp(np.log(dc) / sc**2 * d * d)
        e = np.exp(np.log(dc) / sc * d)
        l = max((span - d) / span, 0.0)
        if d == 0.0:
            assert g == e == l == 1.0
        elif d == sc:
            assert abs(g - dc) < 1e-12 and abs(e - dc) < 1e-12
        else:
            assert l == 0.0 and g > 0.0 and e > 0.0


def test_range_agg_semantics(ray_session, dv_index, duck):
    """Range aggregation: oracle parity at sf0.001; per query the
    bucket n_hits sum to the full hit-set size and labels use the
    half-open bound format."""
    from raystorm import facets

    got = facets.search_range_agg(dv_index)
    want = duck.execute(facets.range_agg_sql()).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        want.sort_values(["query_id", "bucket"]).reset_index(drop=True),
        check_dtype=False,
    )
    idx = query.SegmentIndex(dv_index)
    for qid, text, _k in query.REFERENCE_QUERIES:
        ids, _ = idx._score_mode(text, "bm25")
        sub = got[got.query_id == qid]
        assert sub.n_hits.sum() == len(ids)
    assert set(got.bucket) <= {"*-7", "7-14", "14-*"}


def test_has_child_semantics(ray_session, dv_index, duck):
    """has_child: oracle parity at sf0.001; every result conv has a
    user-turn match for clause 1 AND an assistant-turn match for
    clause 2; absent leg yields no results."""
    got = query.batch_has_child(dv_index)
    want = duck.execute(query.has_child_topk_sql()).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )
    assert not len(got[got.query_id == "hc04"])
    idx = query.SegmentIndex(dv_index)
    res = idx.topk_has_child("merge", "window", 10)
    u = set(idx.topk_filtered("merge", 10**9, (("role", "=", "user"),)).conv_id)
    a = set(
        idx.topk_filtered("window", 10**9, (("role", "=", "assistant"),)).conv_id
    )
    for conv in res.conv_id:
        assert conv in u and conv in a


def test_serve_has_child_matches_direct(ray_session, dv_index):
    """has_child over the replica pool == the direct index answer."""
    from raystorm import serve

    handle = serve.start(dv_index, replicas=1, name="t-hc")
    try:
        direct = query.SegmentIndex(dv_index).topk_has_child("merge", "window", 10)
        got = handle.has_child("merge", "window", 10)
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), direct.reset_index(drop=True)
        )
    finally:
        assert serve.stop(replicas=1, name="t-hc") == 1


def test_composite_facet_consistency(ray_session, dv_index, duck):
    """Composite (role, day) facet: oracle parity; marginalizing the
    composite over day reproduces the single-key role facet exactly."""
    from raystorm import facets

    comp = facets.search_facets_composite(dv_index)
    want = duck.execute(facets.facets_composite_sql()).df()
    pd.testing.assert_frame_equal(
        comp.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )
    marg = (
        comp.groupby(["query_id", "role"], as_index=False)
        .agg(n_hits=("n_hits", "sum"), top_score=("top_score", "max"))
        .sort_values(["query_id", "role"])
        .reset_index(drop=True)
    )
    single = facets.search_facets_dv(dv_index)
    pd.testing.assert_frame_equal(marg, single, check_dtype=False)


def test_top_hits_per_bucket(ray_session, dv_index, duck):
    """top_hits: oracle parity; each bucket's rank-1 hit is the global
    best hit of that bucket (cross-checked via the filtered mode)."""
    from raystorm import facets

    got = facets.search_top_hits(dv_index)
    want = duck.execute(facets.top_hits_sql()).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )
    idx = query.SegmentIndex(dv_index)
    for (qid, role), g in got[got["rank"] == 1].groupby(["query_id", "role"]):
        text = dict((q[0], q[1]) for q in query.REFERENCE_QUERIES)[qid]
        best = idx.topk_filtered(text, 1, (("role", "=", role),))
        assert best.conv_id.iloc[0] == g.conv_id.iloc[0]
        assert int(best.turn_idx.iloc[0]) == int(g.turn_idx.iloc[0])


def test_has_parent_semantics(ray_session, dv_index, duck):
    """has_parent: oracle parity at sf0.001; results are child-BM25
    hits from parent-matching conversations only."""
    got = query.batch_has_parent(dv_index)
    want = duck.execute(query.has_parent_topk_sql()).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.reset_index(drop=True), check_dtype=False
    )
    idx = query.SegmentIndex(dv_index)
    res = idx.topk_has_parent("merge", "window", 10**9)
    # every hit is an assistant turn whose conversation has a user turn
    # matching the parent clause
    dv = idx.docvalues()
    ids = idx.codec.encode(res.conv_id.to_numpy(), res.turn_idx.to_numpy())
    roles, found = dv.lookup(ids, "role")
    assert found.all() and (roles == "assistant").all()
    pids, _ = idx._score_bm25("merge")
    proles, pfound = dv.lookup(pids, "role")
    pconvs = set(idx.codec.decode(pids[pfound & (proles == "user")])[0])
    assert set(res.conv_id) <= pconvs
    # and a subset of the unfiltered child hits with identical scores
    base = idx.topk("window", 10**9, "bm25")
    merged = res.merge(base, on=["conv_id", "turn_idx"], suffixes=("_hp", "_b"))
    assert len(merged) == len(res)
    np.testing.assert_allclose(merged.score_hp, merged.score_b, atol=2e-6)


def test_adjacency_matrix_algebra(ray_session, dv_index):
    """adjacency_matrix invariants: a pair bucket never exceeds either
    leg; disjoint filters (role=user vs role=assistant) produce no pair
    bucket; per-query filter counts sum over a role partition to at
    most the hit count (roles partition the corpus)."""
    from raystorm import facets

    out = facets.search_adjacency(dv_index)
    assert set(out.columns) == {"query_id", "bucket", "n_hits"}
    assert (out["n_hits"] > 0).all()  # empty buckets drop, as in ES
    piv = out.pivot_table(
        index="query_id", columns="bucket", values="n_hits", fill_value=0
    )
    # disjoint role filters never intersect
    assert "assistant&user" not in piv.columns
    assert "assistant&tooled" not in piv.columns
    for pair in ("assistant&early", "early&user", "early&tooled"):
        if pair in piv.columns:
            a, b = pair.split("&")
            assert (piv[pair] <= piv[a]).all()
            assert (piv[pair] <= piv[b]).all()
    # the early cut is real on this corpus: some pair bucket exists
    assert any(
        "&" in c for c in piv.columns
    ), "no pairwise intersections — filters degenerate"


def test_sorted_early_termination(ray_session, dv_index):
    """Index-sorted early termination: the build proves ts monotone in
    docid, ts-sorted queries look up ~k values (not candidate-set-
    sized), and the result is identical to the exhaustive path."""
    idx = query.SegmentIndex(dv_index)
    dv = idx.docvalues()
    assert dv.ts_monotone
    for _qid, text, k in query.REFERENCE_QUERIES[:4]:
        cands, _ = idx._score_bm25(text)
        if len(cands) <= k:
            continue
        for desc in (True, False):
            dv.lookups = 0
            fast = idx.topk_sorted(text, k, desc=desc)
            fast_lookups = dv.lookups
            # exhaustive path for comparison (bypass the monotone flag)
            dv.ts_monotone = False
            try:
                slow = idx.topk_sorted(text, k, desc=desc)
            finally:
                dv.ts_monotone = True
            pd.testing.assert_frame_equal(fast, slow, obj=f"{text} desc={desc}")
            assert fast_lookups < len(cands), (text, fast_lookups, len(cands))


def test_sorted_early_disproven_order_falls_back(ray_session, tmp_path):
    """A corpus whose ts is NOT monotone in docid must be stamped
    ts_monotone=False at build time, and sorted queries must stay
    correct through the exhaustive path."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from raystorm import build, corpus, docvalues
    from raystorm.corpus import TRANSCRIPTS_SCHEMA

    n = 400
    rng_ts = (np.arange(n, dtype=np.int64) * 7919) % n  # permuted, not sorted
    tbl = pa.Table.from_arrays(
        [
            pa.array([f"nm-{i:05d}" for i in range(n)], pa.string()),
            pa.array(np.zeros(n, np.int32)),
            pa.array(["user"] * n, pa.string()),
            pa.array([f"common word{i % 7}" for i in range(n)], pa.string()),
            pa.array([""] * n, pa.string()),
            pa.array(rng_ts * 1_000_000, pa.timestamp("us")),
        ],
        schema=TRANSCRIPTS_SCHEMA,
    )
    src = tmp_path / "nm.parquet"
    pq.write_table(tbl, str(src))
    d = str(tmp_path / "idx")
    build.build_index(
        rd.read_parquet(str(src)), d, input_fingerprint="nm",
        cfg=build.BuildConfig(num_partitions=4, split_target=500),
    )
    dm = docvalues.build_docvalues(rd.read_parquet(str(src)), d)
    assert dm["ts_monotone"] is False
    idx = query.SegmentIndex(d)
    got = idx.topk_sorted("common", 5, desc=True)
    # correctness: the five largest permuted timestamps win
    top5 = np.sort(rng_ts)[-5:][::-1] * 1_000_000
    assert list(got["ts_us"]) == [int(t) for t in top5]


def test_sorted_k_zero_and_contract(ray_session, dv_index):
    """k <= 0 returns the empty frame on BOTH sorted paths (ADVICE r3:
    the early path used to crash on vals.min() of an empty window)."""
    idx = query.SegmentIndex(dv_index)
    assert idx.docvalues().ts_monotone
    for desc in (True, False):
        early = idx.topk_sorted("merge sort", 0, desc=desc)
        assert len(early) == 0 and list(early.columns) == [
            "rank",
            "conv_id",
            "turn_idx",
            "ts_us",
        ]
    # exhaustive path (monotone flag off) agrees
    dv = idx.docvalues()
    dv.ts_monotone = False
    try:
        slow = idx.topk_sorted("merge sort", 0)
    finally:
        dv.ts_monotone = True
    assert len(slow) == 0


def test_sorted_missing_value_contract(ray_session, dv_index):
    """Candidates whose doc value is missing are silently EXCLUDED on
    both sorted paths (ADVICE r3: the early path used to raise where
    the exhaustive path filtered).  Drop the docid-extreme candidate —
    the early scan must skip it and keep probing."""
    import numpy as np

    idx = query.SegmentIndex(dv_index)
    dv = idx.docvalues()
    assert dv.ts_monotone
    cands, _ = idx._score_bm25("merge sort")
    assert len(cands) > 8
    victims = {int(cands[-1]), int(cands[0]), int(cands[len(cands) // 2])}
    orig = dv.lookup

    def patched(ids, field):
        vals, found = orig(ids, field)
        return vals, found & ~np.isin(ids, list(victims))

    dv.lookup = patched
    try:
        for desc in (True, False):
            fast = idx.topk_sorted("merge sort", 5, desc=desc)
            dv.ts_monotone = False
            try:
                slow = idx.topk_sorted("merge sort", 5, desc=desc)
            finally:
                dv.ts_monotone = True
            pd.testing.assert_frame_equal(fast, slow, obj=f"desc={desc}")
            got_ids = set(
                idx.codec.encode(
                    fast["conv_id"].to_numpy(object), fast["turn_idx"].to_numpy()
                ).tolist()
            )
            assert not (got_ids & victims)
    finally:
        del dv.lookup
