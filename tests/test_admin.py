"""Index lifecycle admin: build -> compact -> swap -> query the
swapped-in live index (KVSClient.java:224-251 rename/delete analog)."""

import json
import os

import pandas as pd
import pytest

from raystorm import admin, build, compact, corpus, query

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def index_pair(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("admin")
    src = str(root / "live")
    ds = corpus.transcripts_from_documents(SF)
    cfg = build.BuildConfig(num_partitions=4, split_target=500)
    build.build_index(ds, src, input_fingerprint=SF, cfg=cfg)
    cand = str(root / "candidate")
    compact.compact_index(src, cand)
    return root, src, cand


def test_swap_promotes_candidate_and_keeps_rollback(index_pair):
    root, src, cand = index_pair
    want = query.SegmentIndex(cand).topk("hash join", 10, "bm25")
    before = query.SegmentIndex(src).topk("hash join", 10, "bm25")
    backup = admin.swap_index(cand, src)
    # the live dir now serves the compacted index, answers unchanged
    after = query.SegmentIndex(src).topk("hash join", 10, "bm25")
    pd.testing.assert_frame_equal(after, want)
    pd.testing.assert_frame_equal(after, before)  # compaction is lossless
    # rollback dir holds the old live index and still answers
    assert backup == src + ".prev"
    rb = query.SegmentIndex(backup).topk("hash join", 10, "bm25")
    pd.testing.assert_frame_equal(rb, before)


def test_rename_delete_info(index_pair, tmp_path):
    root, src, _cand = index_pair
    info = admin.index_info(src)
    assert info["status"] == "complete" and info["postings"] > 0
    moved = str(tmp_path / "moved")
    admin.rename_index(src + ".prev", moved)
    assert query.SegmentIndex(moved).postings("the", "text") is not None
    admin.delete_index(moved)
    assert not os.path.exists(moved)


def test_delete_refuses_non_index(tmp_path):
    d = tmp_path / "notindex"
    d.mkdir()
    (d / "data.txt").write_text("x")
    with pytest.raises(ValueError):
        admin.delete_index(str(d))
    assert d.exists()


def test_swap_refuses_incomplete_candidate(index_pair, tmp_path):
    d = tmp_path / "cand"
    d.mkdir()
    (d / "manifest.json").write_text(json.dumps({"status": "building"}))
    with pytest.raises(ValueError):
        admin.swap_index(str(d), str(tmp_path / "live"))


def test_serve_actor_pool_matches_direct_index(index_pair):
    """Named-actor serving replicas (SearchServer analog) must answer
    exactly like a locally loaded SegmentIndex, and start() must be
    idempotent (get_if_exists reconnects instead of reloading)."""
    from raystorm import serve

    _root, live, _cand = index_pair
    h = serve.start(live, replicas=2, name="t-serve")
    try:
        direct = query.SegmentIndex(live)
        for text in ("hash join", "the", "zzzabsent"):
            a = h.topk(text, 10, "bm25")  # round-robins both replicas
            b = h.topk(text, 10, "bm25")
            want = direct.topk(text, 10, "bm25")
            pd.testing.assert_frame_equal(a, want)
            pd.testing.assert_frame_equal(b, want)
        assert h.info()["n_terms"] > 0
        h2 = serve.start(live, replicas=2, name="t-serve")  # reconnect
        pd.testing.assert_frame_equal(
            h2.topk("hash join", 10, "bm25"), direct.topk("hash join", 10, "bm25")
        )
    finally:
        assert serve.stop(replicas=2, name="t-serve") == 2


def test_http_front_matches_direct_actor(index_pair):
    """GET /search over the stdlib HTTP front must return exactly the
    replica pool's answer (the SearchServer route analog); /info serves
    stats; unknown routes 404."""
    import json as _json
    import urllib.request

    from raystorm import serve

    _root, live, _cand = index_pair
    host, port = serve.start_http(live, replicas=2, name="t-http")
    try:
        direct = query.SegmentIndex(live)
        for text, mode in (("hash join", "bm25"), ("the", "bm25_and")):
            from urllib.parse import quote

            url = f"http://{host}:{port}/search?q={quote(text)}&k=10&mode={mode}"
            rows = _json.loads(urllib.request.urlopen(url, timeout=30).read())
            got = pd.DataFrame(rows, columns=["rank", "conv_id", "turn_idx", "score"])
            want = direct.topk(text, 10, mode).reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want, check_dtype=False, atol=1e-9)
        info = _json.loads(
            urllib.request.urlopen(f"http://{host}:{port}/info", timeout=30).read()
        )
        assert info["n_terms"] > 0
        import urllib.error

        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"http://{host}:{port}/nope", timeout=30)
        # a bad request is the client's fault: 400, with the reason
        for route in ("search", "ui"):
            for bad in ("k=0", "k=abc", "k=10&mode=nope"):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(
                        f"http://{host}:{port}/{route}?q=hash&{bad}", timeout=30
                    )
                assert err.value.code == 400, (route, bad)
                reason = _json.loads(err.value.read())["error"]
                assert ("mode" if "mode" in bad else "k must be") in reason, reason
        # a malformed filter is a bad request too, on the filter path
        for flt, why in (("notjson", "not JSON"), ('[["role","~","x"]]', "unknown filter op")):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://{host}:{port}/search?q=hash&k=10&filter={quote(flt)}", timeout=30
                )
            assert err.value.code == 400, flt
            assert why in _json.loads(err.value.read())["error"]
    finally:
        assert serve.stop(replicas=2, name="t-http") == 2


def test_snapshot_restore_roundtrip_and_incremental(ray_session, tmp_path_factory):
    """Snapshot/restore: restored index is byte-identical and
    query-identical; a second snapshot after a tombstone delete copies
    only the files the delete touched (content-addressed dedup)."""
    from raystorm import deletes

    root = tmp_path_factory.mktemp("snap")
    idx = str(root / "idx")
    ds = corpus.transcripts_from_documents(SF)
    build.build_index(
        ds, idx, input_fingerprint=SF,
        cfg=build.BuildConfig(num_partitions=4, split_target=500),
    )
    repo = str(root / "repo")
    s1 = admin.snapshot_index(idx, repo, "s1")
    assert s1["copied"] == s1["files"] > 0

    # restore -> byte identity with the source tree
    rest = str(root / "restored")
    admin.restore_index(repo, "s1", rest)
    for r, _d, files in os.walk(idx):
        for f in files:
            src_f = os.path.join(r, f)
            dst_f = os.path.join(rest, os.path.relpath(src_f, idx))
            assert open(src_f, "rb").read() == open(dst_f, "rb").read()
    a = query.SegmentIndex(idx).topk("hash join", 10, "bm25")
    b = query.SegmentIndex(rest).topk("hash join", 10, "bm25")
    pd.testing.assert_frame_equal(a, b)

    # incremental: a small mutation re-copies only what changed
    deletes.delete_convs(idx, ["conv-00000003"])
    s2 = admin.snapshot_index(idx, repo, "s2")
    assert 0 < s2["copied"] < s2["files"]
    rest2 = str(root / "restored2")
    admin.restore_index(repo, "s2", rest2)
    c = query.SegmentIndex(rest2).topk("the", 10, "bm25")
    d = query.SegmentIndex(idx).topk("the", 10, "bm25")
    pd.testing.assert_frame_equal(c, d)

    # restore refuses to clobber
    with pytest.raises(FileExistsError):
        admin.restore_index(repo, "s1", rest)


def test_request_cache_hits_and_identity(index_pair):
    """Serving request cache: the second identical request on a
    single-replica pool is a hit and byte-identical; wire serialization
    means caller mutation can never poison the cache."""
    from raystorm import serve

    _root, live, _cand = index_pair
    handle = serve.start(live, replicas=1, name="t-cache")
    try:
        a = handle.topk("hash join", 10, "bm25")
        b = handle.topk("hash join", 10, "bm25")
        pd.testing.assert_frame_equal(a, b)
        st = handle.info()["cache"]
        assert st["hits"] == 1 and st["misses"] == 1
        b.loc[:, "score"] = -1.0
        c = handle.topk("hash join", 10, "bm25")
        pd.testing.assert_frame_equal(a, c)
        handle.topk("the", 5, "bm25")
        assert handle.info()["cache"]["entries"] == 2
        # k is validated before the cache lookup, not coerced into a hit
        with pytest.raises(ValueError, match="k must be a positive integer"):
            handle.topk("hash join", 10.0, "bm25")
    finally:
        assert serve.stop(replicas=1, name="t-cache") == 1


def test_http_percolate_matches_direct(ray_session, index_pair):
    """/percolate over the HTTP front == a direct Percolator match."""
    import json as _json
    import urllib.request
    from urllib.parse import quote

    import pyarrow as pa

    from raystorm import percolate, serve

    _root, live, _cand = index_pair
    host, port = serve.start_http(live, replicas=2, name="t-perc-http")
    try:
        p = percolate.Percolator(percolate.compile_queries())
        for doc in ("merge window table", "hash value scan the the", "nothing"):
            url = f"http://{host}:{port}/percolate?doc={quote(doc)}"
            got = _json.loads(urllib.request.urlopen(url, timeout=30).read())["matched"]
            want = p(
                pa.table(
                    {
                        "conv_id": ["_doc"],
                        "turn_idx": pa.array([0], pa.int32()),
                        "text": [doc],
                    }
                )
            )["query_id"].to_pylist()
            assert got == want, doc
        # a doc containing a stored ANY term must fire that query
        assert "pc01" in _json.loads(
            urllib.request.urlopen(
                f"http://{host}:{port}/percolate?doc={quote('a merge happened')}",
                timeout=30,
            ).read()
        )["matched"]
    finally:
        assert serve.stop(replicas=2, name="t-perc-http") == 2


def test_rollover_ingest_state_machine(ray_session, tmp_path):
    """admin.ingest: build -> append -> roll, old generations immutable."""
    import json as _json

    from raystorm import admin, build, corpus

    root = str(tmp_path / "roll")
    cfg = build.BuildConfig(num_partitions=8, split_target=500)
    sf = "/root/testdata/sf0.001"
    chunks = ((None, 170), (170, 340), (340, None))
    r0 = admin.ingest(root, corpus.transcripts_from_documents(sf, *chunks[0]),
                      max_convs=10**9, cfg=cfg, fingerprint="c0")
    assert not r0["rolled"] and len(r0["generations"]) == 1
    n0 = admin.index_info(r0["write_index"])["n_convs"]
    # append path: cap not reached
    r1 = admin.ingest(root, corpus.transcripts_from_documents(sf, *chunks[1]),
                      max_convs=10**9, cfg=cfg, fingerprint="c1")
    assert not r1["rolled"] and len(r1["generations"]) == 1
    assert admin.index_info(r1["write_index"])["n_convs"] > n0
    gen0_manifest = open(os.path.join(r1["write_index"], "manifest.json")).read()
    # rollover path: cap exceeded -> new generation; gen-00000 untouched
    r2 = admin.ingest(root, corpus.transcripts_from_documents(sf, *chunks[2]),
                      max_convs=1, cfg=cfg, fingerprint="c2")
    assert r2["rolled"] and len(r2["generations"]) == 2
    assert r2["write_index"] != r1["write_index"]
    assert open(os.path.join(r1["write_index"], "manifest.json")).read() == gen0_manifest
    # reads span generations rank-identically to one full index
    from raystorm import federate, query

    idx_full_dir = str(tmp_path / "full")
    build.build_index(corpus.transcripts_from_documents(sf), idx_full_dir,
                      input_fingerprint="full", cfg=cfg)
    fed = federate.batch_evaluate_federated(r2["generations"], query.REFERENCE_QUERIES)
    single = []
    idx = query.SegmentIndex(idx_full_dir)
    for qid, text, k in query.REFERENCE_QUERIES:
        df = idx.topk(text, k, "bm25")
        df.insert(0, "query_id", qid)
        single.append(df)
    single = pd.concat(single, ignore_index=True)
    pd.testing.assert_frame_equal(
        fed.reset_index(drop=True), single.reset_index(drop=True), check_dtype=False
    )


def test_alias_resolution_and_atomic_repoint(index_pair, tmp_path):
    """Aliases: SegmentIndex(alias file) serves the target; repointing
    is one atomic replace and flips answers without moving directories;
    dangling / non-alias paths fail loudly."""
    root, src, cand = index_pair
    # src was swapped by the earlier test — both dirs are valid indexes
    a = str(tmp_path / "live.alias")
    admin.set_alias(a, src)
    via = query.SegmentIndex(a).topk("hash join", 10, "bm25")
    direct = query.SegmentIndex(src).topk("hash join", 10, "bm25")
    pd.testing.assert_frame_equal(via, direct)
    # repoint at a fresh compacted generation: answers flip atomically
    cand2 = str(tmp_path / "cand2")
    compact.compact_index(src, cand2)
    admin.set_alias(a, cand2)
    assert admin.resolve_index(a) == os.path.abspath(cand2)
    via2 = query.SegmentIndex(a).topk("hash join", 10, "bm25")
    pd.testing.assert_frame_equal(
        via2, query.SegmentIndex(cand2).topk("hash join", 10, "bm25")
    )
    # guards: aliasing a non-index refuses; resolving garbage refuses
    with pytest.raises(ValueError):
        admin.set_alias(str(tmp_path / "x.alias"), str(tmp_path))
    bad = tmp_path / "notalias.json"
    bad.write_text("{}")
    with pytest.raises(ValueError):
        admin.resolve_index(str(bad))
    admin.delete_alias(a)
    assert not os.path.exists(a)
    with pytest.raises(ValueError):
        admin.delete_alias(str(bad))


def test_https_front_tls(index_pair, tmp_path):
    """TLS on the serving front (the reference's HTTPS-on-443 analog,
    SearchServer.java:22): with --tls-cert/--tls-key the front wraps
    its socket in TLS — an HTTPS GET returns the same answers, the
    scheme reports https, and a plaintext GET against the TLS port
    fails."""
    import datetime
    import json as _json
    import ssl
    import urllib.request

    import pytest

    cryptography = pytest.importorskip("cryptography")
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import rsa
    from cryptography.x509.oid import NameOID

    from raystorm import serve

    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    name = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, "localhost")])
    t0 = datetime.datetime(2026, 1, 1)
    cert = (
        x509.CertificateBuilder()
        .subject_name(name)
        .issuer_name(name)
        .public_key(key.public_key())
        .serial_number(1)
        .not_valid_before(t0)
        .not_valid_after(t0 + datetime.timedelta(days=3650))
        .sign(key, hashes.SHA256())
    )
    cf, kf = tmp_path / "cert.pem", tmp_path / "key.pem"
    cf.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    kf.write_bytes(
        key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.TraditionalOpenSSL,
            serialization.NoEncryption(),
        )
    )

    _root, live, _cand = index_pair
    host, port = serve.start_http(
        live, replicas=2, name="t-tls", certfile=str(cf), keyfile=str(kf)
    )
    try:
        ctx = ssl._create_unverified_context()  # self-signed test cert
        info = _json.loads(
            urllib.request.urlopen(
                f"https://{host}:{port}/info", timeout=30, context=ctx
            ).read()
        )
        assert info["n_terms"] > 0
        rows = _json.loads(
            urllib.request.urlopen(
                f"https://{host}:{port}/search?q=hash%20join&k=5", timeout=30,
                context=ctx,
            ).read()
        )
        assert len(rows) == 5
        import ray

        a = ray.get_actor("t-tls-http")
        assert ray.get(a.scheme.remote()) == "https"
        # plaintext against the TLS socket must fail, not half-work
        with pytest.raises(Exception):
            urllib.request.urlopen(f"http://{host}:{port}/info", timeout=10)
        # a stalled client (TCP connect, then silence) must NOT hang the
        # front: the handshake runs in the per-request handler thread,
        # never the accept loop, so a concurrent request still answers
        import socket

        stalled = socket.create_connection((host, port), timeout=10)
        try:
            again = _json.loads(
                urllib.request.urlopen(
                    f"https://{host}:{port}/info", timeout=10, context=ctx
                ).read()
            )
            assert again["n_terms"] > 0
        finally:
            stalled.close()
    finally:
        assert serve.stop(replicas=2, name="t-tls") == 2


def test_topk_many_matches_per_call(index_pair):
    """The completion-driven batch fan-out returns, in INPUT order, the
    exact per-call answers — dynamic dispatch must change scheduling
    only, never results (duplicate queries included)."""
    from raystorm import query, serve

    _root, live, _cand = index_pair
    h = serve.start(live, replicas=2, name="t-many")
    try:
        texts = ["hash join", "the", "merge sort", "lock table", "hash join"]
        import pytest

        with pytest.raises(ValueError, match="window"):
            h.topk_many(texts, 5, "bm25", window=0)
        outs = h.topk_many(texts, 5, "bm25", window=2)
        direct = query.SegmentIndex(live)
        assert len(outs) == len(texts)
        for t, o in zip(texts, outs):
            pd.testing.assert_frame_equal(
                o.reset_index(drop=True),
                direct.topk(t, 5, "bm25").reset_index(drop=True),
                check_dtype=False,
            )
    finally:
        assert serve.stop(replicas=2, name="t-many") == 2


def test_http_ui_results_page(index_pair):
    """The /ui route (the reference's HTML results page analog,
    SearchServer.java:225-258) renders the SAME ranked hits as the JSON
    route, HTML-escaped, with the search form echoing the query."""
    import urllib.request
    from urllib.parse import quote

    from raystorm import query, serve

    _root, live, _cand = index_pair
    host, port = serve.start_http(live, replicas=2, name="t-ui")
    try:
        q = "hash join"
        page = urllib.request.urlopen(
            f"http://{host}:{port}/ui?q={quote(q)}&k=5", timeout=30
        ).read().decode()
        assert "text/html" not in page and page.startswith("<!doctype html>")
        want = query.SegmentIndex(live).topk(q, 5, "bm25")
        for conv in want["conv_id"]:
            assert str(conv) in page
        assert f"value='{q}'" in page
        empty = urllib.request.urlopen(
            f"http://{host}:{port}/ui", timeout=30
        ).read().decode()
        assert "<ol></ol>" in empty  # no query: form only, no results
    finally:
        assert serve.stop(replicas=2, name="t-ui") == 2
