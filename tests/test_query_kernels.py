"""Bit-identity of the query hot path's accumulate and top-k steps
against the straightforward implementations they replaced.  The oracle
gates compare hashes of rounded scores, so a faster kernel must give
the same float64 bits, not merely close ones."""

import threading
import types
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raystorm import query, segments
from raystorm.analysis import round_half_up


def _accumulate_ref(id_chunks, sc_chunks):
    """The accumulator before the dense/sorted split: ``np.unique`` +
    ``np.bincount`` over the concatenated chunks."""
    if not id_chunks:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    ids = np.concatenate(id_chunks)
    scs = np.concatenate(sc_chunks)
    uniq, inv = np.unique(ids, return_inverse=True)
    return uniq, np.bincount(inv, weights=scs)


def _assert_bits_equal(got, want):
    assert got[0].dtype == want[0].dtype
    assert np.array_equal(got[0], want[0])
    assert got[1].dtype == np.float64
    assert got[1].tobytes() == want[1].tobytes()


def _chunks(rng, n_chunks, n, span, sort=True):
    ids, scs = [], []
    for _ in range(n_chunks):
        c = rng.choice(span, size=min(n, span), replace=False).astype(np.int64)
        ids.append(np.sort(c) if sort else c)
        # scores with many digits, so any change of summation order
        # shows in the last bits
        scs.append(rng.random(len(c)) * 10 ** rng.uniform(-3, 3, len(c)))
    return ids, scs


@pytest.mark.parametrize("span_per_posting", [1, 4, 8, 9, 50, 10_000])
@pytest.mark.parametrize("n_chunks", [2, 3, 5])
def test_accumulate_matches_reference_dense_and_sorted(n_chunks, span_per_posting):
    # 8 * postings >= span takes the dense path; sparser input the sorted one
    rng = np.random.default_rng(n_chunks * 100 + span_per_posting)
    n = 400
    ids, scs = _chunks(rng, n_chunks, n, n * n_chunks * span_per_posting)
    ids = [c + 1_000_003 for c in ids]  # a docid span that starts far from 0
    _assert_bits_equal(query._accumulate(ids, scs), _accumulate_ref(ids, scs))


@pytest.mark.parametrize("span", [300, 10**7])
def test_accumulate_sums_repeated_docids_in_chunk_order(span):
    # one chunk repeats docids (overlapping runs of one term); partials
    # of a doc must be added in chunk order on both paths
    rng = np.random.default_rng(span)
    base = np.sort(rng.choice(span, 200, replace=False)).astype(np.int64)
    rep = np.concatenate([base, base[::3], base[:50]])
    ids = [rep, np.sort(rng.choice(span, 150, replace=False)).astype(np.int64)]
    scs = [rng.random(len(ids[0])) * 7.3, rng.random(150) * 1e-3]
    _assert_bits_equal(query._accumulate(ids, scs), _accumulate_ref(ids, scs))


@pytest.mark.parametrize("span", [100, 10**9])
def test_accumulate_single_chunk(span):
    rng = np.random.default_rng(7)
    inc = np.sort(rng.choice(span, 80, replace=False)).astype(np.int64)
    sc = rng.random(80)
    sc[3] = -0.0  # 0.0 + -0.0 is +0.0 in the reference
    _assert_bits_equal(query._accumulate([inc], [sc]), _accumulate_ref([inc], [sc]))
    unsorted = rng.permutation(inc)
    _assert_bits_equal(query._accumulate([unsorted], [sc]), _accumulate_ref([unsorted], [sc]))
    ints = np.ones(80, np.int64)  # integer weights come back as float64
    _assert_bits_equal(query._accumulate([inc], [ints]), _accumulate_ref([inc], [ints]))


def test_accumulate_empty():
    e = np.empty(0, np.int64)
    _assert_bits_equal(query._accumulate([], []), _accumulate_ref([e], [np.empty(0)]))
    _assert_bits_equal(query._accumulate([e, e], [np.empty(0)] * 2), _accumulate_ref([e], [np.empty(0)]))


class _Codec:
    """Identity docid codec: conv_id is the docid as text, turn_idx 0."""

    def decode(self, docids):
        return np.array([str(d) for d in docids], object), np.zeros(len(docids), np.int32)


# the three SegmentIndex attributes _format_topk reads
_FMT = types.SimpleNamespace(codec=_Codec(), last_trace=query.QueryTrace(), _scratch=query._QueryScratch(0))


def _format_ref(docids, scores, k):
    """Full sort: every score rounded, (rounded desc, docid asc)."""
    r = round_half_up(scores, query.RANK_ROUND)
    sel = np.lexsort((docids, -r))[:k]
    return docids[sel], round_half_up(scores[sel], query.SCORE_ROUND)


# scores on a coarse grid plus offsets of a few 1e-10: many exact ties,
# and many scores that differ raw but tie (or not) after RANK_ROUND
_SCORES = st.lists(
    st.tuples(st.integers(0, 6), st.sampled_from([0.0, 1e-10, 3e-10, 4.9e-10, 5e-10, 7e-10, 2e-9, -4e-10])),
    min_size=1,
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(_SCORES, st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_format_topk_matches_full_sort_at_ties(pairs, k, seed):
    rng = np.random.default_rng(seed)
    scores = np.array([1.25 + 0.5 * g + off for g, off in pairs])
    docids = rng.choice(10 * len(scores), len(scores), replace=False).astype(np.int64)
    df = query.SegmentIndex._format_topk(_FMT, docids, scores, k)
    want_ids, want_scores = _format_ref(docids, scores, k)
    assert df["conv_id"].tolist() == [str(d) for d in want_ids]
    assert df["score"].to_numpy().tobytes() == want_scores.tobytes()
    assert df["rank"].tolist() == list(range(1, len(want_ids) + 1))


def test_format_topk_boundary_straddles_rank_round():
    # the k-th raw score and its neighbours within 5e-10: after rounding
    # to 9 decimals some tie with it (docid order decides), some do not
    kth = 3.123456789
    scores = np.array([kth + 4e-10, kth, kth - 4e-10, kth - 6e-10, kth + 6e-10, 9.0, kth - 2e-6])
    docids = np.array([50, 40, 30, 20, 10, 60, 5], np.int64)
    for k in range(1, len(scores) + 2):
        df = query.SegmentIndex._format_topk(_FMT, docids, scores, k)
        want_ids, _ = _format_ref(docids, scores, k)
        assert df["conv_id"].tolist() == [str(d) for d in want_ids], k


# ----- the scratch-backed hot path ------------------------------------------


def _blob(n, seed, big_dl=False):
    rng = np.random.default_rng(seed)
    docids = np.sort(rng.choice(10 * n + 5, n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 4, n).astype(np.int64)
    dls = rng.integers(1, 5000 if big_dl else 100, n).astype(np.int64)
    return segments.encode_run(docids, tfs, dls, 1.7, 40.0, 1.2, 0.75), (docids, tfs, dls)


def test_decode_run_into_buffer_matches_fresh_decode():
    """``decode_run`` / ``bm25_term_scores`` into a reused buffer give
    the same arrays and the same score bits as without one — also when
    a larger run follows a smaller one (the buffer grows) and when a
    smaller run lands in a larger, already used buffer."""
    buf = segments.RunBuffer()
    # n=1 and 100 are single-block runs, the rest multi-block; small dls
    # keep some blobs free of continuation bytes after the header
    for n, seed, big in ((100, 1, False), (5000, 2, True), (1, 3, False), (129, 4, True), (3000, 5, False)):
        blob, want = _blob(n, seed, big)
        fresh = segments.decode_run(blob)
        got = segments.decode_run(blob, buf)
        for f, g, w in zip(fresh, got, want):
            assert f.dtype == g.dtype == np.int64
            assert np.array_equal(f, w) and np.array_equal(g, w)
        want_sc = segments.bm25_term_scores(*want[1:], 2.3, 37.5, 1.2, 0.75)
        got_sc = segments.bm25_term_scores(*got[1:], 2.3, 37.5, 1.2, 0.75, buf)
        assert got_sc.tobytes() == want_sc.tobytes()


def test_varint_decode_into_buffer():
    out = np.full(64, 99, np.uint64)
    for v in ([0, 1, 127], [128, 5, 2**40, 3], []):
        enc = segments.varint_encode(np.array(v, np.int64))
        got = segments.varint_decode(enc, out)
        assert got.base is out or len(v) == 0
        assert got.astype(np.int64).tolist() == v


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dense_scratch_sum_and_update_match_reference(seed):
    """The scratch's dense accumulator: ``sum_runs`` equals the reference
    accumulator bit for bit, and ``update`` adds to given docs
    only, each run's partial in run order (runs may repeat a docid, as
    overlapping runs of one term do).  Both leave the scratch clean."""
    rng = np.random.default_rng(seed)
    span = 5000
    ids, scs = _chunks(rng, 4, 900, span)
    scratch = query._QueryScratch(span)
    _assert_bits_equal(scratch.sum_runs(zip(ids, scs)), _accumulate_ref(ids, scs))
    acc_ids = np.sort(rng.choice(span, 700, replace=False)).astype(np.int64)
    acc_sc = rng.random(700) * 3
    want = acc_sc.copy()
    for d, sc in zip(ids, scs):  # reference: one run after the other
        pos = np.minimum(np.searchsorted(d, acc_ids), len(d) - 1)
        hit = d[pos] == acc_ids
        want[hit] += sc[pos[hit]]
    got = scratch.update(acc_ids, acc_sc, zip(ids, scs))
    assert got.tobytes() == want.tobytes()
    assert not scratch.seen.any() and not scratch.score.any()


def test_sum_runs_scans_only_the_touched_docid_range():
    """``sum_runs`` reads and resets only the docid range its runs
    touched, so a query over a narrow range costs that range, not the
    span: slots marked outside it are neither returned nor cleared."""
    scratch = query._QueryScratch(1000)
    scratch.seen[[0, 399, 411, 999]] = True
    runs = [
        (np.array([], np.int64), np.array([])),
        (np.array([400, 410], np.int64), np.array([1.0, 2.0])),
        (np.array([405, 410], np.int64), np.array([0.5, 0.25])),
    ]
    ids, totals = scratch.sum_runs(runs)
    assert ids.tolist() == [400, 405, 410] and totals.tolist() == [1.0, 0.5, 2.25]
    assert np.flatnonzero(scratch.seen).tolist() == [0, 399, 411, 999]
    assert not scratch.score.any()


@pytest.fixture(scope="module")
def head_index(ray_session, tmp_path_factory):
    """A head-like index: 40,000 turns where ``alpha`` is in ~90% and
    ``beta`` in ~60% of them, salted into several runs each, so the
    pair takes the dense accumulator."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from raystorm import build
    from raystorm.corpus import TRANSCRIPTS_SCHEMA

    rng = np.random.default_rng(11)
    n_conv, turns = 4000, 10
    n = n_conv * turns
    fill = np.array(["".join(chr(97 + (i // 26**j) % 26) for j in range(3)) for i in range(60)], object)
    words = fill[rng.integers(0, len(fill), (n, 3))]
    alpha = np.where(rng.random(n) < 0.9, np.where(rng.random(n) < 0.3, " alpha alpha", " alpha"), "")
    beta = np.where(rng.random(n) < 0.6, " beta", "")
    pad = np.array([" " + " ".join(fill[:m]) for m in range(8)], object)[rng.integers(0, 8, n)]
    texts = [f"{a} {b} {c}{x}{y}{p}" for (a, b, c), x, y, p in zip(words, alpha, beta, pad)]
    tbl = pa.Table.from_arrays(
        [
            pa.array([f"hc-{i // turns:05d}" for i in range(n)], pa.string()),
            pa.array(np.tile(np.arange(turns, dtype=np.int32), n_conv)),
            pa.array(["user"] * n, pa.string()),
            pa.array(texts, pa.string()),
            pa.array([""] * n, pa.string()),
            pa.array(np.arange(n, dtype=np.int64) * 1_000_000, pa.timestamp("us")),
        ],
        schema=TRANSCRIPTS_SCHEMA,
    )
    root = tmp_path_factory.mktemp("head_idx")
    pq.write_table(tbl, str(root / "head.parquet"))
    d = str(root / "idx")
    cfg = build.BuildConfig(num_partitions=4, split_target=5000)
    build.build_index(rd.read_parquet(str(root / "head.parquet")), d, input_fingerprint="head", cfg=cfg)
    idx = query.SegmentIndex(d)
    assert idx.n_runs("alpha") > 1 and idx.n_runs("beta") > 1
    return idx


HEAD_QUERY = "alpha beta"


def test_warm_head_query_allocation_bound(head_index):
    """A warm, repeated head query allocates at most 16 B per decoded
    posting at its peak (numpy reports its buffers to tracemalloc):
    decode, score and the dense accumulator write into the index's
    scratch, and only the candidates' docids and totals are fresh."""
    import tracemalloc

    idx = head_index
    for _ in range(2):
        idx.topk(HEAD_QUERY, 10, "bm25")
    tracemalloc.start()
    try:
        idx.topk(HEAD_QUERY, 10, "bm25")
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        idx.topk(HEAD_QUERY, 10, "bm25")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    postings = idx.last_trace.postings_decoded
    assert postings > 50_000
    assert peak - before <= 16 * postings, (peak - before) / postings


def _score_ref(idx, text):
    """Exhaustive BM25 without the scratch: fresh ``postings`` arrays,
    the reference accumulator, tombstones dropped afterwards."""
    fd = idx._dict["text"]
    avgdl = idx.global_stats["text"]["avgdl"]
    id_chunks, sc_chunks = [], []
    for t in sorted(set(text.split())):
        docids, tfs, dls = idx.postings(t)
        id_chunks.append(docids)
        sc_chunks.append(segments.bm25_term_scores(tfs, dls, float(fd.idf[fd.rank_of(t)]), avgdl, idx.k1, idx.b))
    ids, totals = _accumulate_ref(id_chunks, sc_chunks)
    return idx._drop_deleted(ids, totals)


def test_dense_path_on_tombstoned_index_matches_no_scratch(head_index, tmp_path, monkeypatch):
    """Tombstoned docs never reach the dense accumulator: on a tombstoned
    copy, the dense path's (docids, totals) equal, bit for bit, the
    scratch-free reference, and the scratch is clean after every call."""
    from raystorm import deletes

    d = str(tmp_path / "tomb")
    deletes.copy_index(head_index.index_dir, d)
    deletes.delete_convs(d, [f"hc-{i:05d}" for i in range(0, 4000, 7)], delete_fingerprint="every7")
    idx = query.SegmentIndex(d)
    assert len(idx._ts_starts)
    added = []
    sum_runs = query._QueryScratch.sum_runs
    monkeypatch.setattr(query._QueryScratch, "sum_runs", lambda self, runs: (added.append(1), sum_runs(self, runs))[1])
    for text in (HEAD_QUERY, "alpha beta aaa"):
        want = _score_ref(idx, text)
        got = idx._score_bm25(text)
        _assert_bits_equal(got, want)
        assert not idx._scratch.seen.any() and not idx._scratch.score.any()
    assert added, "the dense path did not run"
    df = idx.topk(HEAD_QUERY, 20, "bm25")
    assert not set(df["conv_id"]) & {f"hc-{i:05d}" for i in range(0, 4000, 7)}


def test_threads_query_through_their_own_scratch(head_index):
    """Each thread that queries an index gets its own scratch, so calls
    from several threads at once return what one thread alone does."""
    import pandas as pd

    idx = head_index
    want = {mode: idx.topk(HEAD_QUERY, 10, mode) for mode in ("bm25", "bm25_pruned")}
    start = threading.Barrier(2)

    def work(_):
        start.wait()
        return [(mode, idx.topk(HEAD_QUERY, 10, mode)) for _ in range(4) for mode in want], idx._scratch

    with ThreadPoolExecutor(2) as pool:
        got = list(pool.map(work, range(2)))
    assert len({id(idx._scratch), id(got[0][1]), id(got[1][1])}) == 3
    for frames, _scratch in got:
        for mode, df in frames:
            pd.testing.assert_frame_equal(df, want[mode], obj=mode)
