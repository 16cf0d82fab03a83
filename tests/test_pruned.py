"""MaxScore-pruned BM25 must be rank-identical to the exhaustive
scorer — on the documents-derived corpus AND a Zipf synthetic corpus whose
head terms are salted across partitions (the pruning's hard case)."""

import numpy as np
import pandas as pd
import pytest

from raystorm import build, corpus, query

SF = "/root/testdata/sf0.01"


@pytest.fixture(scope="module")
def sf_index(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("pruned_sf_idx")
    ds = corpus.transcripts_from_documents(SF)
    cfg = build.BuildConfig(num_partitions=8, split_target=2000)
    build.build_index(ds, str(d), input_fingerprint=SF, cfg=cfg)
    return query.SegmentIndex(str(d))


@pytest.fixture(scope="module")
def synth_index(ray_session, tmp_path_factory):
    import ray.data as rd

    d = tmp_path_factory.mktemp("pruned_synth_idx")
    synth = corpus.synth_transcripts(n_convs=300)
    cfg = build.BuildConfig(num_partitions=8, split_target=500)  # force splits
    m = build.build_index(
        rd.read_parquet(synth), str(d), input_fingerprint=synth, cfg=cfg
    )
    assert m["n_head_terms_split"] > 0, "need salted head terms for this test"
    return query.SegmentIndex(str(d))


QUERIES = [q[1] for q in query.REFERENCE_QUERIES] + [
    "the customer merge hash join sort window agg stream big small fast slow",
    "the a key value table",
]


@pytest.mark.parametrize("mode", ["bm25_pruned", "bm25_bmw"])
def test_pruned_rank_identical_sf(sf_index, mode):
    for text in QUERIES:
        for k in (1, 5, 10, 100):
            a = sf_index.topk(text, k, "bm25").reset_index(drop=True)
            b = sf_index.topk(text, k, mode).reset_index(drop=True)
            pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=f"{text!r} k={k}")


def test_bmw_rank_identical_synth_and_skips(synth_index):
    """The ``bm25_bmw`` mode name (served by MaxScore) on the synthetic
    corpus's salted head-term runs: rank-identical to exhaustive bm25,
    and its trace never decodes more runs than the query's terms have."""
    vocab_terms = sorted(synth_index.terms("text"))
    head = vocab_terms[:3]
    tail = vocab_terms[-3:]
    cases = [
        " ".join(head),
        " ".join(head + tail),
        " ".join(tail),
        head[0],
        f"{head[0]} {tail[0]} xylophone",
    ]
    for text in cases:
        for k in (3, 10, 50):
            a = synth_index.topk(text, k, "bm25").reset_index(drop=True)
            b = synth_index.topk(text, k, "bm25_bmw").reset_index(drop=True)
            pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=f"{text!r} k={k}")
            tr = synth_index.last_trace
            assert tr.runs_decoded <= tr.runs_total, (text, k, tr)


def test_pruned_skips_runs_on_clustered_terms(ray_session, tmp_path):
    """MaxScore's run skipping on its win case: a term clustered in a
    narrow docid range (the realistic shape — docids are time-ordered
    and terms trend).  The rare term's high-idf scores set theta, the
    common term's bound falls under it, and only the common term's runs
    whose docid range holds an accumulated doc are decoded.  (The
    uniform sf/synth corpora can't skip — every term covers every docid
    range; that's a corpus property, not an algorithm gap.)"""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from raystorm.corpus import TRANSCRIPTS_SCHEMA

    n = 1200
    fill = np.array(
        ["".join(chr(97 + (i // 26**j) % 26) for j in range(3)) for i in range(50)],
        object,
    )
    texts = [
        f"common {fill[i % 50]} {fill[(i * 7 + 3) % 50]} {fill[(i * 13 + 1) % 50]}"
        for i in range(n)
    ]
    for i in range(600, 620):  # raretrend lives in one narrow conv range
        texts[i] += " raretrend"
    tbl = pa.Table.from_arrays(
        [
            pa.array([f"cl-{i:05d}" for i in range(n)], pa.string()),
            pa.array(np.zeros(n, np.int32)),
            pa.array(["user"] * n, pa.string()),
            pa.array(texts, pa.string()),
            pa.array([""] * n, pa.string()),
            pa.array(np.arange(n, dtype=np.int64) * 1_000_000, pa.timestamp("us")),
        ],
        schema=TRANSCRIPTS_SCHEMA,
    )
    src = tmp_path / "clustered.parquet"
    pq.write_table(tbl, str(src))
    d = tmp_path / "idx"
    cfg = build.BuildConfig(num_partitions=4, split_target=100)
    build.build_index(rd.read_parquet(str(src)), str(d), input_fingerprint="cl", cfg=cfg)
    idx = query.SegmentIndex(str(d))
    for k in (1, 5, 10):
        a = idx.topk("raretrend common", k, "bm25").reset_index(drop=True)
        b = idx.topk("raretrend common", k, "bm25_pruned").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=f"k={k}")
        tr = idx.last_trace
        assert tr.runs_decoded < tr.runs_total, (k, tr)


def test_pruned_rank_identical_synth_head_terms(synth_index):
    # queries mixing head (split) and tail terms of the synthetic vocab
    vocab_terms = sorted(synth_index.terms("text"))
    head = vocab_terms[:3]  # aaaa-ish: Zipf head of the base-26 vocab
    tail = vocab_terms[-3:]
    cases = [
        " ".join(head),
        " ".join(head + tail),
        " ".join(tail),
        head[0],
        f"{head[0]} {tail[0]} xylophone",
    ]
    for text in cases:
        for k in (3, 10, 50):
            a = synth_index.topk(text, k, "bm25").reset_index(drop=True)
            b = synth_index.topk(text, k, "bm25_pruned").reset_index(drop=True)
            pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=f"{text!r} k={k}")
            tr = synth_index.last_trace
            assert tr.runs_decoded <= tr.runs_total, (text, k, tr)


def test_trace_counts_what_ran(sf_index):
    """The trace of an exhaustive bm25 query decodes every run of every
    matched term — Σ df postings — and MaxScore decodes no more runs
    than the query's terms have, at identical ranks."""
    import pyarrow as pa

    from raystorm import normalize

    fd = sf_index._dict["text"]
    for _qid, text, k in query.REFERENCE_QUERIES:
        toks, _ = normalize.tokenize_column(pa.array([text]), "body")
        terms = sorted(set(toks.tolist()))
        ranks = [r for r in map(fd.rank_of, terms) if r >= 0]
        docids = [sf_index.postings(t)[0] for t in terms if fd.rank_of(t) >= 0]
        n_cand = len(np.unique(np.concatenate(docids))) if docids else 0
        a = sf_index.topk(text, k, "bm25").reset_index(drop=True)
        tr = sf_index.last_trace
        assert (tr.terms, tr.terms_matched) == (len(terms), len(ranks)), (text, tr)
        assert tr.postings_decoded == sum(int(fd.df[r]) for r in ranks), (text, tr)
        assert tr.runs_decoded == tr.runs_total, (text, tr)
        assert tr.candidates == n_cand, (text, tr)
        b = sf_index.topk(text, k, "bm25_pruned").reset_index(drop=True)
        tr = sf_index.last_trace
        assert tr.terms_matched == len(ranks), (text, tr)
        assert tr.runs_decoded <= tr.runs_total, (text, tr)
        pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=text)


@pytest.mark.parametrize("mode", ["bm25", "bm25_pruned", "bm25_bmw"])
def test_topk_rejects_bad_k_in_every_mode(sf_index, mode):
    for bad in (0, -1, -10, 2.5, 10.0, "3", None, True):
        with pytest.raises(ValueError, match="k must be a positive integer"):
            sf_index.topk("hash join", bad, mode)
    assert len(sf_index.topk("hash join", np.int64(3), mode)) == 3


def _register_run_twice(index_dir: str, term: str) -> None:
    """Give ``term`` two runs over the same docids: its blob is listed a
    second time, under another salt, in the part's ``terms.parquet``."""
    import glob

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    for path in sorted(glob.glob(f"{index_dir}/parts/part-*/terms.parquet")):
        tbl = pq.read_table(path)
        mine = pc.and_(pc.equal(tbl["field"], "text"), pc.equal(tbl["term"], term))
        row = tbl.filter(mine)
        if len(row):
            salt = tbl.schema.get_field_index("salt")
            again = row.set_column(
                salt, "salt", pa.array(row["salt"].to_numpy() + 1000, tbl.schema.field("salt").type)
            )
            pq.write_table(pa.concat_tables([tbl, again]), path)
            return
    raise AssertionError(f"{term!r} not in any part")


@pytest.fixture(scope="module")
def dup_run_index(sf_index, tmp_path_factory):
    import shutil

    d = tmp_path_factory.mktemp("dup_run_idx") / "idx"
    shutil.copytree(sf_index.index_dir, d)
    _register_run_twice(str(d), "merge")
    return query.SegmentIndex(str(d))


def test_overlapping_runs_same_topk_in_every_mode(sf_index, dup_run_index):
    """A term whose two runs cover the same docids counts each posting
    twice in every mode: exhaustive bm25 and MaxScore (whose update
    phase then adds every occurrence with ``np.add.at`` and whose term
    bound is the sum of the run maxima), under both of its mode names."""
    idx = dup_run_index
    assert idx.n_runs("merge") == 2
    docids = idx.postings("merge")[0]
    assert not (np.diff(docids) > 0).all()  # the overlapping fallbacks run
    # "dup" (df 25) has the highest bound, so it sets theta and the
    # doubled term is then scored in MaxScore's update phase
    texts = ["merge", "dup merge", "dup merge hash"]
    texts += [f"{q} merge" for q in QUERIES if "merge" not in q.split()]
    for text in texts:
        for k in (1, 5, 10, 20, 25, 100):
            a = idx.topk(text, k, "bm25").reset_index(drop=True)
            for mode in ("bm25_pruned", "bm25_bmw"):
                b = idx.topk(text, k, mode).reset_index(drop=True)
                pd.testing.assert_frame_equal(a, b, check_dtype=False, obj=f"{mode} {text!r} k={k}")
    # each posting of the doubled term counts twice
    once = sf_index.topk("merge", 20, "bm25")
    twice = idx.topk("merge", 20, "bm25")
    assert twice["conv_id"].tolist() == once["conv_id"].tolist()
    np.testing.assert_allclose(twice["score"], 2 * once["score"], atol=2e-6)


#: modes that need neither a docstore nor doc values
NO_SIDECAR_MODES = (
    "bm25", "bm25_pruned", "bm25_bmw", "bm25_and", "bm25_wild", "bm25_fuzzy",
    "bm25_syn", "bm25_bool", "bm25_boost", "bm25f", "dis_max", "cross_fields",
    "most_fields", "faithful", "lm_dirichlet", "tfidf_classic", "collapsed",
)


def _head_text(idx, n=3):
    fd = idx._dict["text"]
    return " ".join(fd.terms[int(r)].as_py() for r in np.argsort(-fd.df, kind="stable")[:n])


def test_results_not_aliased_across_calls(synth_index, monkeypatch):
    """A frame returned by one call is unchanged by later calls in every
    mode: nothing a query returns is a view on the index's scratch."""
    dense_runs = []
    sum_runs = query._QueryScratch.sum_runs
    monkeypatch.setattr(query._QueryScratch, "sum_runs", lambda self, runs: (dense_runs.append(1), sum_runs(self, runs))[1])
    head = _head_text(synth_index)
    texts = [head, head.split()[0], "the customer merge hash"]
    kept = []
    for mode in NO_SIDECAR_MODES:
        for text in texts:
            df = synth_index.topk(text, 10, mode)
            kept.append((mode, text, df, df.copy(deep=True)))
    for mode in NO_SIDECAR_MODES:  # a second round through the scratch
        for text in texts[::-1]:
            synth_index.topk(text, 50, mode)
    assert dense_runs, "the head query did not take the dense accumulator"
    for mode, text, df, snapshot in kept:
        pd.testing.assert_frame_equal(df, snapshot, obj=f"{mode} {text!r}")
    scratch = synth_index._scratch
    assert not scratch.seen.any() and not scratch.score.any()


def test_interleaved_modes_match_fresh_index(synth_index, monkeypatch):
    """bm25, MaxScore and the bm25_bmw name interleaved on one index
    (one scratch) answer exactly what a fresh index answers per mode;
    MaxScore's dense update phase runs on the head pairs."""
    dense_updates = []
    update = query._QueryScratch.update
    monkeypatch.setattr(
        query._QueryScratch, "update", lambda self, *a: (dense_updates.append(1), update(self, *a))[1]
    )
    head = _head_text(synth_index, 4).split()
    texts = [" ".join(head[:2]), " ".join(head), head[0], f"{head[1]} {head[3]} xylophone"]
    fresh = {}
    for mode in ("bm25", "bm25_pruned", "bm25_bmw"):
        ix = query.SegmentIndex(synth_index.index_dir)
        fresh[mode] = [ix.topk(t, k, mode) for t in texts for k in (5, 20)]
    got = {m: [] for m in fresh}
    for t in texts:
        for k in (5, 20):
            for mode in ("bm25_bmw", "bm25", "bm25_pruned"):
                got[mode].append(synth_index.topk(t, k, mode))
    for mode, frames in fresh.items():
        for want, have in zip(frames, got[mode]):
            pd.testing.assert_frame_equal(have, want, obj=mode)
    assert dense_updates, "MaxScore's dense update phase did not run"


def test_every_surface_starts_a_fresh_trace(sf_index):
    """``topk_after`` / ``topk_filtered`` count only their own work: after
    a ``topk`` on the same query, the trace equals a fresh index's."""
    text = "hash join"
    first = sf_index.topk(text, 3, "bm25")
    after = (first["conv_id"].iloc[-1], int(first["turn_idx"].iloc[-1]))
    fresh = query.SegmentIndex(sf_index.index_dir)
    for call in (
        lambda ix: ix.topk_after(text, 3, after),
        lambda ix: ix.topk_filtered(text, 3, ()),
    ):
        sf_index.topk(text, 3, "bm25")
        call(sf_index)
        call(fresh)
        assert sf_index.last_trace.runs_decoded == fresh.last_trace.runs_decoded > 0
        assert sf_index.last_trace == fresh.last_trace
