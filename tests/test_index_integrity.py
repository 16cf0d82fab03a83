"""Corpus-integrity invariants of the built index (SURVEY.md §5 test
plan (c)): the index's docid space must reconstruct the corpus exactly
under stable (conv_id, turn_idx) ordering."""

import numpy as np
import pyarrow as pa
import pytest

from raystorm import build, corpus, normalize, query

SF = "/root/testdata/sf0.01"


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    d = tmp_path_factory.mktemp("integrity_idx")
    ds = corpus.transcripts_from_documents(SF)
    cfg = build.BuildConfig(num_partitions=8, split_target=2000)
    build.build_index(ds, str(d), input_fingerprint=SF, cfg=cfg)
    return query.SegmentIndex(str(d)), ds


def test_docid_space_reconstructs_corpus(built):
    idx, ds = built
    pdf = ds.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    # codec covers exactly the corpus turns, in stable order
    enc = idx.codec.encode(pdf["conv_id"].to_numpy(), pdf["turn_idx"].to_numpy())
    assert (enc == np.arange(len(pdf))).all(), "docids not dense-ordered by (conv, turn)"
    conv, turn = idx.codec.decode(enc)
    assert (conv == pdf["conv_id"].to_numpy()).all()
    assert (turn == pdf["turn_idx"].to_numpy()).all()


def test_postings_cover_every_nonempty_doc(built):
    idx, ds = built
    pdf = ds.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    toks, rows = normalize.tokenize_column(pa.array(pdf["text"].tolist()), "body")
    expect_dl = np.bincount(rows, minlength=len(pdf))
    seen_dl = np.zeros(len(pdf), np.int64)
    seen_tf = np.zeros(len(pdf), np.int64)
    for t in idx.terms("text"):
        docids, tfs, dls = idx.postings(t, "text")
        # dl is replicated per posting — must agree everywhere
        mism = seen_dl[docids] != 0
        assert (seen_dl[docids][mism] == dls[mism]).all(), f"dl inconsistent for {t}"
        seen_dl[docids] = dls
        seen_tf[docids] += tfs
    # every doc's summed tf == its kept-token count == dl
    assert (seen_tf == expect_dl).all(), "postings do not reconstruct token mass"
    nonzero = expect_dl > 0
    assert (seen_dl[nonzero] == expect_dl[nonzero]).all()


def test_global_stats_match_reconstruction(built):
    idx, ds = built
    gs = idx.global_stats["text"]
    pdf = ds.to_pandas()
    toks, rows = normalize.tokenize_column(pa.array(pdf["text"].tolist()), "body")
    assert gs["N"] == len(pdf)
    assert gs["total_tokens"] == len(toks)
    assert abs(gs["avgdl"] - len(toks) / len(pdf)) < 1e-9

def _copy_index(idx, dst):
    import shutil

    shutil.copytree(idx.index_dir, dst)
    return str(dst)


def test_truncated_part_fails_at_open_and_names_it(built, tmp_path):
    import os

    from raystorm.segments import CorruptSegmentError

    d = _copy_index(built[0], tmp_path / "idx")
    path = os.path.join(d, "parts", "part-00003", "postings.bin")
    size = os.path.getsize(path)
    assert size > 0
    with open(path, "r+b") as fh:
        fh.truncate(size // 2)
    with pytest.raises(CorruptSegmentError, match="part-00003"):
        query.SegmentIndex(d)


def test_scribbled_run_fails_at_query_time_and_names_the_part(built, tmp_path):
    import os

    import pyarrow.parquet as pq

    from raystorm.segments import CorruptSegmentError

    idx = built[0]
    d = _copy_index(idx, tmp_path / "idx")
    part_dir = os.path.join(d, "parts", "part-00002")
    runs = pq.read_table(os.path.join(part_dir, "terms.parquet")).to_pandas()
    run = runs[runs["field"] == "text"].iloc[0]
    with open(os.path.join(part_dir, "postings.bin"), "r+b") as fh:
        fh.seek(int(run["offset"]))
        fh.write(b"\x80" * int(run["nbytes"]))  # continuation bytes only
    bad = query.SegmentIndex(d)  # sizes still agree: opens
    for mode in ("bm25", "bm25_pruned", "bm25_bmw"):
        with pytest.raises(CorruptSegmentError, match="part-00002"):
            bad.topk(run["term"], 5, mode)
