"""Federated search: two half-corpus indexes == one full-corpus index.

The merge is exact (integer N/total_tokens/df sums), so the federated
ranking must be rank- AND score-identical to the single index over the
union corpus — the strongest possible pin for cross-index semantics.
"""

import numpy as np
import pandas as pd
import pytest

from raystorm import build, corpus, federate, query

SF = "/root/testdata/sf0.001"
CUTOFF = 250


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    cfg = build.BuildConfig(num_partitions=4, split_target=500)
    dirs = []
    for tag, lo, hi in (
        ("full", None, None),
        ("lo", None, CUTOFF),
        ("hi", CUTOFF, None),
    ):
        d = str(tmp_path_factory.mktemp(f"fed_{tag}"))
        ds = corpus.transcripts_from_documents(SF, min_doc=lo, max_doc=hi)
        m = build.build_index(ds, d, input_fingerprint=f"{SF}|{tag}", cfg=cfg)
        assert m["status"] == "complete"
        dirs.append(d)
    return dirs


def test_merged_stats_exact(indexes):
    full, lo, hi = indexes
    fed = federate.FederatedIndex([lo, hi])
    full_gs = query.SegmentIndex(full).global_stats["text"]
    m = fed.global_stats["text"]
    assert m["N"] == full_gs["N"]
    assert m["total_tokens"] == full_gs["total_tokens"]
    assert m["avgdl"] == full_gs["avgdl"]  # integer/integer — bit-identical


def test_federated_identical_to_single_index(indexes):
    full, lo, hi = indexes
    idx = query.SegmentIndex(full)
    fed = federate.FederatedIndex([lo, hi])
    for _qid, text, k in query.REFERENCE_QUERIES:
        single = idx.topk(text, k)
        merged = fed.topk(text, k)
        pd.testing.assert_frame_equal(single, merged)


def test_federated_actor_pool_matches_direct(ray_session, indexes):
    _full, lo, hi = indexes
    fed = federate.FederatedIndex([lo, hi])
    pooled = federate.batch_evaluate_federated([lo, hi], query.REFERENCE_QUERIES)
    rows = []
    for qid, text, k in query.REFERENCE_QUERIES:
        df = fed.topk(text, k)
        df.insert(0, "query_id", qid)
        rows.append(df)
    direct = pd.concat(rows, ignore_index=True)
    pd.testing.assert_frame_equal(
        pooled.reset_index(drop=True), direct.reset_index(drop=True), check_dtype=False
    )


def test_single_member_degenerates_to_plain_topk(indexes):
    full, _lo, _hi = indexes
    idx = query.SegmentIndex(full)
    fed = federate.FederatedIndex([full])
    for _qid, text, k in query.REFERENCE_QUERIES[:3]:
        pd.testing.assert_frame_equal(idx.topk(text, k), fed.topk(text, k))


@pytest.mark.parametrize("cls", [federate.FederatedIndex, federate.SelectiveFederatedIndex])
@pytest.mark.parametrize("k", [0, -1, 1.5, True])
def test_bad_k_is_invalid_request(indexes, cls, k):
    """A federated search refuses a bad ``k`` with the same typed error
    as every SegmentIndex mode, before any member is read."""
    _full, lo, hi = indexes
    with pytest.raises(query.InvalidRequest, match="k must be a positive integer"):
        cls([lo, hi]).topk(query.REFERENCE_QUERIES[0][1], k)


def test_mismatched_scoring_config_rejected(indexes, tmp_path, ray_session):
    _full, lo, _hi = indexes
    d = str(tmp_path / "oddb")
    ds = corpus.transcripts_from_documents(SF, min_doc=CUTOFF)
    build.build_index(
        ds,
        d,
        input_fingerprint=f"{SF}|oddb",
        cfg=build.BuildConfig(num_partitions=4, split_target=500, b=0.5),
    )
    with pytest.raises(ValueError, match="disagree"):
        federate.FederatedIndex([lo, d])


def test_selective_identical_to_federated(indexes):
    """Resource selection must be rank- AND score-identical to the
    plain federated evaluation on every reference query."""
    _full, lo, hi = indexes
    fed = federate.FederatedIndex([lo, hi])
    sel = federate.SelectiveFederatedIndex([lo, hi])
    for _qid, text, k in query.REFERENCE_QUERIES:
        pd.testing.assert_frame_equal(fed.topk(text, k), sel.topk(text, k), obj=text)
        tr = sel.last_trace
        assert 0 <= tr.shards_evaluated <= tr.shards_total == 2


def test_selective_skips_shard_without_rare_term(ray_session, tmp_path):
    """The skip case: a term living only in shard A makes shard B's
    dictionary bound fall under theta after A evaluates — B is never
    read.  (The uniform half-corpus shards can't skip: every term has
    comparable mass in both halves.)"""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from raystorm.corpus import TRANSCRIPTS_SCHEMA

    def mk(tag, texts):
        tbl = pa.Table.from_arrays(
            [
                pa.array([f"{tag}-{i:05d}" for i in range(len(texts))], pa.string()),
                pa.array(np.zeros(len(texts), np.int32)),
                pa.array(["user"] * len(texts), pa.string()),
                pa.array(texts, pa.string()),
                pa.array([""] * len(texts), pa.string()),
                pa.array(
                    np.arange(len(texts), dtype=np.int64) * 1_000_000,
                    pa.timestamp("us"),
                ),
            ],
            schema=TRANSCRIPTS_SCHEMA,
        )
        src = tmp_path / f"{tag}.parquet"
        pq.write_table(tbl, str(src))
        d = tmp_path / f"idx_{tag}"
        cfg = build.BuildConfig(num_partitions=2, split_target=500)
        build.build_index(rd.read_parquet(str(src)), str(d), input_fingerprint=tag, cfg=cfg)
        return str(d)

    fill = ["alpha beta gamma delta", "beta gamma delta epsilon", "gamma delta epsilon zeta"]
    a = mk("aa", [f"common raretrend {fill[i % 3]}" for i in range(40)])
    b = mk("bb", [f"common {fill[i % 3]}" for i in range(400)])
    sel = federate.SelectiveFederatedIndex([a, b])
    fed = federate.FederatedIndex([a, b])
    got = sel.topk("raretrend common", 5)
    pd.testing.assert_frame_equal(fed.topk("raretrend common", 5), got)
    tr = sel.last_trace
    assert (tr.shards_total, tr.shards_evaluated) == (2, 1), tr
    # every hit comes from the rare shard
    assert all(c.startswith("aa-") for c in got.conv_id)
