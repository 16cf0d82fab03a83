"""Bit-identity of the query hot path's accumulate and top-k steps
against the straightforward implementations they replaced.  The oracle
gates compare hashes of rounded scores, so a faster kernel must give
the same float64 bits, not merely close ones."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raystorm import query
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


# the two SegmentIndex attributes _format_topk reads
_FMT = types.SimpleNamespace(codec=_Codec(), last_trace=query.QueryTrace())


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
