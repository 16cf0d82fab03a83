"""Posting-segment codec tests: varint + block layout round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raystorm import segments


def test_varint_roundtrip_small():
    v = np.array([0, 1, 127, 128, 129, 16383, 16384, 2**40, 2**62], np.int64)
    enc = segments.varint_encode(v)
    dec = segments.varint_decode(enc)
    assert dec.astype(np.int64).tolist() == v.tolist()


def test_varint_empty():
    assert len(segments.varint_encode(np.empty(0, np.int64))) == 0
    assert len(segments.varint_decode(b"")) == 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**62), max_size=300))
def test_varint_roundtrip_property(vals):
    v = np.array(vals, np.int64)
    dec = segments.varint_decode(segments.varint_encode(v))
    assert dec.astype(np.int64).tolist() == vals


def _mk_run(n, seed=0, span=10**9):
    rng = np.random.default_rng(seed)
    docids = np.sort(rng.choice(span, size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 20, n).astype(np.int64)
    dls = rng.integers(1, 500, n).astype(np.int64)
    return docids, tfs, dls


@pytest.mark.parametrize("n", [1, 127, 128, 129, 1000, 10_000])
def test_run_roundtrip(n):
    docids, tfs, dls = _mk_run(n, seed=n)
    blob = segments.encode_run(docids, tfs, dls, idf=2.0, avgdl=100.0, k1=1.2, b=0.75)
    d2, t2, l2 = segments.decode_run(blob)
    assert np.array_equal(d2, docids)
    assert np.array_equal(t2, tfs)
    assert np.array_equal(l2, dls)


def test_block_directory_bounds():
    docids, tfs, dls = _mk_run(1000, seed=3)
    idf, avgdl, k1, b = 1.7, 80.0, 1.2, 0.75
    blob = segments.encode_run(docids, tfs, dls, idf, avgdl, k1, b)
    counts, last_docids, bounds = segments.decode_block_directory(blob)
    assert counts.sum() == 1000
    assert last_docids[-1] == docids[-1]
    # every true block max must be <= its stored quantized bound
    scores = segments.bm25_term_scores(tfs, dls, idf, avgdl, k1, b)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    true_max = np.maximum.reduceat(scores, starts)
    assert (true_max <= bounds + 1e-9).all()
    # and the bound is tight to within the quantization step
    assert (bounds - true_max <= 1.0 / segments.QMAX_SCALE + 1e-9).all()


def test_compression_is_effective():
    # dense docids (deltas ~1) should compress far below 8 bytes/posting
    docids = np.arange(0, 100_000, 2, dtype=np.int64)
    tfs = np.ones(len(docids), np.int64)
    dls = np.full(len(docids), 12, np.int64)
    blob = segments.encode_run(docids, tfs, dls, 1.0, 12.0, 1.2, 0.75)
    bytes_per_posting = len(blob) / len(docids)
    assert bytes_per_posting < 4.0


def _varint_decode_ref(buf) -> np.ndarray:
    """The decoder before the terminator-gather rewrite: per-byte
    position via ``np.repeat``, uint64 shifts and ``np.add.reduceat``."""
    b = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else buf
    if len(b) == 0:
        return np.empty(0, np.uint64)
    is_end = (b & 0x80) == 0
    ends = np.nonzero(is_end)[0]
    starts = np.empty(len(ends), np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lens = ends - starts + 1
    pos = np.arange(len(b), dtype=np.int64) - np.repeat(starts, lens)
    weighted = (b & np.uint8(0x7F)).astype(np.uint64) << (np.uint64(7) * pos.astype(np.uint64))
    return np.add.reduceat(weighted, starts)


# a value of exactly L LEB128 bytes lies in [2**(7(L-1)), 2**(7L)); 9 bytes
# stop at 2**63 (the codec's int64 range)
_L_BYTE_VALUE = st.integers(1, 9).flatmap(
    lambda L: st.integers(0 if L == 1 else 2 ** (7 * (L - 1)), min(2 ** (7 * L), 2**63) - 1)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_L_BYTE_VALUE, max_size=400))
def test_varint_decode_matches_reference_on_1_to_9_byte_values(vals):
    enc = segments.varint_encode(np.array(vals, np.uint64))
    dec = segments.varint_decode(enc)
    assert dec.dtype == np.uint64
    assert np.array_equal(dec, _varint_decode_ref(enc))
    assert dec.tolist() == vals


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([1, 127, 128, 129, 256, 10_000]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([10**3, 10**6, 10**12]),
)
def test_decode_run_matches_reference_on_encoded_runs(n, seed, span):
    rng = np.random.default_rng(seed)
    docids = np.sort(rng.choice(max(span, n), size=n, replace=False)).astype(np.int64)
    tfs = rng.integers(1, 300, n).astype(np.int64)
    dls = rng.integers(1, 70_000, n).astype(np.int64)
    blob = segments.encode_run(docids, tfs, dls, idf=1.3, avgdl=90.0, k1=1.2, b=0.75)
    assert np.array_equal(segments.varint_decode(blob), _varint_decode_ref(blob))
    d2, t2, l2 = segments.decode_run(blob)
    for got, want in ((d2, docids), (t2, tfs), (l2, dls)):
        assert got.dtype == np.int64 and np.array_equal(got, want)


def _blob_values(n: int) -> np.ndarray:
    docids, tfs, dls = _mk_run(n, seed=n)
    blob = segments.encode_run(docids, tfs, dls, idf=2.0, avgdl=100.0, k1=1.2, b=0.75)
    return segments.varint_decode(blob).astype(np.int64)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda v: v[:1],  # header cut short
        lambda v: v[:-1],  # body one value short
        lambda v: np.concatenate([v, [5]]),  # one value too many
        lambda v: np.concatenate([[v[0] + 1], v[1:]]),  # n disagrees with the body
        lambda v: np.concatenate([v[:1], [v[1] + 1], v[2:]]),  # n disagrees with nblocks
        lambda v: np.concatenate([v[:2], [v[2] - 1], v[3:]]),  # a full block's count
    ],
    ids=["header", "short-body", "long-body", "n", "nblocks", "block-count"],
)
def test_decode_run_rejects_inconsistent_blobs(mutate):
    bad = segments.varint_encode(mutate(_blob_values(300))).tobytes()
    with pytest.raises(segments.CorruptSegmentError):
        segments.decode_run(bad)
    assert issubclass(segments.CorruptSegmentError, ValueError)


def test_decode_run_rejects_a_truncated_blob():
    docids, tfs, dls = _mk_run(1000, seed=5)
    blob = segments.encode_run(docids, tfs, dls, idf=2.0, avgdl=100.0, k1=1.2, b=0.75)
    for cut in (0, 1, len(blob) // 2, len(blob) - 1):
        with pytest.raises(segments.CorruptSegmentError):
            segments.decode_run(blob[:cut])
