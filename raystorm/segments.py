"""Block-structured, delta+varint-compressed posting segments.

Replaces the reference's comma-joined posting-list strings
(``Indexer.java:55-75``, ``kvs/Worker.java:155-160`` one-file-per-row
storage) with a real compressed index format:

Per term *run* (one docid-contiguous run of a term inside one term
partition — head terms are salted across partitions by docid range, see
``build.py``), a single blob that is one pure varint stream::

    varint(n_postings) varint(n_blocks)
    per block: varint(count) varint(last_docid_delta)
               varint(qmax)  varint(payload_nbytes)
    per block payload: count docid-deltas, count tfs, count dls

- docids strictly increasing; deltas chain across blocks.
- ``tf`` is the within-doc term frequency, ``dl`` the document's kept-
  token count (BM25 norm), stored inline so scoring never needs a
  side lookup of a global doc-length array (scales past driver memory).
- ``qmax = ceil(max BM25 term score in block * 256)`` — the block's
  score bound under the build-time parameters, quantized so the whole
  blob stays a single varint stream and decodes in one vectorized pass.
  No query path reads it: pruning reads each run's ``max_score`` from
  ``terms.parquet``.

Encode/decode are numpy-vectorized (no per-value Python loops).  A query
reader passes a :class:`RunBuffer`, so that decoding and scoring its
runs write into reused arrays instead of allocating per run.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 128
QMAX_SCALE = 256.0


class RunBuffer:
    """Reused output arrays for :func:`decode_run` and
    :func:`bm25_term_scores`: one array per role, grown on demand (to a
    power of two) to the largest run seen.  What a call with the buffer
    returns is a view into it, valid until the next call with the same
    buffer, so a buffer serves one caller at a time (not thread-safe)."""

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def array(self, role: str, n: int, dtype) -> np.ndarray:
        """The first ``n`` slots of the ``role`` array."""
        a = self._arrays.get(role)
        if a is None or len(a) < n:
            a = self._arrays[role] = np.empty(1 << max(n - 1, 0).bit_length(), dtype)
        return a[:n]


def varint_encode(values: np.ndarray) -> np.ndarray:
    """LEB128-encode an int64/uint64 array -> uint8 array (vectorized)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if len(v) == 0:
        return np.empty(0, np.uint8)
    nb = np.ones(len(v), np.int64)
    for k in range(1, 10):
        nb += (v >= np.uint64(1) << np.uint64(7 * k)).astype(np.int64)
    ends = np.cumsum(nb)
    starts = ends - nb
    total = int(ends[-1])
    idx = np.arange(total, dtype=np.int64)
    pos = idx - np.repeat(starts, nb)
    vals_rep = np.repeat(v, nb)
    out = ((vals_rep >> (np.uint64(7) * pos.astype(np.uint64))) & np.uint64(0x7F)).astype(
        np.uint8
    )
    cont = idx != np.repeat(ends - 1, nb)
    out[cont] |= 0x80
    return out


def varint_decode(buf: np.ndarray | bytes | memoryview, out: np.ndarray | None = None) -> np.ndarray:
    """Decode a full LEB128 stream -> uint64 array (vectorized).

    Every byte after the last multi-byte value is a one-byte value, and
    is copied as is; in a posting blob that is the whole body, as only
    the block directory holds values of 128 and up.  Before it, one
    ``b < 0x80`` mask and one boolean gather of the terminator bytes
    give every one-byte value, and only the few continuation bytes are
    then folded in: the k-th continuation byte at position p belongs to
    value ``p - k`` (the terminators before it).  Trailing continuation
    bytes without a terminator are ignored.  With ``out`` (a uint64
    array of at least ``len(buf)`` slots) the values are written into
    its front and a view of it is returned.
    """
    b = np.frombuffer(buf, dtype=np.uint8) if not isinstance(buf, np.ndarray) else np.asarray(buf)
    cont = np.flatnonzero(b >= 0x80)
    split = min(int(cont[-1]) + 2, len(b)) if len(cont) else 0
    is_end = b[:split] < 0x80
    n_head = split - len(cont)
    n = n_head + len(b) - split
    vals = np.empty(n, np.uint64) if out is None else out[:n]
    vals[:n_head] = b[:split][is_end]
    vals[n_head:] = b[split:]
    if not len(cont):
        return vals
    owner = cont - np.arange(len(cont))
    if not is_end[-1]:
        cont, owner = cont[owner < len(vals)], owner[owner < len(vals)]
        if not len(cont):
            return vals
    # each multi-byte value's continuation bytes are one contiguous group
    first = np.empty(len(owner), bool)
    first[0] = True
    np.not_equal(owner[1:], owner[:-1], out=first[1:])
    heads = np.flatnonzero(first)
    ncont = np.diff(np.append(heads, len(owner)))
    pos = np.arange(len(owner)) - np.repeat(heads, ncont)
    low = (b[cont] & np.uint8(0x7F)).astype(np.uint64) << (np.uint64(7) * pos.astype(np.uint64))
    owner = owner[heads]
    vals[owner] = (vals[owner] << (np.uint64(7) * ncont.astype(np.uint64))) | np.bitwise_or.reduceat(
        low, heads
    )
    return vals


def bm25_term_scores(
    tfs: np.ndarray,
    dls: np.ndarray,
    idf: float,
    avgdl: float,
    k1: float,
    b: float,
    buf: RunBuffer | None = None,
) -> np.ndarray:
    """Pinned BM25 per-posting score (float64; formula documented in
    query.py).  With ``buf`` the scores are a view into it."""
    # in place, in the order of idf * (tf * (k1 + 1)) / (tf + k1 *
    # (1 - b + b * dl / avgdl)); float * and + commute bit for bit
    if buf is None:
        tf = tfs.astype(np.float64)
        den = dls.astype(np.float64)
    else:
        tf = buf.array("tf", len(tfs), np.float64)
        den = buf.array("den", len(dls), np.float64)
        tf[:] = tfs
        den[:] = dls
    den *= b
    den /= avgdl
    den += 1.0 - b
    den *= k1
    den += tf
    tf *= k1 + 1.0
    tf *= idf
    tf /= den
    return tf


def encode_run(
    docids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    idf: float,
    avgdl: float,
    k1: float,
    b: float,
) -> bytes:
    """Encode one sorted posting run; returns the blob bytes."""
    n = len(docids)
    assert n > 0
    docids = np.ascontiguousarray(docids, np.int64)
    nblocks = -(-n // BLOCK_SIZE)
    scores = bm25_term_scores(tfs, dls, idf, avgdl, k1, b)

    # per-block directory values
    block_ends = np.minimum(np.arange(1, nblocks + 1) * BLOCK_SIZE, n)
    block_starts = np.arange(nblocks) * BLOCK_SIZE
    counts = block_ends - block_starts
    last_docids = docids[block_ends - 1]
    prev_last = np.empty(nblocks, np.int64)
    prev_last[0] = 0
    prev_last[1:] = last_docids[:-1]
    last_deltas = last_docids - prev_last
    qmax = np.maximum.reduceat(scores, block_starts)
    qmax = np.ceil(qmax * QMAX_SCALE).astype(np.int64)

    # payload streams: docid deltas chained across blocks
    deltas = np.empty(n, np.int64)
    deltas[0] = docids[0]
    deltas[1:] = np.diff(docids)
    # first entry of each block is delta from previous block's last docid,
    # which np.diff already gives for a single sorted array — no fixup needed.

    # body value stream in block-payload order: per block [deltas, tfs, dls]
    co = np.concatenate(([0], np.cumsum(counts)))  # cumulative postings
    out_idx = np.arange(n, dtype=np.int64)
    blk = np.searchsorted(co, out_idx, side="right") - 1
    within = out_idx - co[blk]
    base = 3 * co[blk]
    body_vals = np.empty(3 * n, np.int64)
    body_vals[base + within] = deltas
    body_vals[base + counts[blk] + within] = tfs
    body_vals[base + 2 * counts[blk] + within] = dls
    body_bytes = varint_encode(body_vals)
    # per-value byte lengths -> per-block payload byte sizes
    v = body_vals.astype(np.uint64)
    nb = np.ones(3 * n, np.int64)
    for k in range(1, 10):
        nb += (v >= np.uint64(1) << np.uint64(7 * k)).astype(np.int64)
    payload_nbytes = np.add.reduceat(nb, 3 * co[:-1])

    directory = np.empty(nblocks * 4, np.int64)
    directory[0::4] = counts
    directory[1::4] = last_deltas
    directory[2::4] = qmax
    directory[3::4] = payload_nbytes
    head = varint_encode(np.array([n, nblocks], np.int64))
    blob = np.concatenate([head, varint_encode(directory), body_bytes])
    return blob.tobytes()


class CorruptSegmentError(ValueError):
    """A posting blob whose header, block directory or body disagree
    (a truncated or overwritten ``postings.bin``)."""


def decode_run(blob: bytes | memoryview, buf: RunBuffer | None = None):
    """Decode a blob -> (docids, tfs, dls) int64 arrays.

    One vectorized varint pass over the whole blob, then semantic
    slicing.  ``encode_run`` fills every block but the last with
    ``BLOCK_SIZE`` postings, so the body is a ``(blocks, 3, BLOCK_SIZE)``
    array plus one short ``(3, rest)`` block; the header is checked
    against that shape first and a mismatch raises
    :class:`CorruptSegmentError`.  With ``buf`` the three arrays are
    views into it (see :class:`RunBuffer`).
    """
    out = None if buf is None else buf.array("vals", len(blob), np.uint64)
    vals = varint_decode(blob, out).view(np.int64)
    if len(vals) < 2:
        raise CorruptSegmentError(f"run header truncated ({len(vals)} values)")
    n, nblocks = int(vals[0]), int(vals[1])
    if n < 1 or nblocks != -(-n // BLOCK_SIZE):
        raise CorruptSegmentError(f"run header n={n} disagrees with {nblocks} blocks")
    body_at = 2 + 4 * nblocks
    if len(vals) != body_at + 3 * n:
        raise CorruptSegmentError(
            f"run of {n} postings holds {len(vals) - body_at} body values, not {3 * n}"
        )
    counts = vals[2:body_at:4]
    if (counts[:-1] != BLOCK_SIZE).any() or counts[-1] != n - (nblocks - 1) * BLOCK_SIZE:
        raise CorruptSegmentError(f"run block counts disagree with n={n}")
    if nblocks == 1:
        cols = vals[body_at:].reshape(3, n)
    else:
        nfull = n // BLOCK_SIZE
        m = nfull * BLOCK_SIZE
        full = vals[body_at : body_at + 3 * m].reshape(nfull, 3, BLOCK_SIZE)
        cols = (np.empty(3 * n, np.int64) if buf is None else buf.array("cols", 3 * n, np.int64)).reshape(3, n)
        cols[:, :m].reshape(3, nfull, BLOCK_SIZE)[:] = full.transpose(1, 0, 2)
        cols[:, m:] = vals[body_at + 3 * m :].reshape(3, n - m)
    # the deltas are this call's own array (or the buffer's): sum in place
    deltas, tfs, dls = cols
    return np.cumsum(deltas, out=deltas), tfs, dls


def decode_block_directory(blob: bytes | memoryview):
    """Return (counts, last_docids, max_score_bounds) without payload decode.

    Note: this still varint-decodes the whole stream (vectorized, cheap);
    a byte-offset skip path can use the per-block payload_nbytes later.
    """
    vals = varint_decode(blob).astype(np.int64)
    nblocks = int(vals[1])
    dir_vals = vals[2 : 2 + 4 * nblocks]
    counts = dir_vals[0::4]
    last_docids = np.cumsum(dir_vals[1::4])
    max_bounds = dir_vals[2::4].astype(np.float64) / QMAX_SCALE
    return counts, last_docids, max_bounds
