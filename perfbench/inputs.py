"""Benchmark inputs, generated here and nowhere else.

The corpus is fixed: it does not depend on the run's seed, so every run
of every workload indexes and queries the same 281,834 turns.  The seed
picks only the query sets.

Nothing here imports ``raystorm``: a change to the engine cannot change
what the benchmark feeds it.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

#: the corpus recipe (ROADMAP baseline): 8,000 conversations of 8..63
#: turns, 5..39 words per turn drawn Zipf(1.1) from a 5,000-word
#: base-26 vocabulary
CORPUS_RECIPE = {
    "n_convs": 8000,
    "turns": [8, 63],
    "words": [5, 39],
    "vocab_size": 5000,
    "zipf_s": 1.1,
    "seed": 42,
    "files": 8,
    "version": 1,
}
#: turns the recipe yields (checked when the corpus is written)
CORPUS_TURNS = 281_834

#: index config: ``BuildConfig(num_partitions=8, split_target=20_000)``
BUILD_CONFIG = {"num_partitions": 8, "split_target": 20_000}

K = 10
MODES = ("bm25", "bm25_pruned", "bm25_bmw")

#: tail queries: 2..4 terms drawn Zipf(1.1) from vocabulary ranks 10..2000
TAIL_RANKS = (10, 2000)
TAIL_TERMS = (2, 4)
TAIL_ZIPF = 1.1
TAIL_QUERIES = 384
#: the seed moves each term of the fixed rank skeleton to a rank within
#: this factor of it
TAIL_JITTER = 0.1
#: head queries: every pair of the 10 most frequent terms
HEAD_TOP = 10

TOOLS = ("shell", "browser", "calculator", "python", "editor", "lookup", "fetch")
ROLES = ("user", "assistant", "tool", "assistant")
TS_EPOCH_US = 1_735_689_600_000_000


def word(i: int) -> str:
    """Vocabulary word of rank ``i``: four base-26 letters."""
    return "".join(chr(97 + (i // 26**k) % 26) for k in (3, 2, 1, 0))


def _zipf_probs(n: int, s: float, first_rank: int = 1) -> np.ndarray:
    p = np.arange(first_rank, first_rank + n, dtype=np.float64) ** (-s)
    return p / p.sum()


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def corpus_digest() -> str:
    return digest(CORPUS_RECIPE)


def write_corpus(out_dir: str) -> int:
    """Write the recipe's corpus as Parquet files; return the turn count.

    Columns follow the engine's transcript schema (conv_id, turn_idx,
    role, text, tool, ts).  Vectorized: one draw for all words, one
    Arrow list join for all texts.
    """
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    r = CORPUS_RECIPE
    rng = np.random.default_rng(r["seed"])
    n_turns = rng.integers(r["turns"][0], r["turns"][1] + 1, size=r["n_convs"])
    total = int(n_turns.sum())
    conv = np.repeat(np.arange(r["n_convs"], dtype=np.int64), n_turns)
    starts = np.concatenate(([0], np.cumsum(n_turns)[:-1]))
    tix = (np.arange(total, dtype=np.int64) - starts[conv]).astype(np.int32)
    n_words = rng.integers(r["words"][0], r["words"][1] + 1, size=total)
    codes = rng.choice(
        r["vocab_size"],
        size=int(n_words.sum()),
        p=_zipf_probs(r["vocab_size"], r["zipf_s"]),
    )
    vocab = pa.array([word(i) for i in range(r["vocab_size"])], pa.string())
    offsets = np.concatenate(([0], np.cumsum(n_words))).astype(np.int32)
    lists = pa.ListArray.from_arrays(pa.array(offsets), vocab.take(pa.array(codes)))
    texts = pc.binary_join(lists, " ")
    conv_ids = pa.array([f"bconv-{c:06d}" for c in range(r["n_convs"])]).take(
        pa.array(conv)
    )
    roles = np.array(ROLES, object)[tix % len(ROLES)]
    tools = np.where(
        roles == "tool", np.array(TOOLS, object)[(conv + tix) % len(TOOLS)], ""
    )
    ts = TS_EPOCH_US + (conv * 86_400 + tix.astype(np.int64) * 60) * 1_000_000
    table = pa.table(
        {
            "conv_id": conv_ids,
            "turn_idx": pa.array(tix, pa.int32()),
            "role": pa.array(roles, pa.string()),
            "text": texts,
            "tool": pa.array(tools, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    os.makedirs(out_dir, exist_ok=True)
    per_file = -(-total // r["files"])
    for f in range(r["files"]):
        pq.write_table(
            table.slice(f * per_file, per_file),
            os.path.join(out_dir, f"part-{f:04d}.parquet"),
        )
    return total


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _zipf_queries(rng, n: int, lo: int, hi: int, s: float) -> list[str]:
    ranks = np.arange(lo, hi + 1)
    counts = rng.integers(TAIL_TERMS[0], TAIL_TERMS[1] + 1, size=n)
    picks = rng.choice(ranks, size=int(counts.sum()), p=_zipf_probs(len(ranks), s, lo))
    offs = np.concatenate(([0], np.cumsum(counts)))
    return [" ".join(word(int(w)) for w in picks[offs[i] : offs[i + 1]]) for i in range(n)]


def tail_queries(seed: int, n: int = TAIL_QUERIES) -> list[str]:
    """The seed's tail query set: 2..4 terms, Zipf over ranks 10..2000.

    A fixed skeleton (term counts and ranks, drawn once) gives every
    seed the same rank profile; the seed moves each term to a random
    rank within ``TAIL_JITTER`` of the skeleton's.  Different seeds run
    different words at the same cost profile, so a seed does not move
    the latency percentiles by itself.
    """
    rng = _rng(0, 1)
    counts = rng.integers(TAIL_TERMS[0], TAIL_TERMS[1] + 1, size=n)
    lo, hi = TAIL_RANKS
    skeleton = rng.choice(
        np.arange(lo, hi + 1), size=int(counts.sum()), p=_zipf_probs(hi - lo + 1, TAIL_ZIPF, lo)
    )
    low = np.maximum(lo, np.floor(skeleton * (1 - TAIL_JITTER))).astype(np.int64)
    high = np.minimum(hi, np.ceil(skeleton * (1 + TAIL_JITTER))).astype(np.int64)
    ranks = _rng(seed, 1).integers(low, high + 1)
    offs = np.concatenate(([0], np.cumsum(counts)))
    return [" ".join(word(int(w)) for w in ranks[offs[i] : offs[i + 1]]) for i in range(n)]


def head_queries(seed: int) -> list[str]:
    """The 45 pairs of the 10 most frequent terms, each in an order the
    seed picks, shuffled by the seed; every seed runs the same pairs."""
    rng = _rng(seed, 2)
    pairs = [(a, b) for a in range(HEAD_TOP) for b in range(a + 1, HEAD_TOP)]
    flip = rng.integers(0, 2, size=len(pairs))
    pairs = [(b, a) if f else (a, b) for (a, b), f in zip(pairs, flip)]
    return [f"{word(pairs[i][0])} {word(pairs[i][1])}" for i in rng.permutation(len(pairs))]


def mode_order(i: int) -> tuple[str, ...]:
    """Mode order for the i-th query: rotates so each mode runs first,
    second and third equally often."""
    j = i % len(MODES)
    return MODES[j:] + MODES[:j]


def oracle_queries() -> list[str]:
    """The fixed set checked against the DuckDB oracle on every run:
    tail queries, head pairs and a single head term."""
    return _zipf_queries(_rng(7, 5), 12, *TAIL_RANKS, TAIL_ZIPF) + [
        f"{word(0)} {word(1)}",
        f"{word(2)} {word(9)}",
        f"{word(5)} {word(7)}",
        word(0),
    ]


def query_digest(seed: int) -> str:
    return digest(
        {
            "tail": tail_queries(seed),
            "head": head_queries(seed),
        }
    )
