"""Property-style parity: the vectorized tokenizers and their DuckDB SQL
mirrors must agree on adversarial inputs (the driver's oracle gate
depends on this equivalence).  Deterministic example corpus + seeded
random strings (hypothesis-style without flaky runtimes)."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from raystorm import normalize

NASTY = [
    "",
    " ",
    "   ",
    "UPPER lower MiXeD",
    "abc123 42 9000 a1b2c3",
    "x" * 29,
    "x" * 30,
    "x" * 31,
    "punct!!!,,,;;;:::...---___===+++",
    "tab\tnewline\nmix",
    "http://a.b/c?d=1 plain https://x.y#z tail",
    "unicode héllo wörld čaj",
    "emoji 😀 mixed",
    "&amp; &lt;entity&gt; &unknown;",
    "hyphen-ated under_scored dot.sep",
    "a b  c   d    e",
    "ALL CAPS WORDS HERE",
    "digits1mixed2into3words",
    "'quoted' \"double\" `back`",
    "trailing space ",
    " leading space",
    " nbsp separated",
]


def _rand_strings(n=60, seed=7):
    rng = np.random.default_rng(seed)
    alphabet = list("abc XYZ 012 .,!-_/:&;#éü\t") + ["  ", "http://", "www."]
    out = []
    for _ in range(n):
        k = int(rng.integers(0, 12))
        out.append("".join(rng.choice(alphabet) for _ in range(k)))
    return out


@pytest.mark.parametrize("mode", ["body", "title", "tool"])
def test_tokenizer_sql_parity(mode):
    texts = NASTY + _rand_strings()
    toks, rows = normalize.tokenize_column(pa.array(texts, pa.string()), mode)
    py = sorted(zip(rows.tolist(), toks.tolist()))

    con = duckdb.connect()
    con.execute("CREATE TABLE t (i INTEGER, txt VARCHAR)")
    con.executemany("INSERT INTO t VALUES (?, ?)", list(enumerate(texts)))
    sql = (
        f"SELECT i, tok.term FROM t, {normalize.tokens_sql('txt', mode)} "
        f"WHERE {normalize.tokens_keep_sql('tok.term', mode)} ORDER BY i"
    )
    sq = sorted((i, t) for i, t in con.execute(sql).fetchall())
    assert py == sq, f"mode={mode}: tokenizer and SQL mirror diverge"


def test_positions_parity_with_sql_ordinality():
    texts = NASTY[:10] + ["the quick 42 brown fox", "dup dup x dup"]
    toks, rows, pos = normalize.tokenize_with_positions(pa.array(texts), "body")
    # positions are dense 0..k-1 per row
    for r in np.unique(rows):
        p = pos[rows == r]
        assert p.tolist() == list(range(len(p)))

def test_word_ngrams_sql_parity():
    """The generalized n-gram kernel must agree with its SQL CTE on
    adversarial strings for every (k, clamp) the ops use."""
    import duckdb as _duck

    from raystorm import ngrams

    texts = NASTY + _rand_strings()
    con = _duck.connect()
    con.execute("CREATE TABLE docs (doc_id BIGINT, text VARCHAR)")
    con.executemany("INSERT INTO docs VALUES (?, ?)", list(enumerate(texts)))
    for k in (2, 3, 8):
        for clamp in (True, False):
            rows, grams = ngrams.word_ngrams(pa.array(texts, pa.string()), k, clamp)
            got = sorted(zip(rows.tolist(), grams.tolist()))
            want = sorted(
                tuple(r)
                for r in con.execute(
                    f"SELECT doc_id, gram FROM ({ngrams._ngrams_sql(k, clamp, 'docs')})"
                ).fetchall()
            )
            assert got == want, (k, clamp)
    con.close()


def _uf_labels(edges, nodes):
    """Union-find reference for connected_components."""
    parent = {int(n): int(n) for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # min-relabel: union-find roots aren't guaranteed minimal per set
    comp = {}
    for n in parent:
        comp.setdefault(find(n), []).append(n)
    lab = {}
    for members in comp.values():
        m = min(members)
        for n in members:
            lab[n] = m
    return lab


def test_connected_components_matches_union_find(ray_session):
    """Seeded random graphs (sparse, dense, chain-heavy) through the
    distributed CC must match a sequential union-find exactly."""
    import pandas as pd
    import ray.data as rd

    from raystorm import dedup

    rng = np.random.default_rng(7)
    for n_nodes, n_edges in ((20, 8), (50, 40), (60, 200), (200, 120)):
        raw = rng.integers(0, n_nodes, size=(n_edges, 2))
        edges = [(int(min(a, b)), int(max(a, b))) for a, b in raw if a != b]
        if not edges:
            continue
        pairs = pd.DataFrame(edges, columns=["doc_a", "doc_b"]).astype(np.int64)
        nodes = np.unique(pairs[["doc_a", "doc_b"]].to_numpy())
        got = dedup.connected_components(rd.from_pandas(pairs).repartition(4), nodes)
        want = _uf_labels(edges, nodes)
        assert {int(x): int(l) for x, l in zip(nodes, got)} == want, (n_nodes, n_edges)


def test_bm25_random_corpus_tie_parity(ray_session, tmp_path):
    """Randomized-corpus ranking parity: on seeded random corpora with
    ENGINEERED exact score ties (duplicate texts), the engine's top-k
    must equal the SQL oracle row for row — the (rounded score desc,
    conv, turn) tie-break under real collisions, not just the fixed
    fixtures — and the pruned + BMW paths must stay rank-identical to
    exhaustive on the same input."""
    import os

    import duckdb
    import pandas as pd

    from raystorm import build, corpus, query
    from raystorm.corpus import synth_word

    for seed in (11, 22):
        rng = np.random.default_rng(seed)
        vocab = [synth_word(i) for i in range(40)]
        texts = [
            " ".join(rng.choice(vocab, size=int(rng.integers(1, 12))))
            for _ in range(120)
        ]
        for i in range(0, 30, 3):  # exact duplicates => guaranteed ties
            texts[i + 1] = texts[i]
        docs = pd.DataFrame(
            {
                "doc_id": np.arange(1, 121, dtype=np.int64),
                "text": texts,
                "lang": "en",
                "source": "synthA",
                "n_chars": [len(t) for t in texts],
            }
        )
        sf = tmp_path / f"sf{seed}"
        sf.mkdir()
        docs.to_parquet(sf / "documents.parquet")
        idx = str(sf / "idx")
        build.build_index(
            corpus.transcripts_from_documents(str(sf)), idx,
            input_fingerprint=str(sf),
            cfg=build.BuildConfig(num_partitions=4, split_target=100),
        )
        queries = tuple(
            (f"q{j:02d}", " ".join(rng.choice(vocab, size=int(rng.integers(1, 4)))),
             int(rng.integers(1, 15)))
            for j in range(10)
        )
        si = query.SegmentIndex(idx)
        rows = []
        for qid, text, k in queries:
            df = si.topk(text, k, "bm25")
            df.insert(0, "query_id", qid)
            rows.append(df)
        got = pd.concat(rows, ignore_index=True)
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
        )
        want = con.execute(query.bm25_topk_sql(queries=queries)).df()
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), want.reset_index(drop=True),
            check_dtype=False,
        )
        for qid, text, k in queries:  # MaxScore rank-identity under ties, both mode names
            base = si.topk(text, k, "bm25").reset_index(drop=True)
            pd.testing.assert_frame_equal(
                base, si.topk(text, k, "bm25_pruned").reset_index(drop=True),
                check_dtype=False,
            )
            pd.testing.assert_frame_equal(
                base, si.topk(text, k, "bm25_bmw").reset_index(drop=True),
                check_dtype=False,
            )
