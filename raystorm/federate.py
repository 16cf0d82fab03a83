"""Federated search: one query over SEVERAL independently built indexes.

Elasticsearch's cross-index search (`GET /idx1,idx2/_search`) under
global-idf semantics: corpus statistics merge EXACTLY — N = ΣN_i,
total_tokens = Σtotal_i (both integers in every manifest), avgdl =
Σtotal/ΣN, df(t) = Σdf_i(t) — so every BM25 factor is bit-identical to
an index built over the union corpus, and the federated ranking is
rank-identical to the single-index ranking (pinned by pytest and by the
gate sharing the full-corpus oracle).  The reference's analog is the
multi-worker KVS scan fan-out (SURVEY.md §1.3); here each member index
is self-contained (own codec/docid space), candidates union at the
(conv_id, turn_idx) level.

Scale shape: members score their own postings locally (the same
per-partition work as batch_evaluate_sharded); only (candidate, score)
pairs cross index boundaries — stats merge is O(#indexes) driver
arithmetic at open time, never a data move.  This is how a 100 TB
corpus built as N independent per-shard indexes (e.g. one per ingest
day) serves one logical search surface without a merge/compaction.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from . import normalize, segments
from .analysis import round_half_up
from .build import lucene_idf
from .query import RANK_ROUND, SCORE_ROUND, QueryTrace, SegmentIndex, _accumulate, check_k


class FederatedIndex:
    """Query several indexes as one logical index (merged global stats).

    Members must share scoring config (k1/b) — federating mismatched
    scorers would silently blend incomparable scores."""

    def __init__(self, index_dirs):
        if not index_dirs:
            raise ValueError("FederatedIndex needs at least one index dir")
        self.indexes = [SegmentIndex(d) for d in index_dirs]
        cfgs = {(ix.k1, ix.b) for ix in self.indexes}
        if len(cfgs) > 1:
            raise ValueError(f"members disagree on (k1, b): {sorted(cfgs)}")
        self.k1, self.b = self.indexes[0].k1, self.indexes[0].b
        # exact merged corpus statistics per field (integer sums)
        self.global_stats: dict[str, dict] = {}
        for ix in self.indexes:
            for f, gs in ix.global_stats.items():
                m = self.global_stats.setdefault(
                    f, {"N": 0, "total_tokens": 0}
                )
                m["N"] += int(gs["N"])
                m["total_tokens"] += int(gs["total_tokens"])
        for m in self.global_stats.values():
            m["avgdl"] = m["total_tokens"] / m["N"] if m["N"] else 0.0

    def _merged_df(self, term: str, field: str) -> int:
        df = 0
        for ix in self.indexes:
            fd = ix._dict.get(field)
            if fd is None:
                continue
            r = fd.rank_of(term)
            if r >= 0:
                df += int(fd.df[r])
        return df

    def topk(self, query_text: str, k: int, field: str = "text") -> pd.DataFrame:
        """Disjunctive BM25 over the union corpus: each member scores
        its own postings with the MERGED idf/avgdl, candidates union at
        (conv_id, turn_idx), ranking ties break on (conv_id, turn_idx)
        ascending — the same global order as a single-index build."""
        check_k(k)
        toks, _ = normalize.tokenize_column(pa.array([query_text]), "body")
        terms = sorted(set(toks.tolist()))
        gs = self.global_stats.get(field, {"N": 0, "avgdl": 0.0})
        hits = [self._member_hits(ix, terms, field, gs) for ix in self.indexes]
        return _topk_rows(hits, k)

    def _member_hits(self, ix: SegmentIndex, terms, field: str, gs):
        """(conv_id, turn_idx, score) arrays of one member's live
        candidates, scored with the MERGED idf/avgdl."""
        id_chunks, sc_chunks = [], []
        for t in terms:
            p = ix.postings(t, field)
            if p is None:
                continue
            docids, tfs, dls = p
            idf = float(lucene_idf(gs["N"], np.array([self._merged_df(t, field)]))[0])
            sc_chunks.append(
                segments.bm25_term_scores(tfs, dls, idf, gs["avgdl"], self.k1, self.b)
            )
            id_chunks.append(docids)
        ids, totals = ix._drop_deleted(*_accumulate(id_chunks, sc_chunks))
        conv, turn = ix.codec.decode(ids)
        return conv, turn, totals


def _topk_rows(hits, k):
    """Shared federated ranking tail over the members' ``hits``:
    boundary-tight partial top-k, exact (score desc, conv_id, turn_idx)
    order over the boundary set — ONE copy of the tie-break-sensitive
    boundary sort for both federated classes."""
    hits = [h for h in hits if len(h[2])]
    if not hits:
        return pd.DataFrame(
            {"rank": np.empty(0, np.int32), "conv_id": [], "turn_idx": np.empty(0, np.int32), "score": []}
        )
    conv, turn, sc = (np.concatenate(c) for c in zip(*hits))
    r = round_half_up(sc, RANK_ROUND)
    if len(conv) > k:
        top = np.argpartition(-r, k - 1)[:k]
        boundary = np.min(r[top])
        cand = np.nonzero(r >= boundary)[0]
    else:
        cand = np.arange(len(conv))
    tail = (
        pd.DataFrame(
            {"conv_id": conv[cand], "turn_idx": turn[cand], "r": r[cand], "score": sc[cand]}
        )
        .sort_values(["r", "conv_id", "turn_idx"], ascending=[False, True, True])
        .head(k)
        .reset_index(drop=True)
    )
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(tail) + 1, dtype=np.int32),
            "conv_id": tail["conv_id"],
            "turn_idx": tail["turn_idx"].astype(np.int32),
            "score": round_half_up(tail["score"].to_numpy(), SCORE_ROUND),
        }
    )


class SelectiveFederatedIndex(FederatedIndex):
    """Federated search with RESOURCE SELECTION (shard skipping): a
    member index is only evaluated if its dictionary-level upper bound
    can still reach the current top-k threshold.

    Per member and query term, the stored run max-scores (quantized
    under the member's LOCAL idf/avgdl) convert to a sound bound under
    the MERGED stats by the update-path factor ``(idf_g/idf_l) *
    max(1, avgdl_g/avgdl_l)`` (proof in update.py's module docstring:
    the BM25 denominator shrinks by at most ``avgdl_l/avgdl_g`` and the
    numerator is idf-linear).  Members evaluate in descending bound
    order; docs never span members, so every evaluated member yields
    FULL scores and theta is the raw k-th best so far — once the next
    member's bound falls under ``theta - PRUNE_EPS``, it and every
    later member skip without reading one posting byte.  This is the
    Taily/ReDDE-style shard selection that lets a 100 TB corpus built
    as per-day generations answer most queries from a few generations.

    Rank-identical to :class:`FederatedIndex` (pytest-pinned; gate
    shares the full-corpus oracle).  Skip accounting in
    ``self.last_trace`` (``shards_total`` / ``shards_evaluated``).
    """

    PRUNE_EPS = 1e-6

    def _member_bound(self, ix: SegmentIndex, terms, field: str, gs) -> float:
        fd = ix._dict.get(field)
        if fd is None:
            return 0.0
        lgs = ix.global_stats.get(field, {})
        lavg = lgs.get("avgdl", 0.0)
        avg_ratio = max(1.0, gs["avgdl"] / lavg) if lavg else 1.0
        ub = 0.0
        for t in terms:
            r = fd.rank_of(t)
            if r < 0:
                continue
            s, e = int(fd.run_start[r]), int(fd.run_start[r + 1])
            if e <= s:
                continue
            idf_l = float(fd.idf[r])
            if idf_l <= 0.0:
                return np.inf  # degenerate local idf: no sound rescale
            idf_g = float(lucene_idf(gs["N"], np.array([self._merged_df(t, field)]))[0])
            ub += float(fd.max_score[s:e].max()) * (idf_g / idf_l) * avg_ratio
        return ub

    def topk(self, query_text: str, k: int, field: str = "text") -> pd.DataFrame:
        check_k(k)
        toks, _ = normalize.tokenize_column(pa.array([query_text]), "body")
        terms = sorted(set(toks.tolist()))
        gs = self.global_stats.get(field, {"N": 0, "avgdl": 0.0})
        bounds = [self._member_bound(ix, terms, field, gs) for ix in self.indexes]
        order = np.argsort(-np.asarray(bounds), kind="stable")
        self.last_trace = tr = QueryTrace(shards_total=len(self.indexes), shards_evaluated=0)
        hits = []
        theta = -np.inf
        all_sc = np.empty(0, np.float64)
        for oi in order:
            if bounds[oi] + self.PRUNE_EPS < theta:
                break  # bounds descend: every later member skips too
            tr.shards_evaluated += 1
            hits.append(self._member_hits(self.indexes[oi], terms, field, gs))
            all_sc = np.concatenate([all_sc, hits[-1][2]])
            if len(all_sc) >= k:
                theta = float(np.partition(all_sc, len(all_sc) - k)[len(all_sc) - k])
        return _topk_rows(hits, k)


class FederatedScorer:
    """Actor-pool stage: queries batch -> federated top-k rows (the
    QueryScorer shape over a FederatedIndex; member indexes load once
    per actor)."""

    def __init__(self, index_dirs, selective: bool = False):
        cls = SelectiveFederatedIndex if selective else FederatedIndex
        self.fed = cls(index_dirs)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for qid, text, k in zip(
            batch["query_id"].to_pylist(),
            batch["text"].to_pylist(),
            batch["k"].to_pylist(),
        ):
            df = self.fed.topk(text, int(k))
            df.insert(0, "query_id", qid)
            out.append(df)
        res = (
            pd.concat(out, ignore_index=True)
            if out
            else pd.DataFrame(
                {"query_id": [], "rank": [], "conv_id": [], "turn_idx": [], "score": []}
            )
        )
        return pa.Table.from_pandas(res, preserve_index=False)


def batch_evaluate_federated(index_dirs, queries, selective: bool = False) -> pd.DataFrame:
    """Actor-pool federated evaluation over a query set — the gate
    entry (rank-identical to one index over the union corpus, so the
    oracle is the plain full-corpus BM25 SQL).  ``selective`` routes
    through :class:`SelectiveFederatedIndex` (shard skipping)."""
    import ray.data as rd

    from .query import queries_table

    qds = rd.from_arrow(queries_table(queries))
    return (
        qds.map_batches(
            FederatedScorer,
            fn_constructor_kwargs={"index_dirs": list(index_dirs), "selective": selective},
            batch_format="pyarrow",
            concurrency=2,
            batch_size=4,
        )
        .to_pandas()
        .sort_values(["query_id", "rank"])
        .reset_index(drop=True)
    )
