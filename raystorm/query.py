"""Query engine: segment reader + BM25 / faithful top-k scoring.

The reference's query path (``SearchServer.java:103-266``) does one KVS
point-read per (term, index) plus per-candidate PageRank/title lookups.
Here the whole index is loaded once per scorer *actor*
(``SegmentIndex`` in ``__init__`` — the actor-pool pattern for the
stateful stage), and queries are evaluated as a Ray Data
``map_batches`` over a queries table.

Scoring modes (both deterministic; accumulation order pinned to sorted
query terms, tie-break (conv_id, turn_idx) asc — SURVEY.md §7.5.1):

- ``bm25``:  score(d) = Σ_t idf(t) · tf·(k1+1)/(tf + k1·(1−b+b·dl/avgdl)),
  idf = ln(1 + (N − df + 0.5)/(df + 0.5)) (Lucene-positive variant),
  k1=1.2 b=0.75, over unique body-tokenized query terms.
- ``faithful``: the reference ranker's formula
  (``SearchServer.java:14-17, 123, 140``): per *raw* query token
  (duplicates double-count, as the reference's loop does), presence in
  the text field adds 1.5·ln(N/(1+df_text)), presence in the tool field
  adds 1.0·ln(N/(1+df_tool)); tf ignored (the reference's indexes are
  binary — ``Indexer.java:44-49``).  We use the true corpus N where the
  reference hardcodes 30000 (``SearchServer.java:17``) — documented
  deviation.

Ranking: row_number over (round(score, 9) desc, conv_id asc,
turn_idx asc); emitted score rounded to 6 decimals.  The rounding pins
rank-identity between numpy and the DuckDB oracle despite float-sum
ordering differences (~1e-15 relative).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

from .analysis import round_half_up
import pyarrow.parquet as pq

from . import corpus, normalize, segments
from .docids import DocIdCodec

RANK_ROUND = 9
SCORE_ROUND = 6


class InvalidRequest(ValueError):
    """A request the engine refuses before doing any work: a bad ``k``,
    an unknown mode or a malformed filter (``docvalues.decode_clauses``).
    Serving surfaces map it to HTTP 400; every other
    exception (``CorruptSegmentError`` included) is a server fault."""


@dataclass
class QueryTrace:
    """What one :meth:`SegmentIndex.topk` call did, counted by the code
    that ran (the per-operator runtime stats of Presto, ICDE 2022).

    ``terms`` / ``terms_matched`` / ``runs_total`` are counted by the
    BM25 term paths (``bm25`` and its expansion modes, MaxScore);
    ``runs_decoded`` / ``postings_decoded`` by every decode and
    ``candidates`` by the shared ranking tail.  A federated search adds
    how many member indexes it read."""

    terms: int = 0
    terms_matched: int = 0
    runs_total: int = 0
    runs_decoded: int = 0
    postings_decoded: int = 0
    candidates: int = 0
    shards_total: int = 1
    shards_evaluated: int = 1


def check_k(k) -> None:
    """The one check of a top-k request's ``k``, shared by every mode."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidRequest(f"k must be a positive integer, got {k!r}")


def _check_part_size(part_dir: str, tdict: pa.Table) -> None:
    """Raise ``CorruptSegmentError`` when ``postings.bin`` is shorter
    than the runs its ``terms.parquet`` addresses (a truncated part)."""
    if not len(tdict):
        return
    need = int(np.max(tdict["offset"].to_numpy() + tdict["nbytes"].to_numpy()))
    path = os.path.join(part_dir, "postings.bin")
    have = os.path.getsize(path) if os.path.exists(path) else 0
    if have < need:
        raise segments.CorruptSegmentError(
            f"{os.path.basename(part_dir)}/postings.bin holds {have} bytes, "
            f"but its terms.parquet addresses {need}"
        )


class _FieldDict:
    """Columnar per-field dictionary: one sorted Arrow term vocabulary +
    parallel numpy stat columns + run rows grouped by term rank.

    The round-1 version exploded every dictionary row into Python
    dict-of-tuples entries (``to_pylist`` loops) — tens of GB of object
    overhead per scorer actor at the SCALE.md design point (100M terms).
    Here term strings stay in ONE Arrow buffer (data + 4-byte offsets);
    lookups binary-search it with O(log V) ``as_py`` probes per term
    (the ``build.Vocab`` pattern applied to the read side).
    """

    __slots__ = (
        "terms", "df", "cf", "idf", "run_start",
        "salt", "part", "offset", "nbytes", "max_score",
        "first_docid", "last_docid", "run_df",
    )

    def lower_bound(self, key: str) -> int:
        """Leftmost index with terms[i] >= key (binary search over the
        Arrow buffer; O(log V) ``as_py`` probes)."""
        arr = self.terms
        lo, hi = 0, len(arr)
        while lo < hi:
            mid = (lo + hi) // 2
            if arr[mid].as_py() < key:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def rank_of(self, term: str) -> int:
        """Binary search the Arrow vocabulary; -1 if absent."""
        lo = self.lower_bound(term)
        if lo < len(self.terms) and self.terms[lo].as_py() == term:
            return lo
        return -1

    def prefix_range(self, prefix: str) -> tuple[int, int]:
        """[lo, hi) vocabulary rank range of terms starting with
        ``prefix`` — two binary searches, never a scan.  The upper key
        bumps the prefix's last code point (total order: every string
        with the prefix sorts below it)."""
        lo = self.lower_bound(prefix)
        hi = self.lower_bound(prefix[:-1] + chr(ord(prefix[-1]) + 1))
        return lo, hi


class _QueryScratch:
    """One thread's reusable query state on one index, so that a warm
    head query allocates almost nothing large: the dense accumulator
    (float64 scores and a presence mask over the docid span, all 0.0 /
    False between calls) and the run buffer that decode and score write
    into."""

    def __init__(self, span: int):
        self.run = segments.RunBuffer()
        self.score = np.zeros(span)
        self.seen = np.zeros(span, bool)

    def sum_runs(self, runs):
        """Sum ``runs`` of (strictly increasing docids, scores) -> (sorted
        distinct docids, totals), fresh arrays.  Each run goes take →
        add → put (its docids never repeat a slot), so every doc's
        partials are added in run order starting from 0.0, as
        ``np.bincount`` adds them: totals are bit-identical to
        :func:`_accumulate`.  Only the docid range the runs touched is
        scanned and reset afterwards, also when a run fails, so the cost
        follows the runs, not the span.  (``mode="clip"`` only skips the
        bounds check's temporary: docids are inside the span.)"""
        lo, hi = len(self.seen), 0
        try:
            for docids, sc in runs:
                if not len(docids):
                    continue
                lo, hi = min(lo, int(docids[0])), max(hi, int(docids[-1]) + 1)
                part = self.score.take(docids, out=self.run.array("sum", len(docids), np.float64), mode="clip")
                part += sc
                self.score[docids] = part
                self.seen[docids] = True
        finally:
            ids = np.flatnonzero(self.seen[lo:hi])
            ids += lo
            totals = self.score.take(ids, mode="clip")
            self.score[ids] = 0.0
            self.seen[ids] = False
        return ids, totals

    def update(self, ids: np.ndarray, totals: np.ndarray, runs) -> np.ndarray:
        """``totals`` of the sorted distinct docs ``ids`` plus the scores
        of the ``runs`` (strictly increasing docids each) that fall on
        them, as a fresh array; other docs' postings are ignored.  Each
        doc gains its partials in run order, one at a time."""
        self.score[ids] = totals
        self.seen[ids] = True
        try:
            for docids, sc in runs:
                n = len(docids)
                part = self.score.take(docids, out=self.run.array("sum", n, np.float64), mode="clip")
                mine = self.seen.take(docids, out=self.run.array("mine", n, bool), mode="clip")
                np.add(part, sc, out=part, where=mine)
                self.score[docids] = part
        finally:
            out = self.score.take(ids, mode="clip")
            self.score[ids] = 0.0
            self.seen[ids] = False
        return out


class SegmentIndex:
    """Loads the on-disk index once; answers term lookups + top-k queries.

    A query reuses scratch (:class:`_QueryScratch`) instead of allocating
    per query: one per thread that queries the index, made on that
    thread's first query, so calls from several threads never share
    accumulators.  Every array a query returns is a fresh copy, never a
    view on the scratch."""

    def __init__(self, index_dir: str, k1: float | None = None, b: float | None = None):
        """``k1``/``b`` override the build-time BM25 parameters for this
        reader (the ES per-request similarity-tuning surface) — legal
        because tf/dl/df are stored raw and scores derive at query
        time.  The PRUNED mode is excluded: its per-run ``max_score``
        bounds in ``terms.parquet`` were computed under the build-time
        parameters (see :meth:`topk_pruned`)."""
        from .admin import resolve_index

        index_dir = resolve_index(index_dir)  # alias files resolve here
        self.index_dir = index_dir
        manifest = json.load(open(os.path.join(index_dir, "manifest.json")))
        self.manifest = manifest
        self.k1 = manifest["config"]["k1"] if k1 is None else float(k1)
        self.b = manifest["config"]["b"] if b is None else float(b)
        self._tuned = k1 is not None or b is not None
        self._local = threading.local()  # per-thread query scratch
        self.last_trace = QueryTrace()
        self.global_stats = manifest["global_stats"]
        self.field_modes = dict(manifest["config"]["fields"])
        self.codec = DocIdCodec.from_table(
            pq.read_table(os.path.join(index_dir, "convmap.parquet"))
        )
        # Lucene-style masked deletes (deletes.py): tombstoned docid
        # ranges are dropped from every candidate set at scoring time
        # while N/avgdl/df/idf keep their pre-delete values until vacuum
        from .deletes import load_tombstones

        self._ts_starts, self._ts_ends = load_tombstones(index_dir)
        self._docstore = None  # lazy (phrase mode; needs build --docstore)
        self._dv = None  # lazy (filter/sort modes; needs build_docvalues)
        ts = pq.read_table(os.path.join(index_dir, "terms_stats.parquet"))
        # gather all part dictionaries columnar (one Arrow concat; no
        # per-row Python) with a part-id column
        parts_dir = os.path.join(index_dir, "parts")
        self._part_data: dict[int, np.memmap] = {}
        run_tables = []
        if os.path.isdir(parts_dir):
            for name in sorted(os.listdir(parts_dir)):
                if not name.startswith("part-") or "." in name:
                    continue
                p = int(name.split("-")[1])
                tdict = pq.read_table(
                    os.path.join(parts_dir, name, "terms.parquet"),
                    columns=[
                        "field", "term", "salt", "df", "offset", "nbytes",
                        "max_score", "first_docid", "last_docid",
                    ],
                )
                _check_part_size(os.path.join(parts_dir, name), tdict)
                run_tables.append(
                    tdict.append_column(
                        "part", pa.array(np.full(len(tdict), p, np.int32))
                    )
                )
        runs_all = (
            pa.concat_tables(run_tables)
            if run_tables
            else None
        )
        self._dict: dict[str, _FieldDict] = {}
        import pyarrow.compute as pc_

        for f in pc_.unique(ts["field"]).to_pylist():
            fd = _FieldDict()
            sub = ts.filter(pc_.equal(ts["field"], f))
            order = pc_.sort_indices(sub["term"])
            sub = sub.take(order)
            fd.terms = sub["term"].combine_chunks()
            fd.df = sub["df"].to_numpy()
            fd.cf = sub["cf"].to_numpy()
            fd.idf = sub["idf"].to_numpy()
            V = len(fd.terms)
            if runs_all is not None:
                rsub = runs_all.filter(pc_.equal(runs_all["field"], f))
                # rank of each run row in the sorted vocabulary
                # (transient object arrays — freed after init)
                vocab_np = fd.terms.to_numpy(zero_copy_only=False)
                rank = np.searchsorted(
                    vocab_np, rsub["term"].to_numpy(zero_copy_only=False)
                )
                # run order within a term = docid order (first_docid, not
                # salt — delta-generation runs from update.py carry their
                # own salt space but always cover later docids), so
                # postings() concatenation yields globally sorted docids
                salt = rsub["salt"].to_numpy()
                fdoc = rsub["first_docid"].to_numpy()
                ro = np.lexsort((fdoc, rank))
                fd.salt = salt[ro]
                fd.part = rsub["part"].to_numpy()[ro]
                fd.offset = rsub["offset"].to_numpy()[ro]
                fd.nbytes = rsub["nbytes"].to_numpy()[ro]
                fd.max_score = rsub["max_score"].to_numpy()[ro]
                fd.run_df = rsub["df"].to_numpy()[ro]
                fd.first_docid = rsub["first_docid"].to_numpy()[ro]
                fd.last_docid = rsub["last_docid"].to_numpy()[ro]
                counts = np.bincount(rank, minlength=V)
            else:
                fd.salt = fd.part = fd.offset = fd.nbytes = fd.run_df = np.empty(0, np.int64)
                fd.max_score = np.empty(0)
                fd.first_docid = fd.last_docid = np.empty(0, np.int64)
                counts = np.zeros(V, np.int64)
            fd.run_start = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            self._dict[f] = fd

    # ----- columnar dictionary accessors -----
    def fields(self) -> list[str]:
        return sorted(self._dict)

    def terms(self, field: str = "text") -> list[str]:
        fd = self._dict.get(field)
        return fd.terms.to_pylist() if fd is not None else []

    def term_info(self, term: str, field: str = "text"):
        """(df, cf, idf) from the stats table, or None."""
        fd = self._dict.get(field)
        if fd is None:
            return None
        r = fd.rank_of(term)
        if r < 0:
            return None
        return int(fd.df[r]), int(fd.cf[r]), float(fd.idf[r])

    def n_runs(self, term: str, field: str = "text") -> int:
        fd = self._dict.get(field)
        if fd is None:
            return 0
        r = fd.rank_of(term)
        if r < 0:
            return 0
        return int(fd.run_start[r + 1] - fd.run_start[r])

    def term_stats_table(self) -> pd.DataFrame:
        """All (field, term, df, cf, idf) rows — vectorized export."""
        frames = [
            pd.DataFrame(
                {
                    "field": np.full(len(fd.terms), f, object),
                    "term": fd.terms.to_numpy(zero_copy_only=False),
                    "df": fd.df,
                    "cf": fd.cf,
                    "idf": fd.idf,
                }
            )
            for f, fd in sorted(self._dict.items())
        ]
        return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
            {"field": [], "term": [], "df": [], "cf": [], "idf": []}
        )

    def _part(self, p: int) -> np.memmap:
        if p not in self._part_data:
            self._part_data[p] = np.memmap(
                os.path.join(self.index_dir, "parts", f"part-{p:05d}", "postings.bin"),
                dtype=np.uint8,
                mode="r",
            )
        return self._part_data[p]

    @property
    def _scratch(self) -> _QueryScratch:
        """The calling thread's scratch, made on its first query."""
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = _QueryScratch(self.codec.span)
        return scratch

    def _decode_runs(self, fd: _FieldDict, idxs, buf: segments.RunBuffer | None = None) -> list:
        """Decoded (docids, tfs, dls) of the runs ``idxs``.  With ``buf``
        each run is a view into it, valid until the next decode into
        ``buf``: the hot paths pass one run at a time."""
        out = []
        for i in idxs:
            p, off = int(fd.part[i]), int(fd.offset[i])
            try:
                out.append(segments.decode_run(self._part(p)[off : off + int(fd.nbytes[i])], buf))
                if len(out[-1][0]) != fd.run_df[i]:
                    raise segments.CorruptSegmentError(
                        f"run holds {len(out[-1][0])} postings, its terms.parquet row {int(fd.run_df[i])}"
                    )
            except segments.CorruptSegmentError as e:
                raise segments.CorruptSegmentError(
                    f"part-{p:05d}/postings.bin offset {off}: {e}"
                ) from e
        self.last_trace.runs_decoded += len(out)
        self.last_trace.postings_decoded += sum(len(run[0]) for run in out)
        return out

    def postings(self, term: str, field: str = "text"):
        """Decoded posting list (docids, tfs, dls) or None."""
        fd = self._dict.get(field)
        if fd is None:
            return None
        r = fd.rank_of(term)
        if r < 0:
            return None
        s, e = int(fd.run_start[r]), int(fd.run_start[r + 1])
        if s == e:
            return None
        parts = self._decode_runs(fd, range(s, e))
        if len(parts) == 1:
            return parts[0]
        return tuple(np.concatenate([pr[i] for pr in parts]) for i in range(3))

    def topk_phrase(self, query_text: str, k: int) -> pd.DataFrame:
        """Exact-phrase top-k: documents whose kept-token stream
        contains the query's tokenized terms ADJACENT and in order,
        ranked by the BM25 sum of the phrase terms.

        Candidates come from the conjunctive intersection (rarest term
        bounds the work); adjacency is verified against the doc-store's
        text (one point lookup per candidate — the reference's
        per-candidate KVS read).  A single-term phrase degenerates to
        plain term match.  Scale note: verification cost is the
        conjunction's selectivity; engines serving high-frequency
        phrases store positional postings instead (the repo's
        positional.py layout) — this path is the doc-store-verified
        variant, right when phrases contain at least one rare term.
        Requires the index to have a doc-store (build --docstore).
        """
        from .docstore import DocStore

        docids, scores = self._score_bm25_conjunctive(query_text)
        if len(docids):
            toks, _ = normalize.tokenize_column(pa.array([query_text]), "body")
            phrase = " ".join(toks.tolist())  # document order, duplicates kept
            if self._docstore is None:
                self._docstore = DocStore(self.index_dir)
            texts = self._docstore.texts(docids)
            ntoks, row_idx = normalize.tokenize_column(
                pa.array(texts.tolist(), pa.string()), "body"
            )
            keep = np.zeros(len(docids), bool)
            needle = f" {phrase} "
            # per-candidate adjacency check over the kept-token stream
            # (candidate-bounded loop, same bound as the snippet stage)
            bounds = np.searchsorted(row_idx, np.arange(len(docids) + 1))
            for i in range(len(docids)):
                hay = " " + " ".join(ntoks[bounds[i] : bounds[i + 1]].tolist()) + " "
                keep[i] = needle in hay
            docids, scores = docids[keep], scores[keep]
        if len(docids) == 0:
            return pd.DataFrame(
                {"rank": np.empty(0, np.int32), "conv_id": [], "turn_idx": np.empty(0, np.int32), "score": []}
            )
        r = round_half_up(scores, RANK_ROUND)
        order = np.lexsort((docids, -r))[:k]
        conv, turn = self.codec.decode(docids[order])
        return pd.DataFrame(
            {
                "rank": np.arange(1, len(order) + 1, dtype=np.int32),
                "conv_id": conv,
                "turn_idx": turn,
                "score": round_half_up(scores[order], SCORE_ROUND),
            }
        )

    def suggest_terms(
        self, terms, field: str = "text", max_dist: int = 2
    ) -> pd.DataFrame:
        """'Did you mean' spell suggestion: for each input term, the
        vocabulary term with (edit distance asc, df desc, term asc) —
        terms with no candidate within ``max_dist`` are omitted.

        The scan is dictionary-sized with a length-difference prune; at
        the 100M-term design point it becomes a length/prefix-bucketed
        pass or BK-tree over the same sorted vocabulary (actor-local,
        like every other dictionary structure here).  Oracle:
        :func:`suggest_sql` (DuckDB ``levenshtein`` — unit-cost edit
        distance, identical to :func:`_levenshtein`).
        """
        fd = self._dict.get(field)
        if fd is None:
            return pd.DataFrame({"term": [], "suggestion": [], "dist": [], "df": []})
        vocab = fd.terms.to_pylist()
        rows = []
        for m in sorted(set(terms)):
            best = None
            for i, t in enumerate(vocab):
                if abs(len(t) - len(m)) > max_dist:
                    continue
                d = _levenshtein(m, t)
                if d > max_dist:
                    continue
                key = (d, -int(fd.df[i]), t)
                if best is None or key < best[0]:
                    best = (key, t, d, int(fd.df[i]))
            if best is not None:
                rows.append((m, best[1], best[2], best[3]))
        return pd.DataFrame(rows, columns=["term", "suggestion", "dist", "df"])

    def suggest_complete(
        self, prefixes, field: str = "text", k: int = 3
    ) -> pd.DataFrame:
        """Search-as-you-type prefix completion: for each input prefix,
        the top-``k`` dictionary completions by (df desc, term asc) —
        the Lucene suggest / ES ``completion`` shape, minus the
        dedicated FST (the sorted dictionary's two binary searches make
        one unnecessary at this design point).

        Same cost shape as :meth:`expand_prefix`: O(log V + R log R)
        per prefix, actor-local.  Prefixes with no completion are
        omitted.  Oracle: :func:`complete_sql`.
        """
        fd = self._dict.get(field)
        rows = []
        if fd is not None:
            for p in sorted(set(prefixes)):
                if not p:
                    continue
                lo, hi = fd.prefix_range(p)
                if lo >= hi:
                    continue
                dfs = fd.df[lo:hi]
                order = np.argsort(-dfs, kind="stable")[:k]
                for rank, i in enumerate(order, 1):
                    rows.append(
                        (p, rank, fd.terms[lo + int(i)].as_py(), int(dfs[i]))
                    )
        return pd.DataFrame(
            rows, columns=["prefix", "rank", "completion", "df"]
        ).astype({"rank": np.int32, "df": np.int64}, errors="ignore")

    def _drop_deleted(self, docids: np.ndarray, *cols):
        """Filter tombstoned docids out of parallel arrays (no-op when
        the index has no tombstones)."""
        if not len(self._ts_starts) or not len(docids):
            return (docids, *cols)
        from .deletes import deleted_docid_mask

        keep = ~deleted_docid_mask(docids, self._ts_starts, self._ts_ends)
        return (docids[keep], *(c[keep] for c in cols))

    def _run_scores(self, fd: _FieldDict, rank: int, idxs):
        """Yield (docids, BM25 scores) of each run ``idxs`` of the
        text-field term at vocabulary ``rank``, tombstoned docs dropped.
        Each run is decoded and scored in the scratch's run buffer, so
        a yielded pair is valid only until the next one."""
        idf, avgdl = float(fd.idf[rank]), self.global_stats["text"]["avgdl"]
        buf = self._scratch.run
        for i in idxs:
            ((docids, tfs, dls),) = self._decode_runs(fd, (i,), buf)
            sc = segments.bm25_term_scores(tfs, dls, idf, avgdl, self.k1, self.b, buf)
            yield self._drop_deleted(docids, sc)

    def _scored_postings(self, fd: _FieldDict, rank: int, idxs):
        """(docids, BM25 scores) of the text-field term at vocabulary
        ``rank`` over its runs ``idxs``, tombstoned docs dropped, as
        fresh arrays."""
        n = int(fd.run_df[idxs].sum())
        ids, scs = np.empty(n, np.int64), np.empty(n)
        at = 0
        for docids, sc in self._run_scores(fd, rank, idxs):
            ids[at : at + len(docids)] = docids
            scs[at : at + len(docids)] = sc
            at += len(docids)
        return ids[:at], scs[:at]

    def explain(self, query_text: str, conv_id: str, turn_idx: int) -> pd.DataFrame:
        """Lucene-style score explanation: the per-term BM25 breakdown
        of one (query, doc) pair — tf, df, idf and the term's score
        contribution, whose sum is exactly the doc's ``bm25`` score
        (``segments.bm25_term_scores``, the same kernel the accumulator
        runs).  Query terms absent from the doc (or the vocabulary)
        are omitted.  Oracle: :func:`explain_sql`."""
        from . import normalize

        toks, _rows = normalize.tokenize_column(pa.array([query_text]), "body")
        terms = sorted(set(toks.tolist()))
        docid = int(
            self.codec.encode(np.array([conv_id]), np.array([turn_idx]))[0]
        )
        gs = self.global_stats["text"]
        fd = self._dict.get("text")
        rows = []
        if fd is not None:
            for t in terms:
                r = fd.rank_of(t)
                if r < 0:
                    continue
                parts = self._decode_runs(
                    fd, range(int(fd.run_start[r]), int(fd.run_start[r + 1]))
                )
                if not parts:
                    continue
                docids = np.concatenate([p[0] for p in parts])
                pos = np.nonzero(docids == docid)[0]
                if not len(pos):
                    continue
                tfs = np.concatenate([p[1] for p in parts])
                dls = np.concatenate([p[2] for p in parts])
                i = int(pos[0])
                contrib = segments.bm25_term_scores(
                    tfs[i : i + 1],
                    dls[i : i + 1],
                    float(fd.idf[r]),
                    gs["avgdl"],
                    self.k1,
                    self.b,
                )[0]
                rows.append(
                    (
                        t,
                        int(tfs[i]),
                        int(fd.df[r]),
                        float(round_half_up(np.float64(fd.idf[r]), SCORE_ROUND)),
                        float(round_half_up(np.float64(contrib), SCORE_ROUND)),
                    )
                )
        return pd.DataFrame(rows, columns=["term", "tf", "df", "idf", "contrib"])

    # ----- scoring -----
    def topk(self, query_text: str, k: int, mode: str = "bm25") -> pd.DataFrame:
        """Top-k under ``mode``; what the call did is left in
        :attr:`last_trace`, a fresh :class:`QueryTrace` per call."""
        self.last_trace = QueryTrace()
        check_k(k)
        # bm25_bmw stays an accepted mode name (perfbench, the CLI and
        # serving call it); MaxScore serves it
        if mode in ("bm25_pruned", "bm25_bmw"):
            return self.topk_pruned(query_text, k)
        if mode == "phrase":
            return self.topk_phrase(query_text, k)
        if mode == "collapsed":
            return self.topk_collapsed(query_text, k)
        if mode == "bm25_rescore":
            return self.topk_rescored(query_text, k)
        if mode == "bm25_decay":
            return self.topk_decayed(query_text, k)
        if mode == "bm25_decay_exp":
            return self.topk_decayed(query_text, k, shape="exp")
        if mode == "bm25_decay_linear":
            return self.topk_decayed(query_text, k, shape="linear")
        if mode == "script_score":
            return self.topk_script_score(query_text, k)
        if mode == "bm25_rescore_query":
            return self.topk_rescore_query(query_text, k)
        docids, scores = self._score_mode(query_text, mode)
        return self._format_topk(docids, scores, k)

    def _score_mode(self, query_text: str, mode: str):
        """Dispatch to an accumulator-style scorer: (docids, scores)
        over every candidate — shared by :meth:`topk` and the
        cursor-paginated :meth:`topk_after`."""
        if mode == "bm25":
            return self._score_bm25(query_text)
        if mode == "bm25_and":
            return self._score_bm25_conjunctive(query_text)
        if mode == "bm25_wild":
            return self._score_bm25_wildcard(query_text)
        if mode == "bm25_fuzzy":
            return self._score_bm25_fuzzy(query_text)
        if mode == "bm25_regex":
            return self._score_bm25_regex(query_text)
        if mode == "bm25_syn":
            return self._score_bm25_terms(expand_synonyms(query_text))
        if mode == "bm25_bool":
            return self._score_bm25_boolean(query_text)
        if mode == "bm25_boost":
            return self._score_bm25_boost(query_text)
        if mode == "bm25f":
            return self._score_bm25f(query_text)
        if mode == "dis_max":
            return self._score_dis_max(query_text)
        if mode == "cross_fields":
            return self._score_cross_fields(query_text)
        if mode == "most_fields":
            return self._score_most_fields(query_text)
        if mode == "faithful":
            return self._score_faithful(query_text)
        if mode == "lm_dirichlet":
            return self._score_lm_dirichlet(query_text)
        if mode == "tfidf_classic":
            return self._score_tfidf_classic(query_text)
        raise InvalidRequest(f"unknown mode {mode!r}")

    def topk_after(
        self,
        query_text: str,
        k: int,
        after: tuple[str, int],
        mode: str = "bm25",
    ) -> pd.DataFrame:
        """Cursor pagination (Lucene ``searchAfter``): the hits strictly
        after ``after = (conv_id, turn_idx)`` — the last hit of the
        previous page — in the global (rounded score desc, docid asc)
        order, re-ranked 1..k within the page.

        The cursor is resolved against the query's own candidate set
        (the order key is per-query), so an ``after`` doc the query
        never matched raises ``KeyError`` instead of silently returning
        page 1.  Deterministic: re-running any page re-derives the same
        global order, so pages never overlap or skip — no per-session
        server state, unlike offset pagination over a mutable index.
        Works for every accumulator mode (bm25 / and / wild / fuzzy /
        bool / bm25f / faithful).
        """
        self.last_trace = QueryTrace()
        docids, scores = self._score_mode(query_text, mode)
        cursor = int(self.codec.encode(np.array([after[0]]), np.array([after[1]]))[0])
        r = round_half_up(scores, RANK_ROUND)
        pos = np.searchsorted(docids, cursor)
        if pos >= len(docids) or docids[pos] != cursor:
            raise KeyError(f"cursor {after} is not a hit of this query")
        cr = r[pos]
        keep = (r < cr) | ((r == cr) & (docids > cursor))
        return self._format_topk(docids[keep], scores[keep], k)

    def _format_topk(self, docids, scores, k: int) -> pd.DataFrame:
        """Shared ranking tail: (rounded score desc, docid asc) top-k,
        decode, emit.

        Threshold first: only the scores within 1e-6 of the raw k-th
        are rounded and sorted.  Rounding to ``RANK_ROUND`` decimals is
        monotone and moves a score by at most 5e-10, so no score below
        that band can round up to the k-th rounded score; the candidate
        set holds every doc tied with it at the boundary.  The k-th is
        found in the index's scratch, not in a copy of ``scores``."""
        n = self.last_trace.candidates = len(docids)
        if n == 0:
            return pd.DataFrame(
                {"rank": np.empty(0, np.int32), "conv_id": [], "turn_idx": np.empty(0, np.int32), "score": []}
            )
        if n <= k:
            cand = np.arange(n)
        elif k < 1:
            cand = np.empty(0, np.int64)
        else:
            kth = _kth_largest(scores, k, self._scratch.run)
            cand = np.flatnonzero(scores >= kth - 1e-6) if kth == kth else np.arange(n)
        r = round_half_up(scores[cand], RANK_ROUND)
        sel = cand[np.lexsort((docids[cand], -r))[:k]]
        conv, turn = self.codec.decode(docids[sel])
        return pd.DataFrame(
            {
                "rank": np.arange(1, len(sel) + 1, dtype=np.int32),
                "conv_id": conv,
                "turn_idx": turn,
                "score": round_half_up(scores[sel], SCORE_ROUND),
            }
        )

    # ----- doc-values filter / sort (Lucene DocValues, ES filter
    # context + sort; see docvalues.py for the storage layout) -----
    def docvalues(self):
        """Lazy doc-values reader (raises if build_docvalues never ran)."""
        if self._dv is None:
            from .docvalues import DocValues

            self._dv = DocValues(self.index_dir)
        return self._dv

    def topk_filtered(
        self, query_text: str, k: int, clauses, mode: str = "bm25"
    ) -> pd.DataFrame:
        """Top-k with a metadata filter: candidates score exactly as
        ``mode`` (full-corpus stats — a filter narrows the RESULT set,
        never the idf, matching Lucene's filter-context semantics), then
        drop candidates whose doc values fail the clause conjunction."""
        self.last_trace = QueryTrace()
        docids, scores = self._score_mode(query_text, mode)
        if len(docids) and clauses:
            keep = self.docvalues().mask(docids, clauses)
            docids, scores = docids[keep], scores[keep]
        return self._format_topk(docids, scores, k)

    #: rescore defaults: window depth, recency weight, decay scale (7d)
    RESCORE_WINDOW = 30
    RESCORE_W = 2.0
    RESCORE_TAU_US = 7 * 86_400 * 1_000_000

    def topk_rescored(
        self,
        query_text: str,
        k: int,
        window: int | None = None,
        w: float | None = None,
        tau_us: int | None = None,
        mode: str = "bm25",
    ) -> pd.DataFrame:
        """Two-phase rescoring (the ES ``rescore`` + recency
        ``function_score`` shape): phase 1 takes the top-``window``
        candidates under the standard rank rule, phase 2 re-ranks ONLY
        that window by ``score + w * exp(-(t_ref - ts)/tau)`` where
        ``ts`` is the candidate's ts_us doc value and ``t_ref`` the
        window's own max — window-relative, so no corpus-wide clock is
        needed.  Doc values resolve by point lookup for the ≤window
        candidates (the serving shape: rescore never touches postings
        again).  Oracle: :func:`rescored_topk_sql`.

        The phase-2 base is the phase-1 score at SCORE_ROUND — the
        emitted contract, so engine and SQL rescore identical inputs.
        """
        window = self.RESCORE_WINDOW if window is None else window
        w = self.RESCORE_W if w is None else w
        tau_us = self.RESCORE_TAU_US if tau_us is None else tau_us
        top = self.topk(query_text, window, mode)
        if not len(top):
            top["base_score"] = top["score"]
            return top
        docids = self.codec.encode(
            top["conv_id"].to_numpy(), top["turn_idx"].to_numpy(np.int64)
        )
        vals, found = self.docvalues().lookup(docids, "ts_us")
        if not found.all():
            raise KeyError("rescore candidate missing its ts_us doc value")
        ts = vals.astype(np.float64)
        rec = np.exp(-(ts.max() - ts) / float(tau_us))
        base = top["score"].to_numpy(np.float64)
        comb = base + w * rec
        key = round_half_up(comb, RANK_ROUND)
        order = np.lexsort((docids, -key))[:k]
        return pd.DataFrame(
            {
                "rank": np.arange(1, len(order) + 1, dtype=np.int32),
                "conv_id": top["conv_id"].to_numpy()[order],
                "turn_idx": top["turn_idx"].to_numpy()[order],
                "score": round_half_up(comb[order], SCORE_ROUND),
                "base_score": base[order],
            }
        )

    #: gauss decay defaults: 14d scale, 1d offset, multiplier 0.5 at
    #: scale distance (the ES ``gauss`` decay-function defaults shape)
    DECAY_SCALE_US = 14 * 86_400 * 1_000_000
    DECAY_OFFSET_US = 86_400 * 1_000_000
    DECAY_AT_SCALE = 0.5
    #: field_value_factor weight (topk_script_score)
    FVF_WEIGHT = 0.25

    def topk_decayed(
        self,
        query_text: str,
        k: int,
        scale_us: int | None = None,
        offset_us: int | None = None,
        decay: float | None = None,
        mode: str = "bm25",
        shape: str = "gauss",
    ) -> pd.DataFrame:
        """Gaussian decay ``function_score`` (ES ``gauss`` decay,
        ``multiply`` boost mode): every candidate's BM25 score is
        multiplied by ``exp(lam * d^2)`` with ``d = max(0, (origin -
        ts) - offset)`` and ``lam = ln(decay) / scale^2`` — full
        strength within ``offset`` of the origin, falling to ``decay``
        at ``offset + scale``, gaussian beyond.  The origin is the
        query's own newest candidate (query-relative, like
        :meth:`topk_rescored`'s t_ref — no corpus-wide clock needed).

        Unlike the additive top-window :meth:`topk_rescored`, the decay
        multiplies EVERY candidate before ranking, so an old strong
        match can fall out of the top-k entirely — the ES decay-query
        semantics.  Timestamps resolve from the ts_us doc value for the
        candidate set (the doc-values bulk-lookup shape; at 100 TB this
        is candidate-bounded columnar reads, never a corpus scan).
        Oracle: :func:`decay_topk_sql` — ``lam`` is inlined as the
        same Python double and the delta squared as ``d*d`` (not
        ``pow``) so both sides run identical float64 ops.

        ``shape`` selects the ES decay family: ``gauss``
        (exp(lam·d²), lam = ln(decay)/scale²), ``exp`` (exp(lam·d),
        lam = ln(decay)/scale), or ``linear`` (max(0, (s-d)/s),
        s = scale/(1-decay)); all hit ``decay`` at offset+scale.
        """
        import math

        scale_us = self.DECAY_SCALE_US if scale_us is None else scale_us
        offset_us = self.DECAY_OFFSET_US if offset_us is None else offset_us
        decay = self.DECAY_AT_SCALE if decay is None else decay
        docids, scores = self._score_mode(query_text, mode)
        if not len(docids):
            return self._format_topk(docids, scores, k)
        vals, found = self.docvalues().lookup(docids, "ts_us")
        if not found.all():
            raise KeyError("decay candidate missing its ts_us doc value")
        ts = vals.astype(np.float64)
        d = np.maximum(ts.max() - ts - float(offset_us), 0.0)
        if shape == "gauss":
            lam = math.log(decay) / (float(scale_us) ** 2)
            mult = np.exp(lam * (d * d))
        elif shape == "exp":
            lam = math.log(decay) / float(scale_us)
            mult = np.exp(lam * d)
        elif shape == "linear":
            s = float(scale_us) / (1.0 - decay)
            mult = np.maximum((s - d) / s, 0.0)
        else:
            raise ValueError(shape)
        return self._format_topk(docids, scores * mult, k)

    #: ES query-rescorer defaults: primary weight, rescore weight, window
    RESCORE_QW = 1.0
    RESCORE_RW = 0.5
    RESCORE_WINDOW = 30

    def topk_rescore_query(
        self, query_text: str, k: int, window: int | None = None
    ) -> pd.DataFrame:
        """Query rescorer (ES ``rescore`` with a rescore_query): the
        top-``window`` hits by primary BM25 re-score as ``QW·primary +
        RW·secondary`` where the secondary scorer is the LM-Dirichlet
        query likelihood of the SAME query — the classic two-stage
        retrieval shape (cheap recall pass, better model on a bounded
        window).  Hits outside the window keep their primary score
        unchanged, so a rescore can demote window members below the
        tail — the documented ES behaviour.

        Window membership uses the primary ranking's own order
        (rounded score desc, docid asc — identical to the oracle's
        row_number), and the secondary is candidate-sparse (same terms,
        same postings), so the whole rescore is candidate-bounded.
        Oracle: :func:`rescore_query_topk_sql`.
        """
        window = self.RESCORE_WINDOW if window is None else window
        ids, prim = self._score_bm25(query_text)
        if not len(ids):
            return self._format_topk(ids, prim, k)
        r = round_half_up(prim, RANK_ROUND)
        order = np.lexsort((ids, -r))[:window]
        win = np.zeros(len(ids), bool)
        win[order] = True
        sid, ssc = self._score_lm_dirichlet(query_text)
        sec = np.zeros(len(ids))
        if len(sid):
            pos = np.minimum(np.searchsorted(sid, ids), len(sid) - 1)
            hit = sid[pos] == ids
            sec[hit] = ssc[pos[hit]]
        final = np.where(win, self.RESCORE_QW * prim + self.RESCORE_RW * sec, prim)
        return self._format_topk(ids, final, k)

    def topk_script_score(
        self, query_text: str, k: int, mode: str = "bm25"
    ) -> pd.DataFrame:
        """``function_score`` field_value_factor (ES ``script_score`` /
        ``field_value_factor`` with modifier ``ln1p``, boost mode
        multiply): every candidate's BM25 score is multiplied by
        ``1 + FVF_WEIGHT * ln(1 + turn_idx)`` — a per-document numeric
        field folded into relevance at query time, the third
        function_score flavor next to the gaussian decay
        (:meth:`topk_decayed`) and the additive rank prior
        (``_topk_boosted``).

        The field here is ``turn_idx`` (decoded from the docid itself,
        so the factor needs no doc-value lookup — candidate-bounded
        arithmetic only; a doc-values field would slot in via
        ``self.docvalues().lookup`` exactly like :meth:`topk_decayed`).
        Written ``ln(1.0 + t)`` with the same float64 operand order as
        the SQL mirror.
        """
        docids, scores = self._score_mode(query_text, mode)
        if not len(docids):
            return self._format_topk(docids, scores, k)
        _conv, turn = self.codec.decode(docids)
        factor = 1.0 + self.FVF_WEIGHT * np.log(1.0 + turn.astype(np.float64))
        return self._format_topk(docids, scores * factor, k)

    def _conv_best(self, docids: np.ndarray, scores: np.ndarray):
        """Per-conversation best turn (rounded score desc, turn asc) —
        the collapsed-mode kernel, returned as (conv index into the
        codec, best turn docid, best rounded score), conv-ascending."""
        ci = np.searchsorted(self.codec.bases, docids, side="right") - 1
        r = round_half_up(scores, RANK_ROUND)
        order = np.lexsort((docids, -r, ci))
        first = np.empty(len(order), bool)
        first[0] = True
        first[1:] = ci[order][1:] != ci[order][:-1]
        sel = order[first]
        return ci[sel], docids[sel], r[sel]

    def topk_has_child(
        self, user_text: str, assistant_text: str, k: int
    ) -> pd.DataFrame:
        """Conversation-level retrieval from two child clauses (the ES
        parent-child ``has_child`` shape over the transcript hierarchy):
        a conversation matches when SOME user turn matches
        ``user_text`` AND SOME assistant turn matches
        ``assistant_text``; its score is the sum of each clause's best
        matching-turn BM25 (``score_mode=max`` per clause).  Roles
        resolve from the ``role`` doc value, so the clause filter is
        engine metadata, not a corpus-layout assumption.  Candidate-
        bounded throughout (two accumulator passes + per-conv run
        maxima); ties break conv-ascending.  Oracle:
        :func:`has_child_topk_sql`."""
        dv = self.docvalues()
        legs = []
        for text, role in ((user_text, "user"), (assistant_text, "assistant")):
            docids, scores = self._score_bm25(text)
            if len(docids):
                roles, found = dv.lookup(docids, "role")
                keep = found & (roles == role)
                docids, scores = docids[keep], scores[keep]
            if not len(docids):
                legs = None
                break
            legs.append(self._conv_best(docids, scores))
        if legs is None:
            return pd.DataFrame(
                {
                    "rank": np.empty(0, np.int32),
                    "conv_id": [],
                    "score": np.empty(0, np.float64),
                    "user_score": np.empty(0, np.float64),
                    "assistant_score": np.empty(0, np.float64),
                }
            )
        (ci1, d1, r1), (ci2, _d2, r2) = legs
        _common, i1, i2 = np.intersect1d(
            ci1, ci2, assume_unique=True, return_indices=True
        )
        total = r1[i1] + r2[i2]
        conv, _turn = self.codec.decode(d1[i1])
        order = np.lexsort((conv, -total))[:k]
        return pd.DataFrame(
            {
                "rank": np.arange(1, len(order) + 1, dtype=np.int32),
                "conv_id": conv[order],
                "score": round_half_up(total[order], SCORE_ROUND),
                "user_score": round_half_up(r1[i1][order], SCORE_ROUND),
                "assistant_score": round_half_up(r2[i2][order], SCORE_ROUND),
            }
        )

    def topk_has_parent(
        self, parent_text: str, child_text: str, k: int
    ) -> pd.DataFrame:
        """Turn-level retrieval filtered by the conversation's OTHER
        side (the ES ``has_parent`` complement of
        :meth:`topk_has_child`): return ASSISTANT turns matching
        ``child_text``, restricted to conversations where SOME user
        turn matches ``parent_text``; scored by the child turn's own
        BM25 (the parent clause is filter context, ES
        ``score=false``).  "Assistant replies about X where the user
        asked about Y."  Candidate-bounded: two accumulator passes,
        conv membership via the decoded candidate conv ids — never a
        corpus scan.  Oracle: :func:`has_parent_topk_sql`."""
        dv = self.docvalues()
        empty = pd.DataFrame(
            {
                "rank": np.empty(0, np.int32),
                "conv_id": [],
                "turn_idx": np.empty(0, np.int32),
                "score": np.empty(0, np.float64),
            }
        )
        pids, _ps = self._score_bm25(parent_text)
        if len(pids):
            roles, found = dv.lookup(pids, "role")
            pids = pids[found & (roles == "user")]
        if not len(pids):
            return empty
        pconv = np.unique(self.codec.decode(pids)[0])
        cids, cs = self._score_bm25(child_text)
        if len(cids):
            roles, found = dv.lookup(cids, "role")
            keep = found & (roles == "assistant")
            cids, cs = cids[keep], cs[keep]
        if not len(cids):
            return empty
        cconv, _ct = self.codec.decode(cids)
        keep = np.isin(cconv, pconv)
        return self._format_topk(cids[keep], cs[keep], k)

    def topk_sorted(
        self,
        query_text: str,
        k: int,
        clauses=(),
        field: str = "ts_us",
        desc: bool = True,
    ) -> pd.DataFrame:
        """Match-any candidates ordered by a doc-values field (ES
        ``sort``; recency search when field=ts_us desc).  Candidate-
        bounded: only the matching docs' values are looked up; ties
        break on docid ascending — the (conv_id, turn_idx) order, which
        the SQL mirror reproduces.

        When the doc-values build PROVED ts_us nondecreasing in docid
        (the Lucene index-sort property; ``DocValues.ts_monotone``) and
        no filter clauses apply, ts-sorted queries early-terminate:
        the winners form a docid-extreme run of the candidate list, so
        only ~k values are ever looked up (:meth:`_topk_sorted_early`)
        instead of the whole candidate set — the index-sorting
        optimization that makes "latest matching turns" O(k) at any
        corpus size.  Rank-identical (pytest-pinned); a corpus whose ts
        order was disproven at build time falls back transparently.
        """
        self.last_trace = QueryTrace()
        if field == "ts_us" and not clauses and self.docvalues().ts_monotone:
            return self._topk_sorted_early(query_text, k, desc)
        docids, vals = self._sorted_candidates(query_text, clauses, field)
        if not len(docids):
            return pd.DataFrame(
                {
                    "rank": np.empty(0, np.int32),
                    "conv_id": [],
                    "turn_idx": np.empty(0, np.int32),
                    field: np.empty(0, np.int64),
                }
            )
        key = -vals if desc else vals
        return self._format_sorted(docids, vals, key, k, field)

    def _topk_sorted_early(self, query_text: str, k: int, desc: bool) -> pd.DataFrame:
        """Index-sorted early termination for ts-sorted queries.

        With ts nondecreasing in docid, the top-k by (ts desc, docid
        asc) all carry ts >= b where b is the ts of the k-th found
        value scanning inward from the docid-extreme end — a contiguous
        docid suffix (prefix for ascending).  The boundary tie-run may
        extend to smaller docids (docid ASC wins ties), so the scan
        continues in doubling probes until a value beyond b appears;
        the exact small sort then runs over window+run only.  Lookup
        cost: k + tie-run + probe overshoot — never candidate-set-sized.

        Missing-value contract (shared with :meth:`_sorted_candidates`,
        pytest-pinned): candidates with no stored doc value are silently
        excluded from field-sorted results — the scan skips them and
        keeps probing, so both paths return the same filtered ranking.
        """
        docids, _ = self._score_bm25(query_text)
        dv = self.docvalues()
        empty = pd.DataFrame(
            {
                "rank": np.empty(0, np.int32),
                "conv_id": [],
                "turn_idx": np.empty(0, np.int32),
                "ts_us": np.empty(0, np.int64),
            }
        )
        if not len(docids) or k <= 0:
            return empty
        n = len(docids)
        take = min(k, n)
        # outward-in scan: fill the top-`take` window from the extreme
        # end (found values arrive monotone non-improving), then extend
        # through the boundary tie-run
        ext_ids: list[np.ndarray] = []
        ext_vals: list[np.ndarray] = []
        got = 0
        b = None  # boundary value once the window is full
        pos = n if desc else 0  # frontier of unprobed candidates
        step = max(k, 1)
        crossed = False
        while not crossed and ((pos > 0) if desc else (pos < n)):
            if desc:
                nxt = max(0, pos - step)
                chunk = docids[nxt:pos][::-1]  # extreme end first
            else:
                nxt = min(n, pos + step)
                chunk = docids[pos:nxt]
            pos = nxt
            cv, cf = dv.lookup(chunk, "ts_us")
            cids, cv = chunk[cf], cv[cf].astype(np.int64)
            if b is None:
                fill = min(take - got, len(cids))
                ext_ids.append(cids[:fill])
                ext_vals.append(cv[:fill])
                got += fill
                cids, cv = cids[fill:], cv[fill:]
                if got == take:
                    b = int(ext_vals[-1][-1])  # k-th found value
                else:
                    step *= 2
                    continue
            keep = cv == b  # only boundary ties can still matter
            ext_ids.append(cids[keep])
            ext_vals.append(cv[keep])
            # a found value beyond the boundary ends the tie-run
            crossed = bool(((cv < b) if desc else (cv > b)).any())
            step *= 2
        if not ext_ids:
            return empty
        ids = np.concatenate(ext_ids)
        vs = np.concatenate(ext_vals)
        if not len(ids):
            return empty
        key = -vs if desc else vs
        return self._format_sorted(ids, vs, key, k, "ts_us")

    def _sorted_candidates(self, query_text: str, clauses, field: str):
        """Shared head of the sorted modes: match-any candidates,
        clause-filtered, with their doc-value sort keys."""
        docids, _ = self._score_bm25(query_text)
        dv = self.docvalues()
        if len(docids) and clauses:
            docids = docids[dv.mask(docids, clauses)]
        vals, found = dv.lookup(docids, field)
        return docids[found], vals[found].astype(np.int64)

    def _format_sorted(self, docids, vals, key, k: int, field: str) -> pd.DataFrame:
        """Ranking tail of the sorted modes: boundary-tight partial
        top-k in (key asc, docid asc) order, decode, emit."""
        if k <= 0 or not len(docids):
            return pd.DataFrame(
                {
                    "rank": np.empty(0, np.int32),
                    "conv_id": [],
                    "turn_idx": np.empty(0, np.int32),
                    field: np.empty(0, np.int64),
                }
            )
        if len(docids) > k:
            top = np.argpartition(key, k - 1)[:k]
            boundary = np.max(key[top])
            cand = np.nonzero(key <= boundary)[0]
        else:
            cand = np.arange(len(docids))
        order = np.lexsort((docids[cand], key[cand]))[:k]
        sel = cand[order]
        conv, turn = self.codec.decode(docids[sel])
        return pd.DataFrame(
            {
                "rank": np.arange(1, len(sel) + 1, dtype=np.int32),
                "conv_id": conv,
                "turn_idx": turn,
                field: vals[sel],
            }
        )

    def topk_sorted_after(
        self,
        query_text: str,
        k: int,
        after: tuple[str, int],
        clauses=(),
        field: str = "ts_us",
        desc: bool = True,
    ) -> pd.DataFrame:
        """Cursor pagination over a SORT order (ES ``search_after`` with
        a field sort): hits strictly after ``after = (conv_id,
        turn_idx)`` in the (field dir, docid asc) order, re-ranked 1..k.
        Same determinism contract as :meth:`topk_after`: the cursor must
        be a hit of this query or KeyError."""
        self.last_trace = QueryTrace()
        docids, vals = self._sorted_candidates(query_text, clauses, field)
        cursor = int(
            self.codec.encode(np.array([after[0]]), np.array([after[1]]))[0]
        )
        pos = np.searchsorted(docids, cursor)
        if pos >= len(docids) or docids[pos] != cursor:
            raise KeyError(f"cursor {after} is not a hit of this query")
        key = -vals if desc else vals
        ck = key[pos]
        keep = (key > ck) | ((key == ck) & (docids > cursor))
        return self._format_sorted(
            docids[keep], vals[keep], key[keep], k, field
        )

    def topk_collapsed(
        self, query_text: str, k: int, mode: str = "bm25"
    ) -> pd.DataFrame:
        """Field collapsing (ES ``collapse`` on the conversation key):
        keep each conversation's single best turn — (rounded score
        desc, turn asc) within the conversation — then rank the
        collapsed set globally.  One result per conversation; the
        all-turns-of-one-conv pileup a plain top-k can produce is
        gone.  Vectorized: conversation index via one searchsorted over
        the codec bases, best-per-conv via lexsort + run detection."""
        docids, scores = self._score_mode(query_text, mode)
        if not len(docids):
            return self._format_topk(docids, scores, k)
        ci = np.searchsorted(self.codec.bases, docids, side="right") - 1
        r = round_half_up(scores, RANK_ROUND)
        # within a conversation: best rounded score first, then docid
        # (== turn) ascending; first row of each conv run wins
        order = np.lexsort((docids, -r, ci))
        first = np.empty(len(order), bool)
        first[0] = True
        first[1:] = ci[order][1:] != ci[order][:-1]
        sel = order[first]
        return self._format_topk(docids[sel], scores[sel], k)

    def topk_phrase_prefix(
        self, query_text: str, k: int, max_expansions: int | None = None
    ) -> pd.DataFrame:
        """match_phrase_prefix (the ES autocomplete phrase query): the
        final token is a prefix — it expands to its df-capped
        dictionary terms (:meth:`expand_prefix`, (df desc, term asc))
        and each expansion completes the phrase; a document matches
        when ANY completed phrase occurs (adjacent, in order) and
        scores the MAX over its matching completions' phrase scores
        (each the conjunctive BM25 of that completion's terms at
        SCORE_ROUND — :meth:`topk_phrase`'s emitted contract, so the
        two modes agree by construction).  No expansion, or an
        unmatched fixed part, yields no results.  Requires a doc-store.
        Oracle: :func:`phrase_prefix_topk_sql`."""
        toks, _r = normalize.tokenize_column(pa.array([query_text]), "body")
        toks = toks.tolist()
        empty = pd.DataFrame(
            {
                "rank": np.empty(0, np.int32),
                "conv_id": [],
                "turn_idx": np.empty(0, np.int32),
                "score": [],
            }
        )
        if not toks:
            return empty
        fixed, last = toks[:-1], toks[-1]
        parts = []
        for e in self.expand_prefix(last, max_expansions=max_expansions):
            hit = self.topk_phrase(" ".join(fixed + [e]), 10**9)
            if len(hit):
                parts.append(hit[["conv_id", "turn_idx", "score"]])
        if not parts:
            return empty
        best = (
            pd.concat(parts, ignore_index=True)
            .groupby(["conv_id", "turn_idx"], as_index=False)["score"]
            .max()
        )
        docids = self.codec.encode(
            best["conv_id"].to_numpy(), best["turn_idx"].to_numpy(np.int64)
        )
        return self._format_topk(docids, best["score"].to_numpy(np.float64), k)

    def _score_bm25(self, query_text: str):
        toks, _ = normalize.tokenize_column(pa.array([query_text]), "body")
        return self._score_bm25_terms(sorted(set(toks.tolist())))

    def _score_bm25_terms(self, terms, weights=None):
        """Disjunctive BM25 accumulation over an explicit (distinct,
        sorted) body-field term list — the core shared by plain ``bm25``
        and the expansion modes (``bm25_wild`` / ``bm25_fuzzy`` / MLT).
        ``weights`` (parallel to ``terms``) multiplies each term's
        contribution — the ``bm25_boost`` per-term boost path."""
        fd = self._dict.get("text")
        tr = self.last_trace
        tr.terms += len(terms)
        matched = []  # (position in terms, vocabulary rank, run indexes)
        for i, t in enumerate(terms if fd is not None else ()):
            r = fd.rank_of(t)
            if r < 0:
                continue
            s, e = int(fd.run_start[r]), int(fd.run_start[r + 1])
            tr.terms_matched += 1
            tr.runs_total += e - s
            if s < e:
                matched.append((i, r, range(s, e)))
        if self._dense(fd, [r for _i, r, _idxs in matched]):
            return self._scratch.sum_runs(self._term_runs(fd, matched, weights))
        id_chunks, sc_chunks = [], []
        for i, r, idxs in matched:
            docids, sc = self._scored_postings(fd, r, idxs)
            if weights is not None:
                sc *= float(weights[i])
            id_chunks.append(docids)
            sc_chunks.append(sc)
        return _accumulate(id_chunks, sc_chunks)

    def _dense(self, fd: _FieldDict, ranks) -> bool:
        """Whether the terms at vocabulary ``ranks`` (each with runs)
        accumulate densely: two terms or more whose postings (Σdf, from
        the dictionary, before decoding) cover at least 1/8 of their
        docid span (:func:`_dense_enough`), decided before any run is
        decoded."""
        if len(ranks) < 2:
            return False
        runs = [range(int(fd.run_start[r]), int(fd.run_start[r + 1])) for r in ranks]
        lo = min(int(fd.first_docid[idxs.start]) for idxs in runs)
        hi = max(int(fd.last_docid[idxs.start : idxs.stop].max()) for idxs in runs)
        return hi < self.codec.span and _dense_enough(int(fd.df[ranks].sum()), lo, hi)

    def _term_runs(self, fd: _FieldDict, matched, weights=None):
        """(docids, BM25 scores) of every run of the ``matched`` terms,
        in chunk order (terms as given, runs in docid order), each run's
        scores times its term's weight; a pair is valid until the next."""
        for i, r, idxs in matched:
            for docids, sc in self._run_scores(fd, r, idxs):
                if weights is not None:
                    sc *= float(weights[i])
                yield docids, sc

    #: wildcard-expansion cap per prefix (the Lucene PrefixQuery rewrite
    #: bound, deliberately small so the deterministic (df desc, term asc)
    #: cut is exercised at test scale; production callers pass their own).
    #: Selection by df is SQL-mirrorable, unlike insertion-order caps.
    MAX_EXPANSIONS = 4

    def expand_prefix(
        self, prefix: str, field: str = "text", max_expansions: int | None = None
    ) -> list[str]:
        """Vocabulary terms starting with ``prefix``, capped to the
        ``max_expansions`` highest-df (ties: term asc), returned sorted.

        Two binary searches bound the dictionary range
        (``_FieldDict.prefix_range``) and the df cut is a vectorized
        argsort of the range slice — cost is O(log V + R log R) for R
        matching terms, never a vocabulary scan.  The reference has no
        wildcard queries (SearchServer.java tokenizes to exact terms
        only); this is the standard boolean-retrieval extension its
        sorted term dictionary makes cheap.
        """
        cap = self.MAX_EXPANSIONS if max_expansions is None else max_expansions
        fd = self._dict.get(field)
        if fd is None or not prefix:
            return []
        lo, hi = fd.prefix_range(prefix)
        if lo >= hi:
            return []
        order = np.argsort(-fd.df[lo:hi], kind="stable")[:cap]
        return sorted(fd.terms[lo + int(i)].as_py() for i in order)

    def _score_bm25_wildcard(self, query_text: str):
        """Trailing-``*`` prefix queries: each prefix expands to its
        df-capped dictionary terms (:meth:`expand_prefix`), the union
        with the exact terms scores disjunctively with real per-term
        idf — Lucene's PrefixQuery→OR rewrite, not the constant-score
        variant, so the DuckDB oracle can reproduce scores exactly."""
        exact, prefixes, suffixes = parse_wildcard_query(query_text)
        terms = set(exact)
        for p in prefixes:
            terms.update(self.expand_prefix(p))
        for s in suffixes:
            terms.update(self.expand_suffix(s))
        return self._score_bm25_terms(sorted(terms))

    def expand_suffix(
        self, suffix: str, field: str = "text", max_expansions: int | None = None
    ) -> list[str]:
        """Vocabulary terms ending with ``suffix`` (leading-wildcard
        ``*fix`` patterns), capped to the ``max_expansions`` highest-df
        (ties: term asc), returned sorted.

        A leading wildcard cannot exploit the dictionary's sort order,
        so this is one vectorized Arrow pass (``pc.ends_with`` over the
        term array) per query suffix — actor-local, no cluster traffic.
        At the 100M-term design point the standard fix is a second
        dictionary of reversed terms (Lucene's ReversedWildcardFilter),
        which turns this into the same two binary searches as
        :meth:`expand_prefix`; documented rather than built because the
        dictionary is the smallest index structure and the pass is
        vectorized.
        """
        import pyarrow.compute as pc

        cap = self.MAX_EXPANSIONS if max_expansions is None else max_expansions
        fd = self._dict.get(field)
        if fd is None or not suffix:
            return []
        mask = pc.ends_with(fd.terms, pattern=suffix).to_numpy(zero_copy_only=False)
        idxs = np.nonzero(mask)[0]
        if not len(idxs):
            return []
        order = np.argsort(-fd.df[idxs], kind="stable")[:cap]
        return sorted(fd.terms[int(idxs[i])].as_py() for i in order)

    def expand_regex(
        self, pattern: str, field: str = "text", max_expansions: int | None = None
    ) -> list[str]:
        """Vocabulary terms fully matching ``pattern`` (Lucene
        RegexpQuery), capped to the ``max_expansions`` highest-df
        (ties: term asc), returned sorted.

        One vectorized RE2 pass over the dictionary's Arrow term array
        (``pc.match_substring_regex`` with explicit ``^(?:…)$``
        anchors) — actor-local, like :meth:`expand_suffix`.  Both
        Arrow and DuckDB (``regexp_full_match``) evaluate RE2, so the
        oracle reproduces the match set exactly.  The 100M-term design
        point is the standard automaton-intersection walk over the
        sorted dictionary (Lucene's approach); the vectorized scan is
        the right trade while the dictionary is the smallest index
        structure.
        """
        import pyarrow.compute as pc

        cap = self.MAX_EXPANSIONS if max_expansions is None else max_expansions
        fd = self._dict.get(field)
        if fd is None or not pattern:
            return []
        mask = pc.match_substring_regex(
            fd.terms, pattern=f"^(?:{pattern})$"
        ).to_numpy(zero_copy_only=False)
        idxs = np.nonzero(mask)[0]
        if not len(idxs):
            return []
        order = np.argsort(-fd.df[idxs], kind="stable")[:cap]
        return sorted(fd.terms[int(idxs[i])].as_py() for i in order)

    def _score_bm25_regex(self, query_text: str):
        """Regexp retrieval: each whitespace-separated pattern expands
        to its df-capped full-match dictionary terms
        (:meth:`expand_regex`); the deduped union scores disjunctively
        with real per-term idf — the RegexpQuery→OR rewrite, mirroring
        :meth:`_score_bm25_wildcard`."""
        terms = set()
        for pat in query_text.split():
            terms.update(self.expand_regex(pat))
        return self._score_bm25_terms(sorted(terms))

    #: fuzzy-match edit-distance bound (Lucene FuzzyQuery's default) and
    #: its own expansion cap — smaller than MAX_EXPANSIONS so the
    #: exact-term-survives-the-cap rule is exercisable on the synthetic
    #: vocabulary (a term's d<=2 neighborhood tops out at 4 there).
    MAX_FUZZY_DIST = 2
    MAX_FUZZY_EXPANSIONS = 2

    def expand_fuzzy(
        self,
        term: str,
        field: str = "text",
        max_dist: int | None = None,
        max_expansions: int | None = None,
        vocab: list | None = None,
    ) -> list[str]:
        """Dictionary terms within ``max_dist`` unit-cost edits of
        ``term``, capped to the ``max_expansions`` highest-df (ties:
        term asc) — plus ``term`` itself whenever it is in the
        dictionary, even when the df cut would drop it (the distance-0
        match must never lose to its own neighbors).  Returned sorted.

        Same length-difference-pruned dictionary scan as
        :meth:`suggest_terms` (and the same 100M-term design point: a
        length/prefix-bucketed pass or BK-tree over the sorted
        vocabulary, actor-local).  The selection rule is (df desc,
        term asc) so the DuckDB oracle can re-derive it exactly.
        """
        dist = self.MAX_FUZZY_DIST if max_dist is None else max_dist
        cap = self.MAX_FUZZY_EXPANSIONS if max_expansions is None else max_expansions
        fd = self._dict.get(field)
        if fd is None or not term:
            return []
        # callers probing several terms (the fuzzy scorer) materialize
        # the vocabulary ONCE and pass it in — never once per term
        if vocab is None:
            vocab = fd.terms.to_pylist()
        cands = []
        for i, t in enumerate(vocab):
            if abs(len(t) - len(term)) > dist:
                continue
            if _levenshtein(term, t) <= dist:
                cands.append((-int(fd.df[i]), t))
        keep = {t for _, t in sorted(cands)[:cap]}
        if any(t == term for _, t in cands):
            keep.add(term)
        return sorted(keep)

    def _score_bm25_fuzzy(self, query_text: str):
        """Fuzzy retrieval: every (distinct, body-tokenized) query term
        expands to its edit-distance-bounded dictionary neighborhood
        (:meth:`expand_fuzzy`) and the union scores disjunctively with
        real per-term idf — Lucene's FuzzyQuery→OR scoring rewrite,
        applied to in-vocabulary terms too (their neighbors match, at
        their own idf), exactly as Lucene does."""
        toks, _ = normalize.tokenize_column(pa.array([query_text]), "body")
        qterms = sorted(set(toks.tolist()))
        terms: set[str] = set()
        if qterms:
            fd = self._dict.get("text")
            vocab = fd.terms.to_pylist() if fd is not None else []
            for t in qterms:
                terms.update(self.expand_fuzzy(t, vocab=vocab))
        return self._score_bm25_terms(sorted(terms))

    #: more-like-this query-term budget (Lucene MoreLikeThis
    #: maxQueryTerms-style cap) — selection by rounded tf·idf desc,
    #: term asc, so the SQL oracle re-derives the cut exactly.
    MLT_TERMS = 5

    def more_like_this(
        self, conv_id: str, turn_idx: int, k: int = 10, max_terms: int | None = None
    ) -> pd.DataFrame:
        """Similar-document retrieval: fetch the source turn's stored
        text from the doc-store (point lookup — the index must carry a
        docstore companion), select its ``max_terms`` highest-tf·idf
        body terms (idf = the BM25 idf; ties: rounded score desc, term
        asc), score the corpus disjunctively with the standard BM25
        chain, and return the top-k *excluding the source itself* —
        Lucene's MoreLikeThis over a stored field, reconstructed from
        this engine's own primitives.  Oracle: :func:`mlt_sql`.
        """
        from .docstore import DocStore

        cap = self.MLT_TERMS if max_terms is None else max_terms
        docid = int(self.codec.encode(np.array([conv_id]), np.array([turn_idx]))[0])
        if self._docstore is None:
            self._docstore = DocStore(self.index_dir)
        text = self._docstore.texts(np.array([docid], np.int64))[0]
        if not text:
            raise KeyError(f"no stored text for ({conv_id}, {turn_idx})")
        toks, _ = normalize.tokenize_column(pa.array([text]), "body")
        terms_u, tf = np.unique(toks, return_counts=True)
        fd = self._dict.get("text")
        gs = self.global_stats["text"]
        sel = []
        for t, f in zip(terms_u.tolist(), tf.tolist()):
            r = fd.rank_of(t) if fd is not None else -1
            if r < 0:
                continue
            df = int(fd.df[r])
            idf = np.log(1.0 + (gs["N"] - df + 0.5) / (df + 0.5))
            sel.append((-round_half_up(np.float64(f * idf), RANK_ROUND), t))
        terms = sorted(t for _, t in sorted(sel)[:cap])
        ids, totals = self._score_bm25_terms(terms)
        keep = ids != docid
        return self._format_topk(ids[keep], totals[keep], k)

    def _score_bm25_conjunctive(self, query_text: str):
        """AND semantics: only documents containing EVERY (distinct,
        body-tokenized) query term score; scores are the same BM25 sums
        as :meth:`_score_bm25` restricted to the intersection.

        The reference ranker is purely disjunctive
        (``SearchServer.java:123-151`` accumulates per-term hits); AND
        is the standard boolean-retrieval complement.  Intersection
        runs rarest-term-first over the sorted docid arrays
        (``np.intersect1d`` on unique sorted inputs — the merge-based
        equivalent of galloping intersection), so the working set never
        exceeds the smallest posting list.
        """
        empty = np.empty(0, np.int64), np.empty(0, np.float64)
        toks, _ = normalize.tokenize_column(pa.array([query_text]), "body")
        terms = sorted(set(toks.tolist()))
        if not terms:
            return empty
        gs = self.global_stats["text"]
        fd = self._dict.get("text")
        if fd is None:
            return empty
        posts = []
        for t in terms:
            post = self.postings(t, "text")
            if post is None:
                return empty  # a missing term empties the conjunction
            posts.append((t, post))
        # rarest first: every later intersection is against <= |smallest|
        posts.sort(key=lambda tp: len(tp[1][0]))
        inter = posts[0][1][0]
        for _t, (docids, _tf, _dl) in posts[1:]:
            inter = np.intersect1d(inter, docids, assume_unique=True)
            if not len(inter):
                return empty
        scores = np.zeros(len(inter), np.float64)
        for t, (docids, tfs, dls) in posts:
            pos = np.searchsorted(docids, inter)
            r = fd.rank_of(t)
            scores += segments.bm25_term_scores(
                tfs[pos], dls[pos], float(fd.idf[r]), gs["avgdl"], self.k1, self.b
            )
        return self._drop_deleted(inter, scores)

    def _score_bm25_boost(self, query_text: str):
        """Per-term boosts (Lucene ``term^2`` syntax): each distinct
        term's BM25 contribution multiplies by its boost; a term given
        several boosts keeps the largest (so unboosted duplicates stay
        == plain bm25's distinct-term semantics)."""
        boosts = parse_boost_query(query_text)
        terms = sorted(boosts)
        return self._score_bm25_terms(terms, [boosts[t] for t in terms])

    def _score_bm25_boolean(self, query_text: str, min_should_match: int = 0):
        """Lucene-BooleanQuery semantics: ``+term`` MUST, ``-term``
        MUST_NOT, bare terms SHOULD.  A document qualifies when it
        contains every MUST term and no MUST_NOT term; it scores the
        plain BM25 sum over the (MUST ∪ SHOULD) terms it contains.  A
        query with no positive terms matches nothing (Lucene's
        pure-negative rule); a MUST term absent from the dictionary
        empties the result; a +t -t contradiction empties it too (both
        fall out of the set algebra, no special cases)."""
        must, must_not, should = parse_boolean_query(query_text)
        positive = sorted(set(must) | set(should))
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        if not positive:
            return empty
        ids, totals = self._score_bm25_terms(positive)
        if not len(ids):
            return empty
        keep = np.ones(len(ids), bool)
        for t in must:
            post = self.postings(t, "text")
            if post is None:
                return empty
            keep &= np.isin(ids, post[0], assume_unique=True)
        for t in must_not:
            post = self.postings(t, "text")
            if post is not None:
                keep &= ~np.isin(ids, post[0], assume_unique=True)
        if min_should_match > 0:
            cnt = np.zeros(len(ids), np.int64)
            for t in should:
                post = self.postings(t, "text")
                if post is not None:
                    cnt += np.isin(ids, post[0], assume_unique=True)
            keep &= cnt >= min_should_match
        return ids[keep], totals[keep]

    def topk_min_should(
        self, query_text: str, k: int, min_should_match: int
    ) -> pd.DataFrame:
        """Boolean retrieval with ES ``minimum_should_match``: on top of
        the MUST / MUST_NOT algebra, a document must also match at
        least ``min_should_match`` of the SHOULD terms.  0 reduces to
        the plain ``bm25_bool`` mode (pytest-pinned); a floor above the
        SHOULD count matches nothing.  Oracle: :func:`msm_topk_sql`."""
        docids, scores = self._score_bm25_boolean(query_text, min_should_match)
        return self._format_topk(docids, scores, k)

    #: BM25F field weights (text is the body; tool hits count double —
    #: the structured field is the stronger signal)
    BM25F_WEIGHTS = (("text", 1.0), ("tool", 2.0))

    def _score_bm25f(self, query_text: str):
        """Weighted multi-field BM25 (BM25F, Robertson/Zaragoza 2004 in
        its simple per-field-sum form): score(d) = Σ_f w_f · BM25_f(d),
        each field scored with its own tokenizer mode, df, idf and
        avgdl.  The reference's two parallel indexes + weighted add
        (``SearchServer.java:123,140`` — 1.5·text + 1.0·tool on binary
        hits) is the degenerate version; this is the tf-aware one.
        """
        id_chunks, sc_chunks = [], []
        for field, weight in self.BM25F_WEIGHTS:
            fd = self._dict.get(field)
            if fd is None:
                continue
            mode = self.field_modes.get(field, "body")
            toks, _ = normalize.tokenize_column(pa.array([query_text]), mode)
            gs = self.global_stats[field]
            for t in sorted(set(toks.tolist())):
                r = fd.rank_of(t)
                if r < 0:
                    continue
                post = self.postings(t, field)
                if post is None:
                    continue
                docids, tfs, dls = post
                sc = weight * segments.bm25_term_scores(
                    tfs, dls, float(fd.idf[r]), gs["avgdl"], self.k1, self.b
                )
                id_chunks.append(docids)
                sc_chunks.append(sc)
        ids, totals = _accumulate(id_chunks, sc_chunks)
        return self._drop_deleted(ids, totals)

    #: dis_max tie breaker: the best field wins, other fields
    #: contribute this fraction (Lucene DisjunctionMaxQuery default
    #: idiom; 0 = pure max, 1 = plain sum == unweighted BM25F)
    DIS_MAX_TIE = 0.3

    def _score_dis_max(self, query_text: str, tie: float | None = None):
        """Disjunction-max over per-field BM25 (the ES ``dis_max`` /
        ``multi_match best_fields`` scorer): for each doc,
        ``score = max_f BM25_f + tie · Σ_{f≠best} BM25_f``.  Where
        BM25F rewards matching EVERY field (sum), best_fields ranks by
        the single field that matches best — the right semantics when
        fields are alternative descriptions (text vs tool name) rather
        than cumulative evidence.  Fields score unweighted with their
        own tokenizer/df/avgdl, exactly as in :meth:`_score_bm25f`.
        """
        if tie is None:
            tie = self.DIS_MAX_TIE
        per_field = []
        for field, _w in self.BM25F_WEIGHTS:
            fd = self._dict.get(field)
            if fd is None:
                continue
            mode = self.field_modes.get(field, "body")
            toks, _ = normalize.tokenize_column(pa.array([query_text]), mode)
            gs = self.global_stats[field]
            id_chunks, sc_chunks = [], []
            for t in sorted(set(toks.tolist())):
                r = fd.rank_of(t)
                if r < 0:
                    continue
                post = self.postings(t, field)
                if post is None:
                    continue
                docids, tfs, dls = post
                id_chunks.append(docids)
                sc_chunks.append(
                    segments.bm25_term_scores(
                        tfs, dls, float(fd.idf[r]), gs["avgdl"], self.k1, self.b
                    )
                )
            ids, totals = _accumulate(id_chunks, sc_chunks)
            if len(ids):
                per_field.append((ids, totals))
        if not per_field:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        all_ids = np.unique(np.concatenate([ids for ids, _ in per_field]))
        best = np.zeros(len(all_ids), np.float64)
        tot = np.zeros(len(all_ids), np.float64)
        for ids, sc in per_field:
            pos = np.searchsorted(all_ids, ids)
            np.maximum.at(best, pos, sc)  # BM25 scores are > 0
            tot[pos] += sc
        scores = best + tie * (tot - best)
        return self._drop_deleted(all_ids, scores)

    def _score_most_fields(self, query_text: str):
        """Per-field BM25 summed over ALL matching fields (the ES
        ``multi_match`` ``most_fields`` scorer): where best_fields
        ranks by the single winning field (:meth:`_score_dis_max`) and
        cross_fields by per-term field maxima
        (:meth:`_score_cross_fields`), most_fields treats each field as
        independent cumulative evidence — the right semantics when the
        SAME text is analyzed different ways per field (stemmed vs
        exact) and matching several analyses means a better doc.  The
        sum over unweighted per-field BM25 is exactly the dis_max
        combination at tie == 1.0 (``max + 1.0·(sum − max) == sum``),
        so the scorer delegates; the identity is pytest-pinned.
        """
        return self._score_dis_max(query_text, tie=1.0)

    def _score_cross_fields(self, query_text: str):
        """Term-centric multi-field scoring (ES ``multi_match``
        ``cross_fields``): where best_fields picks one winning FIELD
        per doc (:meth:`_score_dis_max`), cross_fields picks one
        winning field per TERM — ``score = Σ_t max_f BM25_f(t)`` — the
        right semantics when a concept's words are SPLIT across fields
        (e.g. one query term appearing in the text, another in the tool
        name): each term is credited wherever it matches best, and the
        doc still needs them all to score well.  Terms align across
        fields by their token STRING (each field tokenizes the query
        with its own mode, as in BM25F); each (term, field) leg scores
        with that field's own df/avgdl.
        """
        per_term: dict[str, list] = {}
        for field, _w in self.BM25F_WEIGHTS:
            fd = self._dict.get(field)
            if fd is None:
                continue
            mode = self.field_modes.get(field, "body")
            toks, _ = normalize.tokenize_column(pa.array([query_text]), mode)
            gs = self.global_stats[field]
            for t in sorted(set(toks.tolist())):
                r = fd.rank_of(t)
                if r < 0:
                    continue
                post = self.postings(t, field)
                if post is None:
                    continue
                docids, tfs, dls = post
                sc = segments.bm25_term_scores(
                    tfs, dls, float(fd.idf[r]), gs["avgdl"], self.k1, self.b
                )
                per_term.setdefault(t, []).append((docids, sc))
        if not per_term:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        id_chunks, sc_chunks = [], []
        for t in sorted(per_term):
            parts = per_term[t]
            if len(parts) == 1:
                ids, sc = parts[0]
            else:
                ids = np.unique(np.concatenate([i for i, _ in parts]))
                sc = np.zeros(len(ids), np.float64)
                for i, s in parts:
                    np.maximum.at(sc, np.searchsorted(ids, i), s)
            id_chunks.append(ids)
            sc_chunks.append(sc)
        ids, totals = _accumulate(id_chunks, sc_chunks)
        return self._drop_deleted(ids, totals)

    #: safety margin for pruning bounds vs the RANK_ROUND tie boundary —
    #: a skipped doc must be provably below the k-th score even after
    #: 9-decimal rounding
    PRUNE_EPS = 1e-6

    def topk_pruned(self, query_text: str, k: int) -> pd.DataFrame:
        """BM25 top-k with MaxScore pruning — rank-identical to
        :meth:`topk` in ``bm25`` mode (pytest-pinned).

        Term-at-a-time MaxScore (Turtle & Flood 1995): terms are
        processed in descending max-score order, a term's bound being
        its runs' ``max_score`` from ``terms.parquet``; once the
        remaining terms' summed upper bounds fall below the current
        k-th partial score (minus PRUNE_EPS), new documents can no
        longer enter the top-k, so later posting lists only *update*
        accumulated docs — and only their runs whose docid range
        (``first_docid`` / ``last_docid`` in the same dictionary)
        intersects the accumulator.  Runs decode through the index's
        scratch run buffer.

        The update phase is threshold-first (the threshold maintenance
        of SAP, ICDE 2018): before each term, accumulated docs whose
        score plus the remaining terms' bounds stays under theta are
        dropped, and the term's runs update only the survivors: binary
        searched into each run's docids, or, when the survivors number
        at least 1/8 of the runs' postings, looked up in the scratch's
        dense arrays (:meth:`_QueryScratch.update`).  A term
        whose runs overlap (a docid in two runs) is bounded by the sum
        of its run maxima, and its postings are added run by run.

        The engine's one pruned top-k: it answers both ``bm25_pruned``
        and ``bm25_bmw``.  Skipped runs show in :attr:`last_trace` as
        ``runs_decoded < runs_total``.
        """
        if self._tuned:
            raise ValueError(
                "topk_pruned requires the build-time k1/b: the stored "
                "run max_score bounds were computed under them and are "
                "not valid upper bounds for tuned parameters"
            )
        toks, _ = normalize.tokenize_column(pa.array([query_text]), "body")
        terms = sorted(set(toks.tolist()))
        fd = self._dict.get("text")
        tr = self.last_trace
        tr.terms += len(terms)
        infos = []
        if fd is not None:
            for t in terms:
                r = fd.rank_of(t)
                if r < 0:
                    continue
                s, e = int(fd.run_start[r]), int(fd.run_start[r + 1])
                tr.terms_matched += 1
                tr.runs_total += e - s
                if e > s:
                    infos.append((t, r, _term_bound(fd, s, e)))
        infos.sort(key=lambda x: (-x[2], x[0]))
        tail = np.concatenate(
            [np.cumsum([m for _t, _r, m in infos][::-1])[::-1], [0.0]]
        ) if infos else np.array([0.0])

        ranks = [r for _t, r, _m in infos]
        dense = self._dense(fd, ranks)
        acc_ids, acc_sc = np.empty(0, np.int64), np.empty(0)
        theta = -np.inf
        for i, rank in enumerate(ranks):
            s, e = int(fd.run_start[rank]), int(fd.run_start[rank + 1])
            if len(acc_ids) >= k:
                theta = _theta(acc_sc, k)
            if tail[i] + self.PRUNE_EPS >= theta:
                # essential term: any of its postings may enter the top-k.
                # Deletes are masked BEFORE accumulating: a tombstoned doc
                # must never raise theta (that could prune a live document)
                acc_ids, acc_sc = self._add_term(fd, acc_ids, acc_sc, rank, dense)
            else:
                # a doc that cannot reach theta even with every remaining
                # term's bound can never enter the top-k: drop it (theta
                # is unchanged: at least k docs score >= theta)
                live = acc_sc + tail[i] + self.PRUNE_EPS >= theta
                if not live.all():
                    acc_ids, acc_sc = acc_ids[live], acc_sc[live]
                # run-level skip: decode only runs whose docid range
                # contains an accumulated doc (first/last bounds from the
                # segment dictionary), and update only the docs in it.
                # Run by run in docid order, so a doc in two overlapping
                # runs gains each occurrence in turn.
                lo = np.searchsorted(acc_ids, fd.first_docid[s:e], side="left")
                hi = np.searchsorted(acc_ids, fd.last_docid[s:e], side="right")
                hit_runs = np.flatnonzero(lo < hi)
                runs = self._run_scores(fd, rank, s + hit_runs)
                if 8 * len(acc_ids) >= int(fd.run_df[s + hit_runs].sum()):
                    # survivors dense among the postings: look them up
                    # in the scratch's dense arrays, not by binary search
                    acc_sc = self._scratch.update(acc_ids, acc_sc, runs)
                else:
                    for j, (docids, sc) in zip(hit_runs, runs):
                        if not len(docids):
                            continue
                        ids, scs = acc_ids[lo[j] : hi[j]], acc_sc[lo[j] : hi[j]]
                        pos = np.minimum(np.searchsorted(docids, ids), len(docids) - 1)
                        hit = docids[pos] == ids
                        scs[hit] += sc[pos[hit]]
        return self._format_topk(acc_ids, acc_sc, k)

    def _add_term(self, fd: _FieldDict, acc_ids, acc_sc, rank: int, dense: bool):
        """(``acc_ids``, ``acc_sc``) plus every posting's BM25 score of the
        text-field term at vocabulary ``rank`` -> (sorted distinct docids,
        totals): a MaxScore essential term.  A ``dense`` query sums in
        the scratch's dense accumulator; a first term is its own sorted
        answer."""
        idxs = range(int(fd.run_start[rank]), int(fd.run_start[rank + 1]))
        if dense and len(acc_ids):
            runs = itertools.chain([(acc_ids, acc_sc)], self._run_scores(fd, rank, idxs))
            return self._scratch.sum_runs(runs)
        chunks = [(acc_ids, acc_sc)] if len(acc_ids) else []
        chunks.append(self._scored_postings(fd, rank, idxs))
        return _accumulate([d for d, _ in chunks], [sc for _, sc in chunks])

    def _score_faithful(self, query_text: str):
        # reference loop: raw lowercase whitespace tokens, duplicates kept
        # (SearchServer.java:108); each term adds W_f * ln(N/(1+df)) per
        # posting membership.
        raw = [t for t in query_text.lower().split() if t]
        id_chunks, sc_chunks = [], []
        for field, weight in (("text", 1.5), ("tool", 1.0)):
            N = self.global_stats[field]["N"]
            for t in sorted(raw):
                post = self.postings(t, field)
                if post is None:
                    continue
                docids = post[0]
                df = len(docids)
                idf = np.log(N / (1.0 + df)) if N else 0.0
                id_chunks.append(docids)
                sc_chunks.append(np.full(len(docids), weight * idf))
        # df above is the full-corpus posting length (Lucene semantics:
        # stats ignore tombstones until vacuum); only candidates drop
        ids, totals = _accumulate(id_chunks, sc_chunks)
        return self._drop_deleted(ids, totals)

    def _score_lm_dirichlet(self, query_text: str):
        """Query-likelihood ranking with Dirichlet smoothing (the
        Lucene ``LMDirichletSimilarity`` shape, unclamped): each
        matching (doc, term) contributes

            ln(1 + tf / (mu * (cf / TT))) + ln(mu / (dl + mu))

        with ``cf`` the term's collection frequency, ``TT`` the corpus
        token count and ``mu`` = :data:`LM_MU`.  The second (length
        penalty) part rides per matched term, exactly as Lucene applies
        its norm inside each term's score.  OOV query terms contribute
        nothing — the same sparse-candidate semantics as BM25, so the
        accumulator machinery is reused unchanged.  Collection stats
        (``cf``, ``TT``) come from the dictionary / manifest — no
        corpus access at query time.  Oracle: :func:`lm_topk_sql`.
        """
        toks, _ = normalize.tokenize_column(pa.array([query_text]), "body")
        terms = sorted(set(toks.tolist()))
        gs = self.global_stats["text"]
        fd = self._dict.get("text")
        tt = float(gs["total_tokens"])
        id_chunks, sc_chunks = [], []
        if fd is None or tt <= 0:
            return _accumulate(id_chunks, sc_chunks)
        for t in terms:
            r = fd.rank_of(t)
            if r < 0:
                continue
            s, e = int(fd.run_start[r]), int(fd.run_start[r + 1])
            if s == e:
                continue
            parts = self._decode_runs(fd, range(s, e))
            docids = np.concatenate([p[0] for p in parts])
            tfs = np.concatenate([p[1] for p in parts]).astype(np.float64)
            dls = np.concatenate([p[2] for p in parts]).astype(np.float64)
            cf = float(fd.cf[r])
            sc = np.log(1.0 + tfs / (LM_MU * (cf / tt))) + np.log(
                LM_MU / (dls + LM_MU)
            )
            id_chunks.append(docids)
            sc_chunks.append(sc)
        ids, totals = _accumulate(id_chunks, sc_chunks)
        return self._drop_deleted(ids, totals)

    def _score_tfidf_classic(self, query_text: str):
        """Classic vector-space TF-IDF (the Lucene
        ``ClassicSimilarity`` shape): per matching (doc, term)

            sqrt(tf) * (1 + ln(N / (df + 1)))^2 / sqrt(dl)

        summed per doc, then multiplied by the coordination factor
        ``matched_terms / query_terms`` (OOV terms count in the
        denominator, as Lucene's maxOverlap counts every clause).
        The per-doc match count is a second pass through the same
        accumulator with unit weights — ``np.unique`` orders both
        passes identically, so the arrays align.  Oracle:
        :func:`tfidf_topk_sql`.
        """
        toks, _ = normalize.tokenize_column(pa.array([query_text]), "body")
        terms = sorted(set(toks.tolist()))
        gs = self.global_stats["text"]
        fd = self._dict.get("text")
        id_chunks, sc_chunks, one_chunks = [], [], []
        if fd is None or not terms:
            return _accumulate(id_chunks, sc_chunks)
        n = float(gs["N"])
        for t in terms:
            r = fd.rank_of(t)
            if r < 0:
                continue
            s, e = int(fd.run_start[r]), int(fd.run_start[r + 1])
            if s == e:
                continue
            parts = self._decode_runs(fd, range(s, e))
            docids = np.concatenate([p[0] for p in parts])
            tfs = np.concatenate([p[1] for p in parts]).astype(np.float64)
            dls = np.concatenate([p[2] for p in parts]).astype(np.float64)
            idf_c = 1.0 + np.log(n / (float(fd.df[r]) + 1.0))
            sc = np.sqrt(tfs) * (idf_c * idf_c) / np.sqrt(dls)
            id_chunks.append(docids)
            sc_chunks.append(sc)
            one_chunks.append(np.ones(len(docids)))
        ids, totals = _accumulate(id_chunks, sc_chunks)
        if len(ids):
            _, matches = _accumulate(id_chunks, one_chunks)
            totals = totals * (matches / float(len(terms)))
        return self._drop_deleted(ids, totals)


#: Dirichlet pseudo-count for lm_dirichlet scoring — deliberately small
#: next to the classic 2000 default so tf still discriminates at the
#: short-turn test corpus scale (avgdl ~ tens of tokens).
LM_MU = 100.0


def _levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance (insert/delete/substitute) — must match
    DuckDB's ``levenshtein`` exactly for the suggest_sql oracle."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


#: fixture misspellings for the spell_suggest gate (one per distance
#: class incl. a no-candidate probe that both sides must omit)
MISSPELLED_TERMS = ("mergee", "custmer", "haash", "joinn", "zzzzzz")


def suggest_sql(terms=MISSPELLED_TERMS, max_dist: int = 2) -> str:
    """Oracle for :meth:`SegmentIndex.suggest_terms` over the text
    field's corpus df table."""
    vals = ", ".join(f"('{t}')" for t in sorted(set(terms)))
    return f"""
WITH {corpus_ctes()},
miss(term) AS (VALUES {vals}),
cand AS (
  SELECT m.term, d.term AS suggestion,
         CAST(levenshtein(m.term, d.term) AS BIGINT) AS dist,
         CAST(d.df AS BIGINT) AS df
  FROM miss m CROSS JOIN dfs d
  WHERE levenshtein(m.term, d.term) <= {max_dist}
),
ranked AS (
  SELECT *, row_number() OVER (
    PARTITION BY term ORDER BY dist, df DESC, suggestion) AS rn
  FROM cand
)
SELECT term, suggestion, dist, df FROM ranked WHERE rn = 1 ORDER BY term
"""


# ---------------------------------------------------------------------------
# phrase suggester — whole-query "did you mean" with bigram context
# ---------------------------------------------------------------------------

#: two-token misspelled fixture queries for the phrase_suggest gate
#: (one all-unknown probe both sides must omit); corrections are
#: supported by real corpus bigrams (table hash / customer join /
#: merge group are among the most frequent pairs at sf0.01)
PHRASE_SUGGEST_QUERIES = (
    ("ps01", "custmer joinn"),
    ("ps02", "tble hash"),
    ("ps03", "mergee groupp"),
    ("ps04", "sloww keey"),
    ("ps05", "zzzzzz qqqqqq"),
)
PHRASE_CAND = 3  # candidate corrections per token (ES generator size)
PHRASE_MAX_DIST = 2
PHRASE_TOPK = 3  # suggestions emitted per query


def phrase_candidates(idx: SegmentIndex, text: str):
    """Per-token correction candidates: top PHRASE_CAND vocabulary
    terms by (edit distance asc, df desc, term asc) within
    PHRASE_MAX_DIST — the ONE candidate-selection rule, mirrored in
    SQL by :func:`phrase_suggest_sql` as a levenshtein window over the
    dfs table (dictionary df == corpus df, the term_stats gate).
    Returns a list of candidate lists, or None when any token has no
    candidate (the query is omitted, as in the term suggester)."""
    fd = idx._dict.get("text")
    toks, _ = normalize.tokenize_column(pa.array([text]), "body")
    toks = toks.tolist()
    if fd is None or not toks:
        return None
    vocab = fd.terms.to_pylist()
    out = []
    for m in toks:
        scored = []
        for i, t in enumerate(vocab):
            if abs(len(t) - len(m)) > PHRASE_MAX_DIST:
                continue
            d = _levenshtein(m, t)
            if d <= PHRASE_MAX_DIST:
                scored.append((d, -int(fd.df[i]), t))
        if not scored:
            return None
        scored.sort()
        out.append([t for _d, _ndf, t in scored[:PHRASE_CAND]])
    return out


def phrase_suggest(
    index_dir: str, sf_dir: str, queries=PHRASE_SUGGEST_QUERIES
) -> pd.DataFrame:
    """Phrase suggester (the ES ``phrase`` suggester): whole-query
    corrections ranked by a bigram language model with add-one
    smoothing — ``score = ln((cf(w1)+1)/(T+V)) + Σ ln((bc(w_{i-1},
    w_i)+1)/(cf(w_{i-1})+V))`` over corpus kept-token unigram counts
    cf, adjacent-pair counts bc, total tokens T and vocabulary size V.
    Context is what the per-term suggester lacks: each token's
    correction is chosen jointly so the corrected PHRASE is probable,
    not just each word.

    Scale shape: candidate generation is dictionary-local; the corpus
    pass counts ONLY the candidate unigrams and candidate-adjacent
    pairs (broadcast needed-sets, per-batch vectorized isin, partial
    counts; the combine is O(candidates × blocks)); sequence scoring
    is a driver-side product over ≤ PHRASE_CAND^n tiny tuples.
    Gate ``phrase_suggest``; oracle :func:`phrase_suggest_sql`."""
    import math
    from itertools import product

    import ray
    import ray.data as rd

    idx = SegmentIndex(index_dir)
    fd = idx._dict["text"]
    V = len(fd.terms)
    cands = {}
    for qid, text in queries:
        c = phrase_candidates(idx, text)
        if c is not None:
            cands[qid] = c
    need_uni = sorted({t for cs in cands.values() for cl in cs for t in cl})
    need_bi = sorted(
        {
            (a, b)
            for cs in cands.values()
            for ca, cb in zip(cs, cs[1:])
            for a in ca
            for b in cb
        }
    )
    uni_ref = ray.put(frozenset(need_uni))
    bi_ref = ray.put(frozenset(f"{a} {b}" for a, b in need_bi))

    def count_stage(batch: pa.Table) -> pa.Table:
        from .build import _get_ref

        uni_set, bi_set = _get_ref(uni_ref), _get_ref(bi_ref)
        toks, rows, _pos = normalize.tokenize_with_positions(
            batch["text"], "body"
        )
        rows_out = [("tot", "", "", np.int64(len(toks)))]
        if len(toks):
            s = pd.Series(toks)
            u = s[s.isin(uni_set)].value_counts()
            rows_out += [("uni", t, "", np.int64(n)) for t, n in u.items()]
            if len(toks) > 1:
                adj = rows[1:] == rows[:-1]
                pair = pd.Series(
                    np.char.add(
                        np.char.add(toks[:-1][adj].astype(str), " "),
                        toks[1:][adj].astype(str),
                    )
                )
                p = pair[pair.isin(bi_set)].value_counts()
                rows_out += [
                    ("bi", *k.split(" ", 1), np.int64(n)) for k, n in p.items()
                ]
        kinds, a_, b_, n_ = zip(*rows_out)
        return pa.table(
            {
                "kind": pa.array(kinds, pa.string()),
                "a": pa.array(a_, pa.string()),
                "b": pa.array(b_, pa.string()),
                "n": pa.array(n_, pa.int64()),
            }
        )

    parts = (
        corpus.transcripts_from_documents(sf_dir)
        .map_batches(count_stage, batch_format="pyarrow")
        .to_pandas()
    )
    agg = parts.groupby(["kind", "a", "b"], as_index=False)["n"].sum()
    T = int(agg.loc[agg["kind"] == "tot", "n"].sum())
    cf = {
        r.a: int(r.n) for r in agg[agg["kind"] == "uni"].itertuples()
    }
    bc = {
        (r.a, r.b): int(r.n) for r in agg[agg["kind"] == "bi"].itertuples()
    }
    rows = []
    for qid, _text in queries:
        if qid not in cands:
            continue
        seqs = []
        for seq in product(*cands[qid]):
            score = math.log((cf.get(seq[0], 0) + 1.0) / (T + V))
            for a, b in zip(seq, seq[1:]):
                score += math.log(
                    (bc.get((a, b), 0) + 1.0) / (cf.get(a, 0) + V)
                )
            seqs.append((" ".join(seq), score))
        r9 = round_half_up(np.array([s for _t, s in seqs]), RANK_ROUND)
        order = sorted(
            range(len(seqs)), key=lambda i: (-r9[i], seqs[i][0])
        )[:PHRASE_TOPK]
        for rank, i in enumerate(order, 1):
            rows.append((qid, rank, seqs[i][0], seqs[i][1]))
    out = pd.DataFrame(
        rows, columns=["query_id", "rank", "suggestion", "score"]
    )
    out["rank"] = out["rank"].astype(np.int32)
    out["score"] = round_half_up(out["score"].to_numpy(np.float64), SCORE_ROUND)
    return out


def phrase_suggest_sql(queries=PHRASE_SUGGEST_QUERIES) -> str:
    """Oracle for :func:`phrase_suggest`: candidates re-derived IN SQL
    (levenshtein ≤ PHRASE_MAX_DIST over dfs, (dist, df desc, term)
    window, top PHRASE_CAND); unigram/bigram counts from the positional kept-token
    CTE; one scoring leg per query (token count known at generation
    time).  Queries whose tokens have no candidates vanish because
    their per-position candidate set is empty."""
    from . import positional

    legs = []
    qvals = []
    for qid, text in queries:
        toks, _ = normalize.tokenize_column(pa.array([text]), "body")
        toks = toks.tolist()
        for i, t in enumerate(toks):
            qvals.append(f"('{qid}', {i}, '{t}')")
        n = len(toks)
        aliases = [f"c{i}" for i in range(n)]
        sug = " || ' ' || ".join(f"{a}.term" for a in aliases)
        score_parts = [
            "ln((u0.c + 1.0) / ((SELECT t FROM tot) + (SELECT v FROM voc)))"
        ]
        joins = []
        for i in range(1, n):
            joins.append(
                f"JOIN topc c{i} ON c{i}.query_id = '{qid}' AND c{i}.i = {i}"
            )
        joins.append("JOIN uni u0 ON u0.term = c0.term")
        for i in range(1, n):
            joins.append(f"JOIN uni u{i} ON u{i}.term = c{i}.term")
            joins.append(
                f"LEFT JOIN big b{i} ON b{i}.ta = c{i-1}.term AND b{i}.tb = c{i}.term"
            )
            score_parts.append(
                f"ln((coalesce(b{i}.c, 0) + 1.0) / (u{i-1}.c + (SELECT v FROM voc)))"
            )
        legs.append(
            f"SELECT '{qid}' AS query_id, {sug} AS suggestion,\n"
            f"       {' + '.join(score_parts)} AS score\n"
            f"FROM topc c0\n"
            f"{' '.join(joins)}\n"
            f"WHERE c0.query_id = '{qid}' AND c0.i = 0"
        )
    union = "\nUNION ALL\n".join(legs)
    return f"""
WITH {positional._kept_cte_sql()},
uni AS (SELECT term, CAST(count(*) AS BIGINT) AS c FROM kept GROUP BY term),
tot AS (SELECT CAST(count(*) AS BIGINT) AS t FROM kept),
voc AS (SELECT CAST(count(DISTINCT term) AS BIGINT) AS v FROM kept),
dfs AS (SELECT term, count(DISTINCT (conv_id, turn_idx)) AS df FROM kept GROUP BY term),
big AS (
  SELECT a.term AS ta, b.term AS tb, CAST(count(*) AS BIGINT) AS c
  FROM kept a JOIN kept b
    ON b.conv_id = a.conv_id AND b.turn_idx = a.turn_idx AND b.pos = a.pos + 1
  GROUP BY a.term, b.term
),
qtoks(query_id, i, tok) AS (VALUES {', '.join(qvals)}),
cand AS (
  SELECT q.query_id, q.i, d.term,
         levenshtein(q.tok, d.term) AS dist, d.df
  FROM qtoks q JOIN dfs d ON abs(length(d.term) - length(q.tok)) <= {PHRASE_MAX_DIST}
  WHERE levenshtein(q.tok, d.term) <= {PHRASE_MAX_DIST}
),
topc AS (
  SELECT query_id, i, term FROM (
    SELECT *, row_number() OVER (
      PARTITION BY query_id, i ORDER BY dist, df DESC, term) AS rn
    FROM cand
  ) WHERE rn <= {PHRASE_CAND}
),
seqs AS (
{union}
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, suggestion) AS INTEGER) AS rank,
         suggestion, round(score, {SCORE_ROUND}) AS score
  FROM seqs
)
SELECT query_id, rank, suggestion, score
FROM ranked WHERE rank <= {PHRASE_TOPK}
ORDER BY query_id, rank
"""


def _term_bound(fd: _FieldDict, s: int, e: int) -> float:
    """Upper bound of one term's score in any doc: the largest run max
    when the term's runs are docid-disjoint (every index this engine
    writes), else the sum of them (a doc may sit in several runs)."""
    m = fd.max_score[s:e]
    if e - s < 2 or bool(np.all(fd.last_docid[s : e - 1] < fd.first_docid[s + 1 : e])):
        return float(m.max())
    return float(m.sum())


def _theta(scores: np.ndarray, k: int) -> float:
    """MaxScore's threshold: a lower bound of the k-th largest of
    ``scores`` (``1 <= k <= len(scores)``), which is all pruning needs.
    Past ``128 * k`` scores it is the k-th largest maximum of 128-score
    blocks — k distinct scores reach it, and the top k rarely share a
    block, so it is the k-th largest itself almost always — found
    without partitioning every score; below that, the exact k-th.  A NaN
    score gives no threshold (-inf)."""
    n = len(scores)
    if n >= 128 * k:
        scores = np.maximum.reduceat(scores, np.arange(0, n, 128))
        n = len(scores)
    t = np.partition(scores, n - k)[n - k]
    return t if t == t else -np.inf


def _kth_largest(scores: np.ndarray, k: int, buf: segments.RunBuffer) -> float:
    """The k-th largest of ``scores`` (``1 <= k <= len(scores)``),
    partitioned in ``buf`` instead of in a fresh copy."""
    part = buf.array("kth", len(scores), np.float64)
    part[:] = scores
    part.partition(len(scores) - k)
    return part[len(scores) - k]


def _dense_enough(n_postings: int, lo: int, hi: int) -> bool:
    """The accumulator's density rule, shared by :func:`_accumulate`
    (from the decoded arrays) and :meth:`SegmentIndex._dense` (from the
    dictionary, before decoding): ``n_postings`` over the docids
    ``lo..hi`` sum densely when they cover at least 1/8 of that range,
    so at most 8 slots are scanned per posting."""
    return 8 * n_postings >= hi - lo + 1


def _accumulate(id_chunks, sc_chunks):
    """Sum per-term score arrays into per-doc totals -> (sorted distinct
    docids, float64 totals).

    Every doc's partials are added one at a time in chunk order,
    starting from 0.0 (``np.bincount``'s order), so the totals are
    bit-identical whichever path runs (see CLAUDE.md: a pairwise or
    ``reduceat`` sum would not be).  Dense ``bincount`` over the docid
    span when the postings cover at least 1/8 of it (so at most 8 slots
    per posting summed); otherwise a stable sort, which keeps each doc's
    partials in chunk order, then ``bincount`` over the sorted groups.
    A single strictly increasing chunk is already its own answer.
    """
    if not id_chunks:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    if len(id_chunks) == 1:
        ids = np.asarray(id_chunks[0])
        if len(ids) < 2 or (ids[1:] > ids[:-1]).all():
            # 0.0 + x, as bincount adds it (-0.0 -> 0.0)
            return ids, np.asarray(sc_chunks[0], np.float64) + 0.0
    ids = np.concatenate(id_chunks)
    scs = np.concatenate(sc_chunks).astype(np.float64, copy=False)
    if len(ids) < 2:
        return ids, scs + 0.0
    lo, hi = ids.min(), ids.max()
    if _dense_enough(len(ids), int(lo), int(hi)):
        span = int(hi - lo) + 1
        rel = np.subtract(ids, lo, out=ids)  # ids is our own concatenation
        present = np.zeros(span, bool)
        present[rel] = True
        slots = np.flatnonzero(present)
        totals = np.bincount(rel, weights=scs, minlength=span)[slots]
        return (slots + lo).astype(ids.dtype, copy=False), totals
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    first = np.empty(len(ids), bool)
    first[0] = True
    np.not_equal(ids[1:], ids[:-1], out=first[1:])
    return ids[first], np.bincount(np.cumsum(first) - 1, weights=scs[order])


# ---------------------------------------------------------------------------
# faithful+boosts mode — the full SearchServer pipeline
# (rank prior SearchServer.java:158-180; sort+60 :183-186; title boosts
# :209-220; re-sort+50 :225-226)
# ---------------------------------------------------------------------------

PRIOR_WEIGHT = 5000.0  # SearchServer.java:170 pageRank * 5000
EXACT_BOOST = 50.0  # :214
PREFIX_BOOST = 25.0  # :217
CAND_K = 60  # :185
FINAL_K = 50  # :226


def conv_titles(sf_dir: str) -> dict:
    """conv_id -> 'title' (the conversation's turn-0 text, lowercased).

    The reference fetches titles from pt-crawl per candidate
    (SearchServer.java:196-205); our analog treats a conversation's
    first turn as its title and broadcasts the (small) conv-level map.
    """
    import duckdb

    con = duckdb.connect()
    rows = con.execute(
        f"""
        SELECT 'conv-' || lpad(CAST(doc_id AS VARCHAR), 8, '0'),
               lower(array_to_string(list_slice(string_split(text, ' '), 1,
                     {corpus.TURN_WORDS}), ' '))
        FROM read_parquet('{sf_dir}/documents.parquet')
        """
    ).fetchall()
    con.close()
    return dict(rows)


def conv_titles_from_docstore(index_dir: str) -> dict:
    """conv_id -> title from the index-local doc-store: a conversation's
    title is its turn-0 text lowercased, and turn-0 docids are exactly
    the codec bases — so the whole map is one batched point lookup, no
    corpus/sf_dir access.  Equal to :func:`conv_titles` by construction
    (turn 0 = the document's first TURN_WORDS words; pytest-pinned)."""
    from .docstore import DocStore

    codec = DocIdCodec.from_table(
        pq.read_table(os.path.join(index_dir, "convmap.parquet"))
    )
    texts = DocStore(index_dir).texts(codec.bases)
    return {c: t.lower() for c, t in zip(codec.conv_ids.tolist(), texts)}


class LazyTitles:
    """Per-candidate title resolution from the index-local doc-store —
    the reference's own shape (it fetches each candidate's pt-crawl row
    post-ranking, ``SearchServer.java:196-205``), and the serving-scale
    path: a boosted scorer holds only a :class:`docstore.DocStore`
    handle (shard manifests), never a conversation-count-sized map.
    Titles for the <=CAND_K candidates of one query are resolved by
    batched point lookups (turn-0 docid == the conversation's codec
    base).  Equal to :func:`conv_titles` values by construction."""

    def __init__(self, index_dir: str):
        from .docstore import DocStore

        self.store = DocStore(index_dir)

    def titles_for(self, index: "SegmentIndex", conv_ids) -> list:
        codec = index.codec
        pos = np.searchsorted(codec.conv_ids, np.asarray(conv_ids))
        texts = self.store.texts(codec.bases[pos])
        return [t.lower() for t in texts]


def _topk_boosted(
    index: "SegmentIndex", query_text: str, k: int, titles: "dict | LazyTitles"
) -> pd.DataFrame:
    docids, scores = index._score_faithful(query_text)
    if len(docids) == 0:
        return pd.DataFrame(
            {"rank": np.empty(0, np.int32), "conv_id": [], "turn_idx": np.empty(0, np.int32), "score": []}
        )
    # conversation prior: turn-mass share (the PageRank-x-5000 analog)
    pos = np.searchsorted(index.codec.bases, docids, side="right") - 1
    prior = index.codec.extents[pos].astype(np.float64) / index.codec.span
    scores = scores + PRIOR_WEIGHT * prior
    # phase 1: candidate top-60
    r = round_half_up(scores, RANK_ROUND)
    order = np.lexsort((docids, -r))[:CAND_K]
    cand_ids, cand_scores = docids[order], scores[order]
    # phase 2: title boosts on candidates (titles resolved for the
    # <=CAND_K candidates only when a LazyTitles resolver is passed)
    conv, turn = index.codec.decode(cand_ids)
    q = " ".join(query_text.lower().split())
    cand_titles = (
        titles.titles_for(index, conv)
        if hasattr(titles, "titles_for")
        else [titles.get(c, "") for c in conv]
    )
    boost = np.zeros(len(cand_ids))
    for i, title in enumerate(cand_titles):
        if title == q:
            boost[i] = EXACT_BOOST
        elif q and title.startswith(q):
            boost[i] = PREFIX_BOOST
    final = cand_scores + boost
    fr = round_half_up(final, RANK_ROUND)
    order2 = np.lexsort((cand_ids, -fr))[: min(k, FINAL_K)]
    conv2, turn2 = index.codec.decode(cand_ids[order2])
    return pd.DataFrame(
        {
            "rank": np.arange(1, len(order2) + 1, dtype=np.int32),
            "conv_id": conv2,
            "turn_idx": turn2,
            "score": round_half_up(final[order2], SCORE_ROUND),
        }
    )


def faithful_boosted_sql(queries=None) -> str:
    """Oracle for the full boosted ranker pipeline."""
    queries = queries if queries is not None else REFERENCE_QUERIES
    qtext_rows = ", ".join(
        f"('{qid}', '{' '.join(text.lower().split())}')" for qid, text, _k in queries
    )
    base = faithful_topk_sql(queries)
    # reuse the faithful contrib/scores CTE chain, swap the ranking tail
    head, _tail = base.split("ranked AS", 1)
    return f"""{head}
qtexts(query_id, qnorm) AS (VALUES {qtext_rows}),
priors AS (
  SELECT conv_id, count(*) * 1.0 / (SELECT count(*) FROM transcripts) AS prior
  FROM transcripts GROUP BY conv_id
),
titles AS (
  SELECT conv_id, lower(text) AS title FROM transcripts WHERE turn_idx = 0
),
primed AS (
  SELECT s.query_id, s.conv_id, s.turn_idx,
         s.score + {PRIOR_WEIGHT} * p.prior AS score
  FROM scores s JOIN priors p USING (conv_id)
),
cands AS (
  SELECT *, row_number() OVER (
    PARTITION BY query_id
    ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS rn
  FROM primed
),
boosted AS (
  SELECT c.query_id, c.conv_id, c.turn_idx,
         c.score + CASE WHEN t.title = q.qnorm THEN {EXACT_BOOST}
                        WHEN starts_with(t.title, q.qnorm) THEN {PREFIX_BOOST}
                        ELSE 0 END AS score
  FROM cands c
  JOIN titles t USING (conv_id)
  JOIN qtexts q USING (query_id)
  WHERE c.rn <= {CAND_K}
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM boosted
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= least(q.qk, {FINAL_K})
ORDER BY r.query_id, r.rank
"""


class QueryScorer:
    """Actor-pool stage: queries batch -> top-k rows.

    Use as ``queries_ds.map_batches(QueryScorer, fn_constructor_kwargs=
    {"index_dir": ..., "mode": ...}, concurrency=N, batch_size=B)`` —
    the index loads once per actor (``__init__``), per the stateful-
    stage pattern (SURVEY.md §7.3).
    """

    def __init__(self, index_dir: str, mode: str = "bm25", sf_dir: str | None = None):
        self.index = SegmentIndex(index_dir)
        self.mode = mode
        # boosted mode resolves titles lazily per candidate when the
        # index carries a doc-store (the scale path: no conv-count-sized
        # map per actor); the sf_dir corpus map is the fallback for
        # docstore-less indexes only
        self.titles = None
        if mode == "faithful_boosted":
            if os.path.isdir(os.path.join(index_dir, "docstore")):
                self.titles = LazyTitles(index_dir)
            elif sf_dir:
                self.titles = conv_titles(sf_dir)
            else:
                raise ValueError(
                    "faithful_boosted needs an index doc-store or sf_dir"
                )

    def __call__(self, batch: pa.Table) -> pa.Table:
        from . import docvalues

        n = len(batch)
        names = batch.column_names
        fjs = (
            batch["filter_json"].to_pylist()
            if "filter_json" in names
            else [None] * n
        )
        sds = batch["sdesc"].to_pylist() if "sdesc" in names else [True] * n
        out = []
        for qid, text, k, fj, sd in zip(
            batch["query_id"].to_pylist(),
            batch["text"].to_pylist(),
            batch["k"].to_pylist(),
            fjs,
            sds,
        ):
            if self.mode == "faithful_boosted":
                df = _topk_boosted(self.index, text, int(k), self.titles)
            elif self.mode == "bm25_filtered":
                df = self.index.topk_filtered(
                    text, int(k), docvalues.decode_clauses(fj)
                )
            elif self.mode == "sorted":
                df = self.index.topk_sorted(
                    text, int(k), clauses=docvalues.decode_clauses(fj), desc=bool(sd)
                )
            else:
                df = self.index.topk(text, int(k), self.mode)
            df.insert(0, "query_id", qid)
            out.append(df)
        if out:
            res = pd.concat(out, ignore_index=True)
        else:
            val_col = "ts_us" if self.mode == "sorted" else "score"
            res = pd.DataFrame(
                {"query_id": [], "rank": [], "conv_id": [], "turn_idx": [], val_col: []}
            )
        return pa.Table.from_pandas(res, preserve_index=False)


# ---------------------------------------------------------------------------
# Reference query set (FIXTURES.md §2) over the documents-derived corpus:
# head/mid/tail/absent single terms, multi-term, a duplicate-term query.
# ---------------------------------------------------------------------------
REFERENCE_QUERIES = (
    ("q01", "the", 10),
    ("q02", "merge", 10),
    ("q03", "customer", 10),
    ("q04", "zzzabsent", 10),
    ("q05", "hash join", 10),
    ("q06", "sort merge join", 10),
    ("q07", "window agg stream", 10),
    ("q08", "the the", 10),  # duplicate-term semantics pin
    ("q09", "spark vector query", 10),
    ("q10", "big small fast slow", 10),
)


def queries_table(queries=REFERENCE_QUERIES) -> pa.Table:
    """Query specs -> Arrow table for the QueryScorer actor pool.

    3-tuples (qid, text, k) are the standard modes; 4-tuples append a
    ``filter_json`` clause column (bm25_filtered); 5-tuples append
    ``sdesc`` too (sorted mode) — structured clauses ride the Dataset
    as JSON, decoded once per query inside the actor."""
    width = len(queries[0])
    cols = {
        "query_id": pa.array([q[0] for q in queries], pa.string()),
        "text": pa.array([q[1] for q in queries], pa.string()),
        "k": pa.array([q[2] for q in queries], pa.int32()),
    }
    if width >= 4:
        from . import docvalues

        cols["filter_json"] = pa.array(
            [docvalues.encode_clauses(q[3]) for q in queries], pa.string()
        )
    if width >= 5:
        cols["sdesc"] = pa.array([bool(q[4]) for q in queries], pa.bool_())
    return pa.table(cols)


class CountScorer:
    """Actor-pool stage: queries batch -> (query_id, n_hits) — the ES
    ``_count`` API (match-any candidate count, no ranking work beyond
    the accumulator; zero-hit queries still emit a row)."""

    def __init__(self, index_dir: str, mode: str = "bm25"):
        self.index = SegmentIndex(index_dir)
        self.mode = mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids = batch["query_id"].to_pylist()
        counts = np.empty(len(qids), np.int64)
        for i, text in enumerate(batch["text"].to_pylist()):
            ids, _ = self.index._score_mode(text, self.mode)
            counts[i] = len(ids)
        return pa.table(
            {
                "query_id": pa.array(qids, pa.string()),
                "n_hits": pa.array(counts, pa.int64()),
            }
        )


def batch_count(index_dir: str, queries=REFERENCE_QUERIES, mode: str = "bm25"):
    """Actor-pool hit counting over a query set (gate ``search_count``;
    oracle :func:`count_sql`)."""
    import ray.data as rd

    qds = rd.from_arrow(queries_table(queries))
    return (
        qds.map_batches(
            CountScorer,
            fn_constructor_kwargs={"index_dir": index_dir, "mode": mode},
            batch_format="pyarrow",
            concurrency=2,
            batch_size=4,
        )
        .to_pandas()
        .sort_values("query_id")
        .reset_index(drop=True)
    )


#: fixed query pairs for the overlap report — consecutive reference
#: pairs plus two crossing ones; (q03, q04) and (q04, q05) exercise the
#: zero-hit side (q04 = zzzabsent)
OVERLAP_PAIRS = tuple(
    (f"q{i:02d}", f"q{i + 1:02d}") for i in range(1, 10)
) + (("q01", "q05"), ("q03", "q08"))


class OverlapScorer:
    """Actor-pool stage: query-pair batch -> hit-CONV-set overlap — the
    related-query analytics shape (query clustering, intent dedup).
    The index loads once per actor; per-query conv sets are computed at
    most once per batch (dict cache), and only SIZES leave the actor —
    no conv set ever reaches the driver.  At 100 TB the exact sets
    become KMV sketches (the search_cardinality scale note); this op's
    output shape is sketch-compatible (counts + ratio)."""

    def __init__(self, index_dir: str, mode: str = "bm25"):
        self.index = SegmentIndex(index_dir)
        self.mode = mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        cache: dict = {}

        def convs(text: str) -> np.ndarray:
            if text not in cache:
                ids, _ = self.index._score_mode(text, self.mode)
                conv, _turn = self.index.codec.decode(ids)
                cache[text] = np.unique(np.asarray(conv).astype(str))
            return cache[text]

        qa, qb, na, nb, nc, jac = [], [], [], [], [], []
        for a, b, ta, tb in zip(
            batch["query_a"].to_pylist(), batch["query_b"].to_pylist(),
            batch["text_a"].to_pylist(), batch["text_b"].to_pylist(),
        ):
            ca, cb = convs(ta), convs(tb)
            common = len(np.intersect1d(ca, cb, assume_unique=True))
            union = len(ca) + len(cb) - common
            qa.append(a); qb.append(b)
            na.append(len(ca)); nb.append(len(cb)); nc.append(common)
            jac.append(0.0 if union == 0 else common / union)
        return pa.table(
            {
                "query_a": pa.array(qa, pa.string()),
                "query_b": pa.array(qb, pa.string()),
                "n_a": pa.array(na, pa.int64()),
                "n_b": pa.array(nb, pa.int64()),
                "n_common": pa.array(nc, pa.int64()),
                "jaccard": pa.array(round_half_up(np.array(jac), SCORE_ROUND), pa.float64()),
            }
        )


def batch_overlap(
    index_dir: str, pairs=OVERLAP_PAIRS, queries=REFERENCE_QUERIES,
    mode: str = "bm25",
):
    """Pairwise hit-set overlap over a query-pair table (gate
    ``search_overlap``; oracle :func:`overlap_sql`)."""
    import ray.data as rd

    qtext = {qid: text for qid, text, _k in queries}
    tbl = pa.table(
        {
            "query_a": pa.array([a for a, _b in pairs], pa.string()),
            "query_b": pa.array([b for _a, b in pairs], pa.string()),
            "text_a": pa.array([qtext[a] for a, _b in pairs], pa.string()),
            "text_b": pa.array([qtext[b] for _a, b in pairs], pa.string()),
        }
    )
    return (
        rd.from_arrow(tbl)
        .map_batches(
            OverlapScorer,
            fn_constructor_kwargs={"index_dir": index_dir, "mode": mode},
            batch_format="pyarrow",
            concurrency=2,
            batch_size=4,
        )
        .to_pandas()
        .sort_values(["query_a", "query_b"])
        .reset_index(drop=True)
    )


def overlap_sql(pairs=OVERLAP_PAIRS, queries=REFERENCE_QUERIES) -> str:
    """Mirror of :func:`batch_overlap`: distinct match-any conv sets per
    query (the count_sql candidate contract, conv-level), pairwise
    intersection counts, Jaccard 0.0 when the union is empty (both
    engines — no NULL crosses the hash gate)."""
    pair_rows = ", ".join(f"('{a}', '{b}')" for a, b in pairs)
    return f"""
WITH {corpus_ctes()},
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
hits AS (
  SELECT DISTINCT q.query_id, t.conv_id
  FROM qterms q JOIN tfs t ON t.term = q.term
),
sizes AS (SELECT query_id, CAST(count(*) AS BIGINT) AS n FROM hits GROUP BY 1),
pairs(query_a, query_b) AS (VALUES {pair_rows}),
inter AS (
  SELECT p.query_a, p.query_b, CAST(count(*) AS BIGINT) AS n_common
  FROM pairs p
  JOIN hits a ON a.query_id = p.query_a
  JOIN hits b ON b.query_id = p.query_b AND b.conv_id = a.conv_id
  GROUP BY 1, 2
)
SELECT p.query_a, p.query_b,
       CAST(coalesce(sa.n, 0) AS BIGINT) AS n_a,
       CAST(coalesce(sb.n, 0) AS BIGINT) AS n_b,
       CAST(coalesce(i.n_common, 0) AS BIGINT) AS n_common,
       round(coalesce(coalesce(i.n_common, 0) * 1.0 /
             nullif(coalesce(sa.n, 0) + coalesce(sb.n, 0)
                    - coalesce(i.n_common, 0), 0), 0), {SCORE_ROUND}) AS jaccard
FROM pairs p
LEFT JOIN sizes sa ON sa.query_id = p.query_a
LEFT JOIN sizes sb ON sb.query_id = p.query_b
LEFT JOIN inter i ON i.query_a = p.query_a AND i.query_b = p.query_b
ORDER BY p.query_a, p.query_b
"""


def count_sql(queries=REFERENCE_QUERIES) -> str:
    """Mirror of :func:`batch_count`: distinct match-any candidates per
    query, zero-hit queries kept via LEFT JOIN."""
    return f"""
WITH {corpus_ctes()},
queries(query_id) AS (SELECT query_id FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
cands AS (
  SELECT DISTINCT q.query_id, t.conv_id, t.turn_idx
  FROM qterms q JOIN tfs t ON t.term = q.term
),
counts AS (SELECT query_id, count(*) AS n FROM cands GROUP BY query_id)
SELECT q.query_id, CAST(coalesce(c.n, 0) AS BIGINT) AS n_hits
FROM queries q LEFT JOIN counts c ON c.query_id = q.query_id
ORDER BY q.query_id
"""


class ExportScorer:
    """Actor-pool stage: one query row -> ALL of its hits, globally
    ranked — the ES scroll / "export every match" shape.  Unlike
    :class:`QueryScorer` there is no k cut, so the output is
    hit-set-sized: callers must keep it a Dataset (``export_hits``
    streams it into resumable partitioned parquet; nothing
    hit-set-sized ever lands on the driver)."""

    def __init__(self, index_dir: str, mode: str = "bm25"):
        self.index = SegmentIndex(index_dir)
        self.mode = mode

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        for qid, text in zip(
            batch["query_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ids, sc = self.index._score_mode(text, self.mode)
            if not len(ids):
                continue
            df = self.index._format_topk(ids, sc, len(ids))
            df.insert(0, "query_id", qid)
            out.append(df)
        if not out:
            return pa.table(
                {
                    "query_id": pa.array([], pa.string()),
                    "rank": pa.array([], pa.int32()),
                    "conv_id": pa.array([], pa.string()),
                    "turn_idx": pa.array([], pa.int32()),
                    "score": pa.array([], pa.float64()),
                }
            )
        return pa.Table.from_pandas(
            pd.concat(out, ignore_index=True), preserve_index=False
        )


def export_hits(
    index_dir: str,
    out_dir: str,
    queries=REFERENCE_QUERIES,
    mode: str = "bm25",
    num_shards: int = 4,
    fingerprint: str = "",
) -> list[dict]:
    """Stream every hit of every query into hash-sharded, resumable
    parquet under ``out_dir`` (gate ``search_export``; oracle
    :func:`export_sql`).

    The scorer emits per-query full hit sets with ``batch_size=1`` so
    one corpus-sized hit set is the block unit — the streaming executor
    pipelines scoring and shard writes and the driver only ever sees
    shard manifests.  All rows of one query land in one shard
    (``sinks.write_partitioned`` keys on query_id), so a failed export
    resumes by skipping completed shards.
    """
    import ray.data as rd

    from . import sinks

    qds = rd.from_arrow(queries_table(queries))
    hits = qds.map_batches(
        ExportScorer,
        fn_constructor_kwargs={"index_dir": index_dir, "mode": mode},
        batch_format="pyarrow",
        concurrency=2,
        batch_size=1,
    )
    return sinks.write_partitioned(
        hits, out_dir, "query_id", num_shards=num_shards, fingerprint=fingerprint
    )


def export_sql(queries=REFERENCE_QUERIES, k1: float = 1.2, b: float = 0.75) -> str:
    """Mirror of :func:`export_hits`: the full BM25 hit set per query
    (no LIMIT), ranked exactly like :func:`bm25_topk_sql`."""
    return f"""
WITH {corpus_ctes()},
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
scores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, t.conv_id, t.turn_idx
)
SELECT query_id,
       CAST(row_number() OVER (
         PARTITION BY query_id
         ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
       conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
       round(score, {SCORE_ROUND}) AS score
FROM scores
ORDER BY query_id, rank
"""


#: per-query KMV size for hit-set cardinality — small enough that the
#: estimator path (not just the exact small-set path) is exercised at
#: test scale; production callers size it for their error budget
CARDINALITY_K = 16

#: REFERENCE_QUERIES plus a tail-term query whose hit set stays under
#: CARDINALITY_K distinct conversations, pinning the sketch's exact
#: small-set path alongside the estimator path
CARDINALITY_QUERIES = REFERENCE_QUERIES + (("q11", "dup", 10),)


class CardinalityScorer:
    """Actor-pool stage: queries batch -> per-query hit-set cardinality
    — the ES ``cardinality`` aggregation.  Emits the exact hit count,
    the exact distinct-conversation count, and the KMV sketch estimate
    of the latter (deterministic via the shared md5int60 hash, so even
    the ESTIMATE is oracle-checkable bit-for-bit; the sketch is what
    survives at 100 TB, where per-query exact distincts would be a
    corpus-sized shuffle per query)."""

    def __init__(self, index_dir: str, mode: str = "bm25", k: int = CARDINALITY_K):
        self.index = SegmentIndex(index_dir)
        self.mode = mode
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .analysis import md5int60_np
        from .sketches import kmv_estimate

        qids, n_hits, n_convs, ests = [], [], [], []
        for qid, text in zip(
            batch["query_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ids, _ = self.index._score_mode(text, self.mode)
            conv, _turn = self.index.codec.decode(ids)
            u = np.unique(np.asarray(conv).astype(str))
            qids.append(qid)
            n_hits.append(len(ids))
            n_convs.append(len(u))
            h = np.unique(md5int60_np(u)) if len(u) else np.empty(0, np.int64)
            if len(h) > self.k:
                h = np.partition(h, self.k - 1)[: self.k]
                h.sort()
            ests.append(kmv_estimate(h, self.k))
        return pa.table(
            {
                "query_id": pa.array(qids, pa.string()),
                "n_hits": pa.array(n_hits, pa.int64()),
                "n_convs": pa.array(n_convs, pa.int64()),
                "kmv_est": pa.array(ests, pa.float64()),
            }
        )


def batch_cardinality(
    index_dir: str, queries=CARDINALITY_QUERIES, mode: str = "bm25"
) -> pd.DataFrame:
    """Actor-pool hit-set cardinality over a query set (gate
    ``search_cardinality``; oracle :func:`cardinality_sql`)."""
    import ray.data as rd

    qds = rd.from_arrow(queries_table(queries))
    return (
        qds.map_batches(
            CardinalityScorer,
            fn_constructor_kwargs={"index_dir": index_dir, "mode": mode},
            batch_format="pyarrow",
            concurrency=2,
            batch_size=4,
        )
        .to_pandas()
        .sort_values("query_id")
        .reset_index(drop=True)
    )


def cardinality_sql(queries=CARDINALITY_QUERIES, k: int = CARDINALITY_K) -> str:
    """Mirror of :func:`batch_cardinality`: exact hit / distinct-conv
    counts plus the KMV estimate re-derived from the same md5int60
    hashes ((k-1)·2^60 / h_k past k distinct hashes, exact below)."""
    from .analysis import md5int60_sql

    return f"""
WITH {corpus_ctes()},
queries(query_id) AS (SELECT query_id FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
cands AS (
  SELECT DISTINCT q.query_id, t.conv_id, t.turn_idx
  FROM qterms q JOIN tfs t ON t.term = q.term
),
counts AS (
  SELECT query_id, count(*) AS n_hits, count(DISTINCT conv_id) AS n_convs
  FROM cands GROUP BY query_id
),
hashes AS (
  SELECT DISTINCT query_id, {md5int60_sql('conv_id')} AS h
  FROM (SELECT DISTINCT query_id, conv_id FROM cands)
),
ranked AS (
  SELECT query_id, h,
         row_number() OVER (PARTITION BY query_id ORDER BY h) AS rn,
         count(*) OVER (PARTITION BY query_id) AS cnt
  FROM hashes
),
est AS (
  SELECT query_id,
         CASE WHEN max(cnt) < {k} THEN CAST(max(cnt) AS DOUBLE)
              ELSE round(({k} - 1) * 1152921504606846976.0
                         / max(CASE WHEN rn = {k} THEN h END), 6) END AS kmv_est
  FROM ranked GROUP BY query_id
)
SELECT q.query_id,
       CAST(coalesce(c.n_hits, 0) AS BIGINT) AS n_hits,
       CAST(coalesce(c.n_convs, 0) AS BIGINT) AS n_convs,
       coalesce(e.kmv_est, 0.0) AS kmv_est
FROM queries q
LEFT JOIN counts c ON c.query_id = q.query_id
LEFT JOIN est e ON e.query_id = q.query_id
ORDER BY q.query_id
"""


#: prefix-completion probe set: a 6-way cap-exercising prefix ("s"),
#: two-term and one-term prefixes, and an absent prefix (omitted)
COMPLETE_PREFIXES = ("s", "c", "me", "qu", "zz")
COMPLETE_K = 3


def complete_sql(prefixes=COMPLETE_PREFIXES, k: int = COMPLETE_K) -> str:
    """Mirror of :meth:`SegmentIndex.suggest_complete`: per-prefix
    top-k dictionary completions by (df desc, term asc)."""
    vals = ", ".join(f"('{p}')" for p in sorted(set(prefixes)))
    return f"""
WITH {corpus_ctes()},
prefixes(prefix) AS (VALUES {vals}),
ranked AS (
  SELECT p.prefix, d.term AS completion, d.df,
         row_number() OVER (PARTITION BY p.prefix
                            ORDER BY d.df DESC, d.term ASC) AS rn
  FROM prefixes p JOIN dfs d ON d.term LIKE p.prefix || '%'
)
SELECT prefix, CAST(rn AS INTEGER) AS rank, completion, CAST(df AS BIGINT) AS df
FROM ranked WHERE rn <= {k}
ORDER BY prefix, rank
"""


# Regexp query set: prefix-shaped, infix, character-class,
# cap-exercising ("s.*" matches 6 vocabulary terms, MAX_EXPANSIONS=4
# binds), alternation + second pattern, and a no-match pattern.
REGEX_QUERIES = (
    ("r01", "mer.*", 10),
    ("r02", ".*oin.*", 10),
    ("r03", "s[mo].*", 10),
    ("r04", "s.*", 10),
    ("r05", "(hash|merge) .*dow.*", 10),
    ("r06", "zzz.*", 10),
)


def regexp_topk_sql(
    queries=REGEX_QUERIES,
    k1: float = 1.2,
    b: float = 0.75,
    max_expansions: int | None = None,
) -> str:
    """Oracle for the ``bm25_regex`` mode: per-pattern full-match
    dictionary expansion (DuckDB ``regexp_full_match`` == Arrow RE2
    with explicit anchors), capped to the ``max_expansions`` highest-df
    (ties: term asc) — the exact rule of
    :meth:`SegmentIndex.expand_regex` — then the plain disjunctive BM25
    chain over the deduped per-query union."""
    cap = SegmentIndex.MAX_EXPANSIONS if max_expansions is None else max_expansions
    pat_rows = []
    for qid, text, _k in queries:
        pat_rows += [f"('{qid}', '{p}')" for p in text.split()]
    qterms_sql = f"""qpat(query_id, pattern) AS (VALUES {', '.join(pat_rows)}),
qexpand AS (
  SELECT query_id, term FROM (
    SELECT p.query_id, p.pattern, d.term,
           row_number() OVER (PARTITION BY p.query_id, p.pattern
                              ORDER BY d.df DESC, d.term ASC) AS rn
    FROM qpat p JOIN dfs d ON regexp_full_match(d.term, p.pattern)
  ) WHERE rn <= {cap}
),
qterms AS (SELECT DISTINCT query_id, term FROM qexpand)"""
    return bm25_topk_sql(queries=queries, k1=k1, b=b, qterms_sql=qterms_sql)


# Wildcard query set: trailing-* (prefix) and leading-* (suffix)
# patterns over the same corpus — single prefix, cap-exercising prefix
# ("s*" matches 6 vocabulary terms, MAX_EXPANSIONS=4 binds), mixed
# prefix+exact, absent prefix, two prefixes, and a no-wildcard
# degenerate (== plain bm25).
WILDCARD_QUERIES = (
    ("w01", "mer*", 10),
    ("w02", "s*", 10),
    ("w03", "cust* order", 10),
    ("w04", "zz*", 10),
    ("w05", "ta* val*", 10),
    ("w06", "the merge", 10),
    # leading-wildcard (suffix) patterns: simple, cap-binding ("*e"
    # matches 5 vocabulary terms, MAX_EXPANSIONS=4 binds), and a
    # both-sided token with no matches either way
    ("w07", "*er", 10),
    ("w08", "*e sort", 10),
    ("w09", "*zq*", 10),
)


# Fuzzy query set (MAX_FUZZY_DIST=2, MAX_FUZZY_EXPANSIONS=2 over the
# synthetic vocabulary): simple dist-1 miss, cap-binding 6-candidate
# neighborhood ("bat"), exact term that the df cap would drop but the
# distance-0 rule keeps ("fast": part/hash out-df it), no-candidate
# probe, two fuzzy terms, and in-vocabulary terms whose d<=2
# neighborhoods are themselves alone (== plain bm25 for that pair).
FUZZY_QUERIES = (
    ("f01", "merg", 10),
    ("f02", "bat", 10),
    ("f03", "fast stream", 10),
    ("f04", "zzzzzz", 10),
    ("f05", "dta ort", 10),
    ("f06", "customer window", 10),
)


# Metadata-filter query set (docvalues.py clauses; 4-tuples — the 4th
# element is the clause conjunction): role equality, tool turns with a
# specific tool, a ts upper bound, a ts range window, an IN set, an
# absent-term probe, and a != exclusion.  Timestamps are ISO strings
# converted ONCE by docvalues.ts_us for both the engine and the SQL.
FILTER_QUERIES = (
    ("fl01", "merge sort", 10, (("role", "=", "user"),)),
    ("fl02", "the", 10, (("role", "=", "tool"), ("tool", "=", "search"))),
    ("fl03", "customer", 10, (("ts_us", "<", "2025-01-05 00:00:00"),)),
    (
        "fl04",
        "merge",
        10,
        (
            ("ts_us", ">=", "2025-01-03 00:00:00"),
            ("ts_us", "<", "2025-01-10 00:00:00"),
        ),
    ),
    ("fl05", "the window", 10, (("role", "in", ("user", "assistant")),)),
    ("fl06", "zzzabsent", 10, (("role", "=", "user"),)),
    ("fl07", "stream fast", 10, (("role", "!=", "assistant"),)),
)


# Sort-by-field query set (5-tuples: + clause conjunction + desc flag):
# recency (ts desc), oldest-first, a filtered sort (ES query+filter+
# sort in one request), and an absent-term probe.
SORT_QUERIES = (
    ("sr01", "merge sort", 10, (), True),
    ("sr02", "the", 5, (), False),
    ("sr03", "customer window", 10, (("role", "=", "user"),), True),
    ("sr04", "zzzabsent", 10, (), True),
)


# Boost query set: explicit boost, zero boost (term contributes 0 but
# its docs stay candidates), fractional pair, duplicate-term max rule
# ("merge merge^3" -> 3), and the all-unboosted degenerate (== bm25).
BOOST_QUERIES = (
    ("x01", "merge^2 sort", 10),
    ("x02", "merge^0 sort", 10),
    ("x03", "the^0.5 merge^1.5", 10),
    ("x04", "merge merge^3", 10),
    ("x05", "merge sort", 10),
)


def parse_boost_query(query_text: str) -> dict:
    """``term^W`` -> {term: boost}: each whitespace token splits on its
    first ``^`` (before tokenization — the caret would be eaten by the
    normalizer), the stem goes through the body tokenizer (possibly
    yielding several terms, each getting the boost), a missing or
    unparsable suffix means 1.0, and a term seen with several boosts
    keeps the largest.  Shared verbatim by the engine and
    :func:`boost_topk_sql`."""
    boosts: dict = {}
    for tok in query_text.split():
        stem, sep, w_txt = tok.partition("^")
        w = 1.0
        if sep:
            try:
                w = float(w_txt)
            except ValueError:
                w = 1.0
        toks, _ = normalize.tokenize_column(pa.array([stem]), "body")
        for t in toks.tolist():
            boosts[t] = max(boosts.get(t, w), w)
    return boosts


def boost_topk_sql(queries=BOOST_QUERIES, k1: float = 1.2, b: float = 0.75) -> str:
    """Oracle for the ``bm25_boost`` mode: the weighted qterms relation
    comes from the same :func:`parse_boost_query`, and the BM25 chain
    multiplies each term's contribution by its boost."""
    rows = []
    for qid, text, _k in queries:
        for t, w in sorted(parse_boost_query(text).items()):
            rows.append(f"('{qid}', '{t}', {w!r})")
    qterms_sql = f"qterms(query_id, term, w) AS (VALUES {', '.join(rows)})"
    return bm25_topk_sql(
        queries=queries, k1=k1, b=b, qterms_sql=qterms_sql, weighted=True
    )


# Boolean query set: +MUST / -MUST_NOT / bare SHOULD — must+should,
# should+not, two-must+not, all-should degenerate (== plain bm25),
# pure-negative (matches nothing), absent must term (empty), and a
# +t -t contradiction (empty).
BOOLEAN_QUERIES = (
    ("b01", "+merge sort", 10),
    ("b02", "merge -sort", 10),
    ("b03", "+merge +sort -window", 10),
    ("b04", "merge sort", 10),
    ("b05", "-merge", 10),
    ("b06", "+zzqq merge", 10),
    ("b07", "+merge -merge", 10),
)


def parse_boolean_query(query_text: str):
    """Split a raw query into (must, must_not, should) term lists, each
    sorted+deduped.  A whitespace token's leading ``+``/``-`` sets its
    clause; the remainder goes through the body tokenizer (a stripped
    token may yield several terms, or none).  Shared verbatim by the
    engine and :func:`boolean_topk_sql` so parsing can never diverge."""
    buckets = {"+": [], "-": [], "": []}
    for tok in query_text.split():
        op = tok[0] if tok[:1] in ("+", "-") else ""
        stem = tok[1:] if op else tok
        toks, _ = normalize.tokenize_column(pa.array([stem]), "body")
        buckets[op].extend(toks.tolist())
    return (
        sorted(set(buckets["+"])),
        sorted(set(buckets["-"])),
        sorted(set(buckets[""])),
    )


def boolean_topk_sql(
    queries=BOOLEAN_QUERIES, k1: float = 1.2, b: float = 0.75
) -> str:
    """Oracle for the ``bm25_bool`` mode: BM25 sums over the
    (MUST ∪ SHOULD) terms, restricted to documents matching every MUST
    term (distinct-matched-count == the query's MUST count) and no
    MUST_NOT term (anti-join on the doc's token set)."""
    must_rows, not_rows, pos_rows = [], [], []
    for qid, text, _k in queries:
        must, must_not, should = parse_boolean_query(text)
        must_rows += [f"('{qid}', '{t}')" for t in must]
        not_rows += [f"('{qid}', '{t}')" for t in must_not]
        pos_rows += [f"('{qid}', '{t}')" for t in sorted(set(must) | set(should))]

    def _rel(name, rows):
        if rows:
            return f"{name}(query_id, term) AS (VALUES {', '.join(rows)})"
        return f"{name}(query_id, term) AS (SELECT NULL, NULL WHERE false)"

    return f"""
WITH {corpus_ctes()},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
{_rel('qmust', must_rows)},
{_rel('qnot', not_rows)},
{_rel('qterms', pos_rows)},
scores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  WHERE NOT EXISTS (
    SELECT 1 FROM tfs x JOIN qnot n ON n.query_id = q.query_id AND n.term = x.term
    WHERE x.conv_id = t.conv_id AND x.turn_idx = t.turn_idx
  )
  GROUP BY q.query_id, t.conv_id, t.turn_idx
  HAVING count(DISTINCT CASE WHEN t.term IN
           (SELECT term FROM qmust m WHERE m.query_id = q.query_id)
         THEN t.term END)
       = (SELECT count(*) FROM qmust m2 WHERE m2.query_id = q.query_id)
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scores
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


# More-like-this sources: (query_id, conv_id, turn_idx, k).  The conv
# ids exist at every test scale factor (both sf0.001 and sf0.01 carry
# convs 0..499) and the turn indexes are within every sf's per-conv
# turn count — fixture-stable across the driver's scales.
MLT_SOURCES = (
    ("m01", "conv-00000003", 1, 10),
    ("m02", "conv-00000010", 0, 10),
    ("m03", "conv-00000031", 2, 10),
)


def mlt_sql(
    sources=MLT_SOURCES,
    k1: float = 1.2,
    b: float = 0.75,
    max_terms: int | None = None,
) -> str:
    """Oracle for :meth:`SegmentIndex.more_like_this`: the source turn's
    term vector comes from the ``tfs`` CTE (== the doc-store text
    re-tokenized, by construction), the tf·idf term cut is a windowed
    rank (rounded score desc, term asc — the engine's exact rule), and
    the expansion scores through the standard BM25 chain excluding the
    source turn itself."""
    cap = SegmentIndex.MLT_TERMS if max_terms is None else max_terms
    vals = ", ".join(f"('{qid}', '{c}', {t}, {k})" for qid, c, t, k in sources)
    return f"""
WITH {corpus_ctes()},
sources(query_id, s_conv, s_turn, qk) AS (VALUES {vals}),
qterms AS (
  SELECT query_id, term FROM (
    SELECT s.query_id, t.term,
           row_number() OVER (PARTITION BY s.query_id
             ORDER BY round(t.tf * ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5)), {RANK_ROUND}) DESC,
                      t.term ASC) AS rn
    FROM sources s
    JOIN tfs t ON t.conv_id = s.s_conv AND t.turn_idx = s.s_turn
    JOIN dfs d ON d.term = t.term
    CROSS JOIN gstats g
  ) WHERE rn <= {cap}
),
scores AS (
  SELECT q.query_id, t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  JOIN sources s ON s.query_id = q.query_id
  CROSS JOIN gstats g
  WHERE NOT (t.conv_id = s.s_conv AND t.turn_idx = s.s_turn)
  GROUP BY q.query_id, t.conv_id, t.turn_idx
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scores
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN sources s ON s.query_id = r.query_id
WHERE r.rank <= s.qk
ORDER BY r.query_id, r.rank
"""


def parse_wildcard_query(query_text: str):
    """Split a raw query into (exact_terms, prefixes, suffixes), each
    sorted+deduped.

    A whitespace token ending in ``*`` is a prefix pattern; one
    STARTING with ``*`` is a suffix pattern (``*fix``); a token that is
    both (``*x*``) contributes its stem to both sets.  Stems are
    lowercased and stripped to the body tokenizer's alphabet (pure
    a-z, matching what can exist in the dictionary); empty stems drop
    out.  The remaining tokens go through the body tokenizer exactly
    as plain ``bm25`` mode does.  Shared verbatim by the engine and
    the oracle generator so parsing can never diverge between them.
    """
    raw = query_text.split()
    prefixes, suffixes = set(), set()
    for t in raw:
        if not (t.endswith("*") or t.startswith("*")):
            continue
        stem = "".join(ch for ch in t.lower() if "a" <= ch <= "z")
        if not stem:
            continue
        if t.endswith("*"):
            prefixes.add(stem)
        if t.startswith("*"):
            suffixes.add(stem)
    rest = " ".join(t for t in raw if not (t.endswith("*") or t.startswith("*")))
    toks, _ = normalize.tokenize_column(pa.array([rest]), "body")
    return sorted(set(toks.tolist())), sorted(prefixes), sorted(suffixes)


# ---------------------------------------------------------------------------
# DuckDB oracle SQL (composes corpus/normalize SQL mirrors)
# ---------------------------------------------------------------------------


def _queries_values(queries=REFERENCE_QUERIES) -> str:
    return ", ".join(f"('{qid}', '{text}', {k})" for qid, text, k in queries)


def _qterms_values(queries=REFERENCE_QUERIES, dedup=True) -> str:
    """Explode query texts to (query_id, term[, mult]) VALUES.

    Tokens come from the BODY ANALYZER — the same
    ``normalize.tokenize_column`` call the engine's scorers make —
    never a re-derived ``lower().split()`` (the shared-parse
    invariant; identical on the all-lowercase-alpha fixtures, but a
    punctuated query would silently diverge under a split)."""
    rows = []
    for qid, text, _k in queries:
        toks_arr, _ = normalize.tokenize_column(pa.array([text]), "body")
        toks = toks_arr.tolist()
        if dedup:
            for t in sorted(set(toks)):
                rows.append(f"('{qid}', '{t}')")
        else:
            from collections import Counter

            for t, c in sorted(Counter(toks).items()):
                rows.append(f"('{qid}', '{t}', {c})")
    return ", ".join(rows)


def corpus_ctes(corpus_pred: str | None = None) -> str:
    """Shared CTE chain: transcripts -> body tokens -> tf/dl/df/stats.

    ``corpus_pred`` (SQL boolean over conv_id/turn_idx/text) removes
    matching turns from the corpus itself — every downstream statistic
    recomputes, mirroring a rebuild after ``deletes.vacuum_index``.
    """
    tsql = corpus.transcripts_sql()
    if corpus_pred:
        tsql = f"SELECT * FROM ({tsql}) WHERE NOT ({corpus_pred})"
    return f"""
transcripts AS ({tsql}),
tokens AS (
  SELECT conv_id, turn_idx, tok.term
  FROM transcripts, {normalize.tokens_sql('text', 'body')}
  WHERE {normalize.tokens_keep_sql('tok.term', 'body')}
),
tfs AS (
  SELECT conv_id, turn_idx, term, CAST(count(*) AS BIGINT) AS tf
  FROM tokens GROUP BY conv_id, turn_idx, term
),
doclen AS (
  SELECT conv_id, turn_idx, count(*) AS dl FROM tokens GROUP BY conv_id, turn_idx
),
dfs AS (SELECT term, count(*) AS df FROM tfs GROUP BY term),
gstats AS (
  SELECT (SELECT count(*) FROM transcripts) AS n,
         (SELECT count(*) FROM tokens) * 1.0 / (SELECT count(*) FROM transcripts) AS avgdl
)"""


def bm25_topk_sql(
    queries=REFERENCE_QUERIES,
    k1: float = 1.2,
    b: float = 0.75,
    mask_pred: str | None = None,
    corpus_pred: str | None = None,
    conjunctive: bool = False,
    qterms_sql: str | None = None,
    page: int = 1,
    weighted: bool = False,
    meta_case: str | None = None,
    deleted_sql: str | None = None,
) -> str:
    """Full oracle query for the BM25 reference-query evaluation.

    ``page`` selects global ranks (page-1)·k+1 .. page·k, re-ranked
    1..k within the page — the mirror of :meth:`SegmentIndex.topk_after`
    cursor pagination.

    ``mask_pred`` (SQL boolean over t.conv_id) drops matching docs from
    the *ranking only* — stats stay full-corpus, mirroring tombstoned
    deletes before vacuum.  ``corpus_pred`` filters the corpus itself
    (see :func:`corpus_ctes`) — the post-vacuum / rebuild semantics.
    ``conjunctive`` keeps only documents matching EVERY query term
    (the ``bm25_and`` scoring mode).  ``qterms_sql`` replaces the
    literal per-query term VALUES with a caller-built CTE chain that
    must end in ``qterms(query_id, term)`` — how the wildcard oracle
    injects its df-capped dictionary expansion.  ``weighted`` expects
    qterms to carry a third ``w`` column and multiplies each term's
    BM25 contribution by it (the ``bm25_boost`` oracle).  ``meta_case``
    (SQL boolean over q.query_id and transcripts alias ``m``, built by
    :func:`docvalues.filters_case_sql`) joins each candidate's
    transcripts row and keeps only rows passing its query's metadata
    filter — the ``bm25_filtered`` oracle (stats stay full-corpus,
    exactly like the engine's filter-context semantics).
    """
    where_parts = []
    if mask_pred:
        where_parts.append(f"NOT ({mask_pred.replace('conv_id', 't.conv_id')})")
    if deleted_sql:
        # ``deleted_sql`` is a full SELECT yielding one conv_id column —
        # the delete-by-query mask (subqueries can't ride mask_pred,
        # whose textual conv_id -> t.conv_id rewrite would mangle them)
        where_parts.append("t.conv_id NOT IN (SELECT conv_id FROM dbq_deleted)")
    if meta_case:
        where_parts.append(meta_case)
    mask = ("WHERE " + " AND ".join(where_parts)) if where_parts else ""
    deleted_cte = (
        f"dbq_deleted AS MATERIALIZED ({deleted_sql})," if deleted_sql else ""
    )
    meta_join = (
        "JOIN transcripts m ON m.conv_id = t.conv_id AND m.turn_idx = t.turn_idx"
        if meta_case
        else ""
    )
    wmul = "q.w * " if weighted else ""
    having = (
        "HAVING count(DISTINCT t.term) = "
        "(SELECT count(*) FROM qterms q2 WHERE q2.query_id = q.query_id)"
        if conjunctive
        else ""
    )
    qterms_clause = (
        qterms_sql
        if qterms_sql is not None
        else f"qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)})"
    )
    return f"""
WITH {corpus_ctes(corpus_pred)},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
{qterms_clause},
{deleted_cte}
scores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( {wmul}ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  {meta_join}
  {mask}
  GROUP BY q.query_id, t.conv_id, t.turn_idx
  {having}
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scores
)
SELECT r.query_id, CAST(r.rank - q.qk * {page - 1} AS INTEGER) AS rank,
       r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank > q.qk * {page - 1} AND r.rank <= q.qk * {page}
ORDER BY r.query_id, rank
"""


def lm_topk_sql(queries=REFERENCE_QUERIES, mu: float | None = None) -> str:
    """Oracle for :meth:`SegmentIndex._score_lm_dirichlet` — the
    Dirichlet query-likelihood score recomputed from first principles
    over the tokenized corpus (cf from a ``cfs`` CTE, TT from tokens).
    Division order mirrors the engine exactly:
    ``tf / (mu * (cf / tt))`` then ``mu / (dl + mu)``."""
    mu = LM_MU if mu is None else mu
    return f"""
WITH {corpus_ctes()},
cfs AS (SELECT term, CAST(sum(tf) AS BIGINT) AS cf FROM tfs GROUP BY term),
tstats AS (SELECT count(*) * 1.0 AS tt FROM tokens),
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
scores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + t.tf / ({mu} * (c.cf / ts.tt)))
              + ln({mu} / (dl.dl + {mu})) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN cfs c ON c.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN tstats ts
  GROUP BY q.query_id, t.conv_id, t.turn_idx
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scores
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, rank
"""


def tfidf_topk_sql(queries=REFERENCE_QUERIES) -> str:
    """Oracle for :meth:`SegmentIndex._score_tfidf_classic` — classic
    TF-IDF with the coordination factor.  ``count(*)`` per (query, doc)
    group counts matched distinct terms (tfs has one row per doc-term
    and qterms is deduped); the denominator counts ALL the query's
    distinct terms including OOV ones, matching the engine's
    ``len(terms)``."""
    return f"""
WITH {corpus_ctes()},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
scores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( sqrt(t.tf) * pow(1 + ln(g.n / (d.df + 1)), 2) / sqrt(dl.dl) )
         * (count(*) * 1.0 / (SELECT count(*) FROM qterms q2 WHERE q2.query_id = q.query_id)) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, t.conv_id, t.turn_idx
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scores
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, rank
"""


def filtered_topk_sql(queries=FILTER_QUERIES, k1: float = 1.2, b: float = 0.75) -> str:
    """bm25_topk_sql with each query's doc-values clause conjunction
    applied — the :meth:`SegmentIndex.topk_filtered` mirror.  The clause
    SQL comes from docvalues.filters_case_sql (shared representation)."""
    from . import docvalues

    base = tuple((q[0], q[1], q[2]) for q in queries)
    return bm25_topk_sql(
        queries=base, k1=k1, b=b, meta_case=docvalues.filters_case_sql(queries)
    )


def sorted_topk_sql(queries=SORT_QUERIES, page: int = 1) -> str:
    """Mirror of :meth:`SegmentIndex.topk_sorted`: match-any candidates
    per query, each query's clause filter, ordered by epoch_us(ts) in
    the query's direction with (conv_id, turn_idx) tie-break == docid
    ascending (zero-padded conv ids sort identically as strings and
    codec integers).  ``page`` windows global sort ranks
    (page-1)·k+1..page·k re-ranked 1..k — the
    :meth:`SegmentIndex.topk_sorted_after` mirror."""
    from . import docvalues

    base = tuple((q[0], q[1], q[2]) for q in queries)
    qvals = ", ".join(
        f"('{qid}', {k}, {'TRUE' if sdesc else 'FALSE'})"
        for qid, _t, k, _c, sdesc in queries
    )
    fcase = docvalues.filters_case_sql(queries, alias="m", qid_col="c.query_id")
    return f"""
WITH {corpus_ctes()},
queries(query_id, qk, sdesc) AS (VALUES {qvals}),
qterms(query_id, term) AS (VALUES {_qterms_values(base, dedup=True)}),
cands AS (
  SELECT DISTINCT q.query_id, t.conv_id, t.turn_idx
  FROM qterms q JOIN tfs t ON t.term = q.term
),
ranked AS (
  SELECT c.query_id,
         CAST(row_number() OVER (
           PARTITION BY c.query_id
           ORDER BY CASE WHEN qq.sdesc THEN -epoch_us(m.ts)
                         ELSE epoch_us(m.ts) END,
                    c.conv_id, c.turn_idx) AS INTEGER) AS rank,
         c.conv_id, CAST(c.turn_idx AS INTEGER) AS turn_idx,
         epoch_us(m.ts) AS ts_us
  FROM cands c
  JOIN transcripts m ON m.conv_id = c.conv_id AND m.turn_idx = c.turn_idx
  JOIN queries qq ON qq.query_id = c.query_id
  WHERE {fcase}
)
SELECT r.query_id, CAST(r.rank - q.qk * {page - 1} AS INTEGER) AS rank,
       r.conv_id, r.turn_idx, r.ts_us
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank > q.qk * {page - 1} AND r.rank <= q.qk * {page}
ORDER BY r.query_id, rank
"""


def collapsed_topk_sql(queries=REFERENCE_QUERIES, k1: float = 1.2, b: float = 0.75) -> str:
    """Mirror of :meth:`SegmentIndex.topk_collapsed`: per (query, conv)
    the best turn — (rounded score desc, turn asc) — survives, then the
    survivors rank globally exactly like plain BM25."""
    return f"""
WITH {corpus_ctes()},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
scores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, t.conv_id, t.turn_idx
),
best AS (
  SELECT query_id, conv_id, turn_idx, score,
         row_number() OVER (
           PARTITION BY query_id, conv_id
           ORDER BY round(score, {RANK_ROUND}) DESC, turn_idx) AS rn
  FROM scores
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM best WHERE rn = 1
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, rank
"""


def wildcard_topk_sql(
    queries=WILDCARD_QUERIES,
    k1: float = 1.2,
    b: float = 0.75,
    max_expansions: int | None = None,
) -> str:
    """Oracle for the ``bm25_wild`` mode: per-prefix (``LIKE p||'%'``)
    and per-suffix (``LIKE '%'||s`` — the leading-wildcard patterns)
    dictionary expansions, each capped to the ``max_expansions``
    highest-df terms (ties: term asc) — the exact rules of
    :meth:`SegmentIndex.expand_prefix` / :meth:`expand_suffix` —
    unioned with the exact terms, deduped per query, then scored by
    the plain disjunctive BM25 chain.

    Query parsing goes through :func:`parse_wildcard_query` (the same
    function the engine calls), so tokenization can never diverge; the
    expansion itself re-derives from the ``dfs`` CTE, which equals the
    index dictionary's df for the text field by construction.  Stems
    are pure a-z (the parser strips everything else), so the LIKE
    patterns are metacharacter-safe.
    """
    cap = SegmentIndex.MAX_EXPANSIONS if max_expansions is None else max_expansions
    exact_rows, prefix_rows, suffix_rows = [], [], []
    for qid, text, _k in queries:
        exact, prefixes, suffixes = parse_wildcard_query(text)
        exact_rows += [f"('{qid}', '{t}')" for t in exact]
        prefix_rows += [f"('{qid}', '{p}')" for p in prefixes]
        suffix_rows += [f"('{qid}', '{s}')" for s in suffixes]

    # degenerate-but-valid empty relations keep the SQL well-formed for
    # all-wildcard or no-wildcard query sets
    def _rel(name, col, rows):
        if rows:
            return f"{name}(query_id, {col}) AS (VALUES {', '.join(rows)})"
        return f"{name}(query_id, {col}) AS (SELECT NULL, NULL WHERE false)"

    qterms_sql = f"""{_rel('qexact', 'term', exact_rows)},
{_rel('qprefix', 'prefix', prefix_rows)},
{_rel('qsuffix', 'suffix', suffix_rows)},
qexpand AS (
  SELECT query_id, term FROM (
    SELECT p.query_id, p.prefix, d.term,
           row_number() OVER (PARTITION BY p.query_id, p.prefix
                              ORDER BY d.df DESC, d.term ASC) AS rn
    FROM qprefix p JOIN dfs d ON d.term LIKE p.prefix || '%'
  ) WHERE rn <= {cap}
),
qexpand_s AS (
  SELECT query_id, term FROM (
    SELECT s.query_id, s.suffix, d.term,
           row_number() OVER (PARTITION BY s.query_id, s.suffix
                              ORDER BY d.df DESC, d.term ASC) AS rn
    FROM qsuffix s JOIN dfs d ON d.term LIKE '%' || s.suffix
  ) WHERE rn <= {cap}
),
qterms AS (
  SELECT DISTINCT query_id, term
  FROM (SELECT query_id, term FROM qexact
        UNION ALL SELECT query_id, term FROM qexpand
        UNION ALL SELECT query_id, term FROM qexpand_s)
)"""
    return bm25_topk_sql(queries=queries, k1=k1, b=b, qterms_sql=qterms_sql)


def fuzzy_topk_sql(
    queries=FUZZY_QUERIES,
    k1: float = 1.2,
    b: float = 0.75,
    max_dist: int | None = None,
    max_expansions: int | None = None,
) -> str:
    """Oracle for the ``bm25_fuzzy`` mode: per-query-term dictionary
    neighborhood within ``max_dist`` edits (DuckDB ``levenshtein`` ==
    :func:`_levenshtein`, pinned by the suggest property test), capped
    to the ``max_expansions`` highest-df (ties: term asc) with the
    distance-0 exact term always kept — the exact rule of
    :meth:`SegmentIndex.expand_fuzzy` — then the plain disjunctive BM25
    chain over the deduped union."""
    dist = SegmentIndex.MAX_FUZZY_DIST if max_dist is None else max_dist
    cap = SegmentIndex.MAX_FUZZY_EXPANSIONS if max_expansions is None else max_expansions
    raw_rows = []
    for qid, text, _k in queries:
        toks, _ = normalize.tokenize_column(pa.array([text]), "body")
        raw_rows += [f"('{qid}', '{t}')" for t in sorted(set(toks.tolist()))]
    qterms_sql = f"""qraw(query_id, qterm) AS (VALUES {', '.join(raw_rows)}),
qexpand AS (
  SELECT query_id, term FROM (
    SELECT q.query_id, q.qterm, d.term,
           row_number() OVER (PARTITION BY q.query_id, q.qterm
                              ORDER BY d.df DESC, d.term ASC) AS rn
    FROM qraw q JOIN dfs d ON levenshtein(q.qterm, d.term) <= {dist}
  ) WHERE rn <= {cap} OR term = qterm
),
qterms AS (SELECT DISTINCT query_id, term FROM qexpand)"""
    return bm25_topk_sql(queries=queries, k1=k1, b=b, qterms_sql=qterms_sql)


def phrase_topk_sql(
    queries=REFERENCE_QUERIES, k1: float = 1.2, b: float = 0.75
) -> str:
    """Oracle for the exact-phrase mode: the conjunctive BM25 scores
    restricted to docs whose space-joined kept-token stream contains
    the space-guarded tokenized phrase as a substring (== adjacency in
    order over kept tokens — the engine's rule verbatim)."""
    from . import normalize as _n

    phr_rows = []
    for qid, text, _k in queries:
        toks, _ = _n.tokenize_column(pa.array([text]), "body")
        phr_rows.append(f"('{qid}', '{' '.join(toks.tolist())}')")
    keep = _n.tokens_keep_sql("t", "body")
    return f"""
WITH {corpus_ctes()},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
qphrase(query_id, phrase) AS (VALUES {', '.join(phr_rows)}),
streams AS (
  SELECT conv_id, turn_idx,
         array_to_string(list_filter(string_split(trim({_n.norm_expr_sql('text', 'body')}), ' '),
                                     t -> {keep}), ' ') AS stream
  FROM transcripts
),
scores0 AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, t.conv_id, t.turn_idx
  HAVING count(DISTINCT t.term) = (SELECT count(*) FROM qterms q2 WHERE q2.query_id = q.query_id)
),
scores AS (
  SELECT s.query_id, s.conv_id, s.turn_idx, s.score
  FROM scores0 s
  JOIN streams st ON st.conv_id = s.conv_id AND st.turn_idx = s.turn_idx
  JOIN qphrase p ON p.query_id = s.query_id
  WHERE strpos(' ' || st.stream || ' ', ' ' || p.phrase || ' ') > 0
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scores
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


def _qterms_mode_values(queries, mode: str) -> str | None:
    """(query_id, term) VALUES with terms produced by the FIELD's own
    tokenizer mode (BM25F tokenizes the query per field)."""
    rows = []
    for qid, text, _k in queries:
        toks, _ = normalize.tokenize_column(pa.array([text]), mode)
        for t in sorted(set(toks.tolist())):
            rows.append(f"('{qid}', '{t}')")
    return ", ".join(rows) if rows else None


def bm25f_topk_sql(
    queries=REFERENCE_QUERIES,
    k1: float = 1.2,
    b: float = 0.75,
    weights=SegmentIndex.BM25F_WEIGHTS,
) -> str:
    """Oracle for the BM25F scoring mode: per-field BM25 chains (each
    field's own tokenizer/df/avgdl; N = turn count for every field)
    weighted and summed."""
    field_cols = {"text": ("text", "body"), "tool": ("tool", "tool")}
    ctes = [f"transcripts AS ({corpus.transcripts_sql()})",
            "n AS (SELECT count(*) AS n FROM transcripts)"]
    contribs = []
    for field, weight in weights:
        col, mode = field_cols[field]
        f = field
        ctes.append(
            f"tokens_{f} AS (SELECT conv_id, turn_idx, tok.term FROM transcripts, "
            f"{normalize.tokens_sql(col, mode)} "
            f"WHERE {normalize.tokens_keep_sql('tok.term', mode)})"
        )
        ctes.append(
            f"tfs_{f} AS (SELECT conv_id, turn_idx, term, CAST(count(*) AS BIGINT) AS tf "
            f"FROM tokens_{f} GROUP BY conv_id, turn_idx, term)"
        )
        ctes.append(
            f"dl_{f} AS (SELECT conv_id, turn_idx, count(*) AS dl "
            f"FROM tokens_{f} GROUP BY conv_id, turn_idx)"
        )
        ctes.append(f"dfs_{f} AS (SELECT term, count(*) AS df FROM tfs_{f} GROUP BY term)")
        ctes.append(
            f"g_{f} AS (SELECT (SELECT count(*) FROM tokens_{f}) * 1.0 / "
            f"(SELECT n FROM n) AS avgdl)"
        )
        vals = _qterms_mode_values(queries, mode)
        if vals is None:
            ctes.append(
                f"qt_{f}(query_id, term) AS "
                "(SELECT CAST(NULL AS VARCHAR), CAST(NULL AS VARCHAR) WHERE FALSE)"
            )
        else:
            ctes.append(f"qt_{f}(query_id, term) AS (VALUES {vals})")
        contribs.append(f"""
  SELECT q.query_id, t.conv_id, t.turn_idx,
         {weight} * ln(1 + (n.n - d.df + 0.5) / (d.df + 0.5))
         * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) AS score
  FROM qt_{f} q
  JOIN tfs_{f} t ON t.term = q.term
  JOIN dfs_{f} d ON d.term = q.term
  JOIN dl_{f} dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN n CROSS JOIN g_{f} g""")
    cte_sql = ",\n".join(ctes)
    union = "\n  UNION ALL\n".join(contribs)
    return f"""
WITH {cte_sql},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
contrib AS ({union}),
scores AS (
  SELECT query_id, conv_id, turn_idx, sum(score) AS score
  FROM contrib GROUP BY query_id, conv_id, turn_idx
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scores
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


def dis_max_topk_sql(
    queries=REFERENCE_QUERIES,
    k1: float = 1.2,
    b: float = 0.75,
    tie: float = SegmentIndex.DIS_MAX_TIE,
) -> str:
    """Oracle for the ``dis_max`` scoring mode: the per-field BM25
    chains of :func:`bm25f_topk_sql` (unweighted), combined per doc as
    ``max(fscore) + tie · (sum(fscore) - max(fscore))``."""
    field_cols = {"text": ("text", "body"), "tool": ("tool", "tool")}
    ctes = [f"transcripts AS ({corpus.transcripts_sql()})",
            "n AS (SELECT count(*) AS n FROM transcripts)"]
    contribs = []
    for field, _w in SegmentIndex.BM25F_WEIGHTS:
        col, mode = field_cols[field]
        f = field
        ctes.append(
            f"tokens_{f} AS (SELECT conv_id, turn_idx, tok.term FROM transcripts, "
            f"{normalize.tokens_sql(col, mode)} "
            f"WHERE {normalize.tokens_keep_sql('tok.term', mode)})"
        )
        ctes.append(
            f"tfs_{f} AS (SELECT conv_id, turn_idx, term, CAST(count(*) AS BIGINT) AS tf "
            f"FROM tokens_{f} GROUP BY conv_id, turn_idx, term)"
        )
        ctes.append(
            f"dl_{f} AS (SELECT conv_id, turn_idx, count(*) AS dl "
            f"FROM tokens_{f} GROUP BY conv_id, turn_idx)"
        )
        ctes.append(f"dfs_{f} AS (SELECT term, count(*) AS df FROM tfs_{f} GROUP BY term)")
        ctes.append(
            f"g_{f} AS (SELECT (SELECT count(*) FROM tokens_{f}) * 1.0 / "
            f"(SELECT n FROM n) AS avgdl)"
        )
        vals = _qterms_mode_values(queries, mode)
        if vals is None:
            ctes.append(
                f"qt_{f}(query_id, term) AS "
                "(SELECT CAST(NULL AS VARCHAR), CAST(NULL AS VARCHAR) WHERE FALSE)"
            )
        else:
            ctes.append(f"qt_{f}(query_id, term) AS (VALUES {vals})")
        contribs.append(f"""
  SELECT q.query_id, t.conv_id, t.turn_idx, '{f}' AS field,
         ln(1 + (n.n - d.df + 0.5) / (d.df + 0.5))
         * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) AS score
  FROM qt_{f} q
  JOIN tfs_{f} t ON t.term = q.term
  JOIN dfs_{f} d ON d.term = q.term
  JOIN dl_{f} dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN n CROSS JOIN g_{f} g""")
    cte_sql = ",\n".join(ctes)
    union = "\n  UNION ALL\n".join(contribs)
    return f"""
WITH {cte_sql},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
contrib AS ({union}),
fscores AS (
  SELECT query_id, conv_id, turn_idx, field, sum(score) AS fscore
  FROM contrib GROUP BY query_id, conv_id, turn_idx, field
),
scores AS (
  SELECT query_id, conv_id, turn_idx,
         max(fscore) + {tie} * (sum(fscore) - max(fscore)) AS score
  FROM fscores GROUP BY query_id, conv_id, turn_idx
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scores
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


def cross_fields_topk_sql(
    queries=REFERENCE_QUERIES,
    k1: float = 1.2,
    b: float = 0.75,
) -> str:
    """Oracle for the ``cross_fields`` scoring mode: the per-field BM25
    chains of :func:`dis_max_topk_sql`, but combined per (doc, TERM) as
    the max over fields, then summed over terms — term-centric where
    dis_max is field-centric."""
    field_cols = {"text": ("text", "body"), "tool": ("tool", "tool")}
    ctes = [f"transcripts AS ({corpus.transcripts_sql()})",
            "n AS (SELECT count(*) AS n FROM transcripts)"]
    contribs = []
    for field, _w in SegmentIndex.BM25F_WEIGHTS:
        col, mode = field_cols[field]
        f = field
        ctes.append(
            f"tokens_{f} AS (SELECT conv_id, turn_idx, tok.term FROM transcripts, "
            f"{normalize.tokens_sql(col, mode)} "
            f"WHERE {normalize.tokens_keep_sql('tok.term', mode)})"
        )
        ctes.append(
            f"tfs_{f} AS (SELECT conv_id, turn_idx, term, CAST(count(*) AS BIGINT) AS tf "
            f"FROM tokens_{f} GROUP BY conv_id, turn_idx, term)"
        )
        ctes.append(
            f"dl_{f} AS (SELECT conv_id, turn_idx, count(*) AS dl "
            f"FROM tokens_{f} GROUP BY conv_id, turn_idx)"
        )
        ctes.append(f"dfs_{f} AS (SELECT term, count(*) AS df FROM tfs_{f} GROUP BY term)")
        ctes.append(
            f"g_{f} AS (SELECT (SELECT count(*) FROM tokens_{f}) * 1.0 / "
            f"(SELECT n FROM n) AS avgdl)"
        )
        vals = _qterms_mode_values(queries, mode)
        if vals is None:
            ctes.append(
                f"qt_{f}(query_id, term) AS "
                "(SELECT CAST(NULL AS VARCHAR), CAST(NULL AS VARCHAR) WHERE FALSE)"
            )
        else:
            ctes.append(f"qt_{f}(query_id, term) AS (VALUES {vals})")
        contribs.append(f"""
  SELECT q.query_id, t.conv_id, t.turn_idx, q.term,
         ln(1 + (n.n - d.df + 0.5) / (d.df + 0.5))
         * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) AS score
  FROM qt_{f} q
  JOIN tfs_{f} t ON t.term = q.term
  JOIN dfs_{f} d ON d.term = q.term
  JOIN dl_{f} dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN n CROSS JOIN g_{f} g""")
    cte_sql = ",\n".join(ctes)
    union = "\n  UNION ALL\n".join(contribs)
    return f"""
WITH {cte_sql},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
contrib AS ({union}),
tscores AS (
  SELECT query_id, conv_id, turn_idx, term, max(score) AS tscore
  FROM contrib GROUP BY query_id, conv_id, turn_idx, term
),
scores AS (
  SELECT query_id, conv_id, turn_idx, sum(tscore) AS score
  FROM tscores GROUP BY query_id, conv_id, turn_idx
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scores
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


def faithful_topk_sql(queries=REFERENCE_QUERIES, mask_pred: str | None = None) -> str:
    """Oracle for the faithful (reference-formula) scoring mode.

    ``mask_pred`` (SQL boolean over bare conv_id) = tombstone-masked
    ranking: contribs (and their df/N stats) stay full-corpus; matching
    docs drop from the final scores only.
    """
    mask = f"WHERE NOT ({mask_pred})" if mask_pred else ""
    return f"""
WITH transcripts AS ({corpus.transcripts_sql()}),
tokens_text AS (
  SELECT DISTINCT conv_id, turn_idx, tok.term
  FROM transcripts, {normalize.tokens_sql('text', 'body')}
  WHERE {normalize.tokens_keep_sql('tok.term', 'body')}
),
tokens_tool AS (
  SELECT DISTINCT conv_id, turn_idx, tok.term
  FROM transcripts, {normalize.tokens_sql('tool', 'tool')}
  WHERE {normalize.tokens_keep_sql('tok.term', 'tool')}
),
df_text AS (SELECT term, count(*) AS df FROM tokens_text GROUP BY term),
df_tool AS (SELECT term, count(*) AS df FROM tokens_tool GROUP BY term),
n AS (SELECT count(*) AS n FROM transcripts),
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
qtokens(query_id, term, mult) AS (VALUES {_qterms_values(queries, dedup=False)}),
contrib AS (
  SELECT q.query_id, tt.conv_id, tt.turn_idx,
         q.mult * 1.5 * ln(n.n / (1.0 + d.df)) AS score
  FROM qtokens q
  JOIN tokens_text tt ON tt.term = q.term
  JOIN df_text d ON d.term = q.term CROSS JOIN n
  UNION ALL
  SELECT q.query_id, tl.conv_id, tl.turn_idx,
         q.mult * 1.0 * ln(n.n / (1.0 + d.df)) AS score
  FROM qtokens q
  JOIN tokens_tool tl ON tl.term = q.term
  JOIN df_tool d ON d.term = q.term CROSS JOIN n
),
scores AS (
  SELECT query_id, conv_id, turn_idx, sum(score) AS score
  FROM contrib {mask} GROUP BY query_id, conv_id, turn_idx
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scores
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


# ---------------------------------------------------------------------------
# sharded batch evaluation — the multi-node query architecture
# ---------------------------------------------------------------------------


class PartitionScorer:
    """Actor-pool stage: one batch of partition ids -> (query_id, docid,
    partial score) rows for every reference query.

    The index is term-partitioned, so one document's score contributions
    live in many partitions; each actor loads ONLY its partitions'
    dictionaries/segments (here: lazily via mmap — at cluster scale each
    node holds a partition subset) and the per-doc reduction is a
    downstream groupby((query_id, docid)).sum shuffle.  This is the
    serving path for indexes larger than any single node; the
    single-node path (``SegmentIndex`` per actor) stays preferable while
    the index fits.
    """

    def __init__(self, index_dir: str, queries):
        import pyarrow.parquet as pq_

        self.index_dir = index_dir
        manifest = json.load(open(os.path.join(index_dir, "manifest.json")))
        self.k1 = manifest["config"]["k1"]
        self.b = manifest["config"]["b"]
        self.gs = manifest["global_stats"]
        # query terms (deduped, sorted — the pinned accumulation order)
        self.queries = [
            (qid, sorted(set(normalize.tokenize_column(pa.array([text]), "body")[0].tolist())))
            for qid, text, _k in queries
        ]
        # resolve idf for the query terms ONLY (query-sized dict, not a
        # whole-vocabulary map per actor): one vectorized searchsorted
        # against the sorted text-field term column
        import pyarrow.compute as pc_

        ts = pq_.read_table(
            os.path.join(index_dir, "terms_stats.parquet"),
            columns=["field", "term", "idf"],
        )
        sub = ts.filter(pc_.equal(ts["field"], "text"))
        order = pc_.sort_indices(sub["term"])
        sub = sub.take(order)
        vocab = sub["term"].to_numpy(zero_copy_only=False)
        idfs = sub["idf"].to_numpy()
        qterms = sorted({t for _qid, ts_ in self.queries for t in ts_})
        pos = np.searchsorted(vocab, np.array(qterms, object)) if len(vocab) else np.empty(0, np.int64)
        self.idf = {}
        for t, p in zip(qterms, pos):
            if p < len(vocab) and vocab[p] == t:
                self.idf[("text", t)] = float(idfs[p])

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq_

        out_q, out_d, out_s = [], [], []
        for part in batch["part"].to_pylist():
            part_dir = os.path.join(self.index_dir, "parts", f"part-{int(part):05d}")
            tdict = pq_.read_table(os.path.join(part_dir, "terms.parquet"))
            data = np.memmap(
                os.path.join(part_dir, "postings.bin"), dtype=np.uint8, mode="r"
            )
            # index this partition's runs by (field, term)
            runs = {}
            for f, t, off, nb in zip(
                tdict["field"].to_pylist(),
                tdict["term"].to_pylist(),
                tdict["offset"].to_pylist(),
                tdict["nbytes"].to_pylist(),
            ):
                runs.setdefault((f, t), []).append((off, nb))
            for qid, terms in self.queries:
                for t in terms:
                    for off, nb in runs.get(("text", t), ()):
                        docids, tfs, dls = segments.decode_run(data[off : off + nb])
                        sc = segments.bm25_term_scores(
                            tfs, dls, self.idf[("text", t)], self.gs["text"]["avgdl"],
                            self.k1, self.b,
                        )
                        out_q.append(np.full(len(docids), qid, object))
                        out_d.append(docids)
                        out_s.append(sc)
        if not out_q:
            return pa.table(
                {"query_id": pa.array([], pa.string()), "docid": pa.array([], pa.int64()), "partial": pa.array([], pa.float64())}
            )
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), pa.string()),
                "docid": pa.array(np.concatenate(out_d), pa.int64()),
                "partial": pa.array(np.concatenate(out_s), pa.float64()),
            }
        )


def batch_evaluate_sharded(index_dir: str, queries=REFERENCE_QUERIES) -> pd.DataFrame:
    """Distributed BM25 evaluation: partition-parallel scoring ->
    (query_id, docid) score reduction -> per-query top-k.

    Same results as the single-node scorer (the driver checks it against
    the identical SQL oracle as topk_bm25).
    """
    import ray.data as rd
    from ray.data.aggregate import Sum

    manifest = json.load(open(os.path.join(index_dir, "manifest.json")))
    parts = [p["partition"] for p in manifest["partitions"]]
    codec = DocIdCodec.from_table(
        pq.read_table(os.path.join(index_dir, "convmap.parquet"))
    )
    kmap = {qid: k for qid, _t, k in queries}

    from .analysis import scan_pool

    # one actor per ~4 index partitions, pool width scaling with the
    # cluster (this op exists for indexes larger than a node — a fixed
    # 2-actor pool defeated it at the scale it exists for)
    partials = rd.from_items([{"part": p} for p in parts]).map_batches(
        PartitionScorer,
        fn_constructor_kwargs={"index_dir": index_dir, "queries": queries},
        batch_format="pyarrow",
        concurrency=scan_pool(n_items=-(-len(parts) // 4)),
        batch_size=4,
    )
    totals = partials.groupby(["query_id", "docid"]).aggregate(
        Sum("partial", alias_name="score")
    )

    def topk_group(group: pd.DataFrame) -> pd.DataFrame:
        qid = group["query_id"].iloc[0]
        k = int(kmap[qid])
        docids = group["docid"].to_numpy()
        scores = group["score"].to_numpy()
        r = round_half_up(scores, RANK_ROUND)
        order = np.lexsort((docids, -r))[:k]
        conv, turn = codec.decode(docids[order])
        return pd.DataFrame(
            {
                "query_id": np.full(len(order), qid, object),
                "rank": np.arange(1, len(order) + 1, dtype=np.int32),
                "conv_id": conv,
                "turn_idx": turn,
                "score": round_half_up(scores[order], SCORE_ROUND),
            }
        )

    out = totals.groupby("query_id").map_groups(topk_group, batch_format="pandas")
    return (
        out.to_pandas().sort_values(["query_id", "rank"]).reset_index(drop=True)
    )


#: explain fixture: the reference queries whose top-1 hit is explained
#: (q08 pins duplicate-query-term semantics: one breakdown row)
EXPLAIN_QUERIES = tuple(
    s for s in REFERENCE_QUERIES if s[0] in ("q02", "q05", "q06", "q08", "q10")
)


def batch_explain(index_dir: str, queries=EXPLAIN_QUERIES) -> pd.DataFrame:
    """Score explanation for each query's top-1 BM25 hit (gate
    ``search_explain``; oracle :func:`explain_sql`): the per-term tf /
    df / idf / contribution breakdown, contributions summing to the
    hit's score.  Driver-local over the warm index — explain is a
    per-document debug API (Lucene ``IndexSearcher.explain``), not a
    fleet operation."""
    idx = SegmentIndex(index_dir)
    out = []
    for qid, text, _k in queries:
        top = idx.topk(text, 1, "bm25")
        if not len(top):
            continue
        conv, turn = str(top.conv_id.iloc[0]), int(top.turn_idx.iloc[0])
        ex = idx.explain(text, conv, turn)
        ex.insert(0, "turn_idx", np.int32(turn))
        ex.insert(0, "conv_id", conv)
        ex.insert(0, "query_id", qid)
        out.append(ex)
    if not out:
        return pd.DataFrame(
            columns=["query_id", "conv_id", "turn_idx", "term", "tf", "df", "idf", "contrib"]
        )
    return pd.concat(out, ignore_index=True)


def explain_sql(queries=EXPLAIN_QUERIES, k1: float = 1.2, b: float = 0.75) -> str:
    """Mirror of :func:`batch_explain`: the BM25 chain picks each
    query's top-1 doc (same rank tie rule), then the per-term breakdown
    recomputes tf/df/idf/contribution for exactly that doc."""
    return f"""
WITH {corpus_ctes()},
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
contribs AS MATERIALIZED (
  -- referenced by both the top-1 pick and the breakdown: MATERIALIZED
  -- so the token chain evaluates once (see CLAUDE.md on CTE inlining)
  SELECT q.query_id, t.conv_id, t.turn_idx, q.term,
         CAST(t.tf AS BIGINT) AS tf, CAST(d.df AS BIGINT) AS df,
         ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5)) AS idf_raw,
         ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
           * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) AS contrib_raw
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
),
top1 AS (
  SELECT query_id, conv_id, turn_idx FROM (
    SELECT query_id, conv_id, turn_idx,
           row_number() OVER (
             PARTITION BY query_id
             ORDER BY round(sum(contrib_raw), {RANK_ROUND}) DESC, conv_id, turn_idx) AS rn
    FROM contribs GROUP BY query_id, conv_id, turn_idx
  ) WHERE rn = 1
)
SELECT c.query_id, c.conv_id, CAST(c.turn_idx AS INTEGER) AS turn_idx,
       c.term, c.tf, c.df,
       round(c.idf_raw, {SCORE_ROUND}) AS idf,
       round(c.contrib_raw, {SCORE_ROUND}) AS contrib
FROM top1 t1
JOIN contribs c ON c.query_id = t1.query_id
 AND c.conv_id = t1.conv_id AND c.turn_idx = t1.turn_idx
ORDER BY c.query_id, c.term
"""


#: query-time synonym map (the Lucene SynonymGraphFilter / ES
#: search-time ``synonym`` filter shape): groups are symmetric — any
#: member of a group pulls in the whole group.  Deliberately includes
#: out-of-vocabulary members ("combine", "rapid", "frame") to pin the
#: absent-synonym path (they expand, then score nothing).
SYNONYM_GROUPS = (
    ("merge", "join", "combine"),
    ("big", "large"),
    ("fast", "quick", "rapid"),
    ("window", "frame"),
)

#: y03 has no synonyms (identical to plain bm25 — pinned in pytest);
#: y04 expands one term into a multi-term disjunction
SYNONYM_QUERIES = (
    ("y01", "merge window", 10),
    ("y02", "big fast stream", 10),
    ("y03", "customer", 10),
    ("y04", "join", 10),
)


def expand_synonyms(query_text: str) -> list[str]:
    """ONE shared expansion function (engine scoring AND the oracle-SQL
    generator — per the repo rule that query parsing never re-derives
    inside SQL): tokenize, then union each token's synonym group; the
    deduped sorted result feeds the disjunctive BM25 accumulator (the
    SynonymQuery -> OR rewrite, like the wildcard/fuzzy modes)."""
    toks, _rows = normalize.tokenize_column(pa.array([query_text]), "body")
    terms = set(toks.tolist())
    out = set(terms)
    for grp in SYNONYM_GROUPS:
        if terms & set(grp):
            out.update(grp)
    return sorted(out)


def synonyms_topk_sql(
    queries=SYNONYM_QUERIES, k1: float = 1.2, b: float = 0.75
) -> str:
    """Oracle for the ``bm25_syn`` mode: the per-query term list IS the
    engine's own :func:`expand_synonyms` output (the map is query-time
    config, not corpus data), then the plain disjunctive BM25 chain;
    out-of-vocabulary synonyms join nothing, exactly like the engine's
    ``rank_of == -1`` skip."""
    rows = []
    for qid, text, _k in queries:
        rows += [f"('{qid}', '{t}')" for t in expand_synonyms(text)]
    qterms_sql = f"qterms(query_id, term) AS (VALUES {', '.join(rows)})"
    return bm25_topk_sql(queries=queries, k1=k1, b=b, qterms_sql=qterms_sql)


def rescored_topk_sql(
    queries=REFERENCE_QUERIES, k1: float = 1.2, b: float = 0.75
) -> str:
    """Mirror of :meth:`SegmentIndex.topk_rescored`: the plain BM25
    chain picks the top-RESCORE_WINDOW candidates (same rank rule),
    then ONLY those re-rank by round6-base + W·exp(-(t_max - ts)/TAU)
    with the window's own max ts_us as t_ref."""
    window = SegmentIndex.RESCORE_WINDOW
    w = SegmentIndex.RESCORE_W
    tau = SegmentIndex.RESCORE_TAU_US
    return f"""
WITH {corpus_ctes()},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
scores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, t.conv_id, t.turn_idx
),
wind AS (
  SELECT query_id, conv_id, turn_idx, round(score, {SCORE_ROUND}) AS base_score
  FROM (
    SELECT query_id, conv_id, turn_idx, score,
           row_number() OVER (
             PARTITION BY query_id
             ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS rn
    FROM scores
  ) WHERE rn <= {window}
),
resc AS (
  SELECT w2.query_id, w2.conv_id, w2.turn_idx, w2.base_score,
         w2.base_score + {w} * exp(
           -(max(epoch_us(m.ts)) OVER (PARTITION BY w2.query_id) - epoch_us(m.ts))
           / {tau}.0) AS comb
  FROM wind w2
  JOIN transcripts m ON m.conv_id = w2.conv_id AND m.turn_idx = w2.turn_idx
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(comb, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(comb, {SCORE_ROUND}) AS score, base_score
  FROM resc
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score, r.base_score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


def decay_topk_sql(
    queries=REFERENCE_QUERIES, k1: float = 1.2, b: float = 0.75, shape: str = "gauss"
) -> str:
    """Mirror of :meth:`SegmentIndex.topk_decayed`: the plain BM25
    chain over ALL candidates, each multiplied by the ``shape`` decay
    (gauss/exp/linear) of its ts against the query's own max candidate
    ts.  ``lam`` (or the linear span ``s``) is the engine's Python
    double inlined verbatim; the squared delta is written ``d*d`` so
    SQL and numpy run the same float64 ops."""
    import math

    scale = SegmentIndex.DECAY_SCALE_US
    offset = SegmentIndex.DECAY_OFFSET_US
    d = f"CAST(greatest(origin - ts - {offset}, 0) AS DOUBLE)"
    if shape == "gauss":
        lam = math.log(SegmentIndex.DECAY_AT_SCALE) / (float(scale) ** 2)
        mult = f"exp({lam!r} * ({d} * {d}))"
    elif shape == "exp":
        lam = math.log(SegmentIndex.DECAY_AT_SCALE) / float(scale)
        mult = f"exp({lam!r} * {d})"
    elif shape == "linear":
        s = float(scale) / (1.0 - SegmentIndex.DECAY_AT_SCALE)
        mult = f"greatest(({s!r} - {d}) / {s!r}, 0.0)"
    else:
        raise ValueError(shape)
    return f"""
WITH {corpus_ctes()},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
scores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, t.conv_id, t.turn_idx
),
tsd AS (
  SELECT s.query_id, s.conv_id, s.turn_idx, s.score, epoch_us(m.ts) AS ts,
         max(epoch_us(m.ts)) OVER (PARTITION BY s.query_id) AS origin
  FROM scores s
  JOIN transcripts m ON m.conv_id = s.conv_id AND m.turn_idx = s.turn_idx
),
dec AS (
  SELECT query_id, conv_id, turn_idx,
         score * {mult} AS score
  FROM tsd
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM dec
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


def script_score_topk_sql(
    queries=REFERENCE_QUERIES, k1: float = 1.2, b: float = 0.75
) -> str:
    """Mirror of :meth:`SegmentIndex.topk_script_score`: the plain BM25
    chain, each candidate multiplied by ``1 + w * ln(1 + turn_idx)``
    with the engine's weight inlined and the same float64 operand
    order (``1.0 + CAST(turn_idx AS DOUBLE)``)."""
    w = SegmentIndex.FVF_WEIGHT
    return f"""
WITH {corpus_ctes()},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
scores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, t.conv_id, t.turn_idx
),
fvf AS (
  SELECT query_id, conv_id, turn_idx,
         score * (1.0 + {w!r} * ln(1.0 + CAST(turn_idx AS DOUBLE))) AS score
  FROM scores
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM fvf
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


def rescore_query_topk_sql(
    queries=REFERENCE_QUERIES, k1: float = 1.2, b: float = 0.75, mu: float | None = None
) -> str:
    """Mirror of :meth:`SegmentIndex.topk_rescore_query`: primary BM25
    chain, window by its own (rounded desc, conv, turn) row_number,
    secondary LM-Dirichlet joined per (query, doc), blended inside the
    window only — weights inlined from the engine constants."""
    mu = LM_MU if mu is None else mu
    qw, rw, win = (
        SegmentIndex.RESCORE_QW,
        SegmentIndex.RESCORE_RW,
        SegmentIndex.RESCORE_WINDOW,
    )
    return f"""
WITH {corpus_ctes()},
cfs AS (SELECT term, CAST(sum(tf) AS BIGINT) AS cf FROM tfs GROUP BY term),
tstats AS (SELECT count(*) * 1.0 AS tt FROM tokens),
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
pscores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS p
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, t.conv_id, t.turn_idx
),
sscores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + t.tf / ({mu} * (c.cf / ts.tt)))
              + ln({mu} / (dl.dl + {mu})) ) AS s
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN cfs c ON c.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN tstats ts
  GROUP BY q.query_id, t.conv_id, t.turn_idx
),
windowed AS (
  SELECT p.*, row_number() OVER (
           PARTITION BY p.query_id
           ORDER BY round(p.p, {RANK_ROUND}) DESC, p.conv_id, p.turn_idx) AS prn
  FROM pscores p
),
blended AS (
  SELECT w.query_id, w.conv_id, w.turn_idx,
         CASE WHEN w.prn <= {win}
              THEN {qw!r} * w.p + {rw!r} * coalesce(s.s, 0.0)
              ELSE w.p END AS score
  FROM windowed w
  LEFT JOIN sscores s
    ON s.query_id = w.query_id AND s.conv_id = w.conv_id AND s.turn_idx = w.turn_idx
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM blended
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


#: has_child fixture: (query_id, user clause, assistant clause, k).
#: hc04 pins the empty-leg path (absent user term -> no conversations).
HAS_CHILD_QUERIES = (
    ("hc01", "merge", "window", 10),
    ("hc02", "hash join", "stream", 10),
    ("hc03", "customer", "the", 10),
    ("hc04", "zzzabsent", "merge", 10),
    ("hc05", "big fast", "sort merge", 10),
)


def batch_has_child(index_dir: str, queries=HAS_CHILD_QUERIES) -> pd.DataFrame:
    """Conversation-level has_child evaluation over the fixture set
    (gate ``topk_has_child``; oracle :func:`has_child_topk_sql`)."""
    idx = SegmentIndex(index_dir)
    out = []
    for qid, utext, atext, k in queries:
        df = idx.topk_has_child(utext, atext, int(k))
        df.insert(0, "query_id", qid)
        out.append(df)
    return pd.concat(out, ignore_index=True)


def has_child_topk_sql(
    queries=HAS_CHILD_QUERIES, k1: float = 1.2, b: float = 0.75
) -> str:
    """Mirror of :meth:`SegmentIndex.topk_has_child`: per-clause BM25
    over role-filtered turns, per-conversation max of the round-9
    score, clause inner join on (query, conv), sum, conv-ascending
    ties."""
    rows = []
    for qid, utext, atext, _k in queries:
        for clause, text in (("u", utext), ("a", atext)):
            toks, _r = normalize.tokenize_column(pa.array([text]), "body")
            rows += [
                f"('{qid}', '{clause}', '{t}')" for t in sorted(set(toks.tolist()))
            ]
    return f"""
WITH {corpus_ctes()},
queries(query_id, qk) AS (VALUES {", ".join(f"('{q[0]}', {int(q[3])})" for q in queries)}),
qc(query_id, clause, term) AS (VALUES {", ".join(rows)}),
scores AS (
  SELECT q.query_id, q.clause,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qc q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, q.clause, t.conv_id, t.turn_idx
),
role_ok AS (
  SELECT s.query_id, s.clause, s.conv_id, s.score
  FROM scores s
  JOIN transcripts m ON m.conv_id = s.conv_id AND m.turn_idx = s.turn_idx
  WHERE m.role = CASE s.clause WHEN 'u' THEN 'user' ELSE 'assistant' END
),
best AS (
  SELECT query_id, clause, conv_id, max(round(score, {RANK_ROUND})) AS best
  FROM role_ok GROUP BY query_id, clause, conv_id
),
paired AS (
  SELECT u.query_id, u.conv_id, u.best AS u_best, a.best AS a_best
  FROM (SELECT * FROM best WHERE clause = 'u') u
  JOIN (SELECT * FROM best WHERE clause = 'a') a
    ON a.query_id = u.query_id AND a.conv_id = u.conv_id
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY (u_best + a_best) DESC, conv_id) AS INTEGER) AS rank,
         conv_id,
         round(u_best + a_best, {SCORE_ROUND}) AS score,
         round(u_best, {SCORE_ROUND}) AS user_score,
         round(a_best, {SCORE_ROUND}) AS assistant_score
  FROM paired
)
SELECT r.query_id, r.rank, r.conv_id, r.score, r.user_score, r.assistant_score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


#: has_parent fixture: (query_id, parent/user clause, child/assistant
#: clause, k).  hp04 pins the empty-parent leg (absent user term ->
#: no conversations pass the filter).
HAS_PARENT_QUERIES = (
    ("hp01", "merge", "window", 10),
    ("hp02", "hash join", "stream", 10),
    ("hp03", "the", "customer", 10),
    ("hp04", "zzzabsent", "merge", 10),
    ("hp05", "big fast", "sort merge", 10),
)


def batch_has_parent(index_dir: str, queries=HAS_PARENT_QUERIES) -> pd.DataFrame:
    """Turn-level has_parent evaluation over the fixture set (gate
    ``topk_has_parent``; oracle :func:`has_parent_topk_sql`)."""
    idx = SegmentIndex(index_dir)
    out = []
    for qid, ptext, ctext, k in queries:
        df = idx.topk_has_parent(ptext, ctext, int(k))
        df.insert(0, "query_id", qid)
        out.append(df)
    return pd.concat(out, ignore_index=True)


def has_parent_topk_sql(
    queries=HAS_PARENT_QUERIES, k1: float = 1.2, b: float = 0.75
) -> str:
    """Mirror of :meth:`SegmentIndex.topk_has_parent`: per-clause BM25
    over role-filtered turns; parent clause reduces to a distinct conv
    filter, child clause ranks by its own score."""
    rows = []
    for qid, ptext, ctext, _k in queries:
        for clause, text in (("p", ptext), ("c", ctext)):
            toks, _r = normalize.tokenize_column(pa.array([text]), "body")
            rows += [
                f"('{qid}', '{clause}', '{t}')" for t in sorted(set(toks.tolist()))
            ]
    return f"""
WITH {corpus_ctes()},
queries(query_id, qk) AS (VALUES {", ".join(f"('{q[0]}', {int(q[3])})" for q in queries)}),
qc(query_id, clause, term) AS (VALUES {", ".join(rows)}),
scores AS (
  SELECT q.query_id, q.clause,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qc q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, q.clause, t.conv_id, t.turn_idx
),
parent_convs AS (
  SELECT DISTINCT s.query_id, s.conv_id
  FROM scores s
  JOIN transcripts m ON m.conv_id = s.conv_id AND m.turn_idx = s.turn_idx
  WHERE s.clause = 'p' AND m.role = 'user'
),
child AS (
  SELECT s.query_id, s.conv_id, s.turn_idx, s.score
  FROM scores s
  JOIN transcripts m ON m.conv_id = s.conv_id AND m.turn_idx = s.turn_idx
  JOIN parent_convs p ON p.query_id = s.query_id AND p.conv_id = s.conv_id
  WHERE s.clause = 'c' AND m.role = 'assistant'
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM child
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


def dbq_deleted_sql(query_text: str) -> str:
    """SELECT yielding the conv_ids a ``deletes.delete_by_query`` of
    ``query_text`` (mode bm25) tombstones — any-term candidate
    semantics over the same tokenizer, for
    ``bm25_topk_sql(deleted_sql=...)``."""
    toks, _rows = normalize.tokenize_column(pa.array([query_text]), "body")
    terms = ", ".join(f"'{t}'" for t in sorted(set(toks.tolist())))
    return f"SELECT DISTINCT conv_id FROM tfs WHERE term IN ({terms})"


#: minimum_should_match fixture: (query_id, boolean text, msm, k).
#: ms03 requires all three SHOULDs (conjunctive via the floor), ms04's
#: floor of 0 reduces to plain bm25_bool, ms05's floor exceeds the
#: SHOULD count (empty).
MSM_QUERIES = (
    ("ms01", "merge window stream", 2, 10),
    ("ms02", "+merge sort window fast", 2, 10),
    ("ms03", "hash join window", 3, 10),
    ("ms04", "merge window", 0, 10),
    ("ms05", "merge window", 3, 10),
)


def batch_min_should(index_dir: str, queries=MSM_QUERIES) -> pd.DataFrame:
    """minimum_should_match evaluation over the fixture set (gate
    ``topk_bm25_msm``; oracle :func:`msm_topk_sql`)."""
    idx = SegmentIndex(index_dir)
    out = []
    for qid, text, msm, k in queries:
        df = idx.topk_min_should(text, int(k), int(msm))
        df.insert(0, "query_id", qid)
        out.append(df)
    return pd.concat(out, ignore_index=True)


def msm_topk_sql(queries=MSM_QUERIES, k1: float = 1.2, b: float = 0.75) -> str:
    """Mirror of :meth:`SegmentIndex.topk_min_should`: the boolean
    oracle's HAVING algebra plus a per-query SHOULD-match floor
    (count of distinct matched SHOULD terms >= msm)."""
    must_rows, not_rows, should_rows, pos_rows, msm_rows = [], [], [], [], []
    for qid, text, msm, _k in queries:
        must, must_not, should = parse_boolean_query(text)
        must_rows += [f"('{qid}', '{t}')" for t in must]
        not_rows += [f"('{qid}', '{t}')" for t in must_not]
        should_rows += [f"('{qid}', '{t}')" for t in should]
        pos_rows += [f"('{qid}', '{t}')" for t in sorted(set(must) | set(should))]
        msm_rows.append(f"('{qid}', {int(msm)})")

    def _rel(name, rows):
        if rows:
            return f"{name}(query_id, term) AS (VALUES {', '.join(rows)})"
        return f"{name}(query_id, term) AS (SELECT NULL, NULL WHERE false)"

    q3 = tuple((qid, text, k) for qid, text, _m, k in queries)
    return f"""
WITH {corpus_ctes()},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(q3)}) v(query_id, qtext, k)),
{_rel('qmust', must_rows)},
{_rel('qnot', not_rows)},
{_rel('qshould', should_rows)},
qmsm(query_id, msm) AS (VALUES {', '.join(msm_rows)}),
{_rel('qterms', pos_rows)},
scores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  WHERE NOT EXISTS (
    SELECT 1 FROM tfs x JOIN qnot n ON n.query_id = q.query_id AND n.term = x.term
    WHERE x.conv_id = t.conv_id AND x.turn_idx = t.turn_idx
  )
  GROUP BY q.query_id, t.conv_id, t.turn_idx
  HAVING count(DISTINCT CASE WHEN t.term IN
           (SELECT term FROM qmust m WHERE m.query_id = q.query_id)
         THEN t.term END)
       = (SELECT count(*) FROM qmust m2 WHERE m2.query_id = q.query_id)
     AND count(DISTINCT CASE WHEN t.term IN
           (SELECT term FROM qshould s WHERE s.query_id = q.query_id)
         THEN t.term END)
       >= (SELECT msm FROM qmsm mm WHERE mm.query_id = q.query_id)
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scores
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


def batch_profile(index_dir: str, queries=REFERENCE_QUERIES) -> pd.DataFrame:
    """Query-execution profile (the deterministic core of ES
    ``profile: true``): per query the tokenized distinct term count,
    how many survived the dictionary, the postings an exhaustive
    ``bm25`` evaluation decoded (Σ df of those terms), the distinct
    candidate count, and the top rounded score.  A view over each
    query's :class:`QueryTrace` — the counters are what ran, and they
    hash-compare against SQL (gate ``search_profile``; oracle
    :func:`profile_sql`)."""
    idx = SegmentIndex(index_dir)
    rows = []
    for qid, text, k in queries:
        top = idx.topk(text, int(k), "bm25")
        tr = idx.last_trace
        top_score = float(top["score"].iloc[0]) if len(top) else 0.0
        rows.append((qid, tr.terms, tr.terms_matched, tr.postings_decoded, tr.candidates, top_score))
    counts = ["n_terms", "n_matched", "n_postings", "n_candidates"]
    return pd.DataFrame(rows, columns=["query_id", *counts, "top_score"]).astype(
        dict.fromkeys(counts, np.int64)
    )


def profile_sql(queries=REFERENCE_QUERIES, k1: float = 1.2, b: float = 0.75) -> str:
    """Mirror of :func:`batch_profile`: term counts from the qterms
    VALUES, df sums and candidate counts from the corpus CTEs, top
    score from the BM25 chain."""
    return f"""
WITH {corpus_ctes()},
queries(query_id) AS (SELECT query_id FROM (VALUES {_queries_values(queries)}) v(query_id, qtext, k)),
qterms(query_id, term) AS (VALUES {_qterms_values(queries, dedup=True)}),
nterms AS (SELECT query_id, count(*) AS n_terms FROM qterms GROUP BY query_id),
matched AS (
  SELECT q.query_id, count(*) AS n_matched, CAST(sum(d.df) AS BIGINT) AS n_postings
  FROM qterms q JOIN dfs d ON d.term = q.term GROUP BY q.query_id
),
cands AS (
  SELECT q.query_id, count(DISTINCT (t.conv_id, t.turn_idx)) AS n_candidates
  FROM qterms q JOIN tfs t ON t.term = q.term GROUP BY q.query_id
),
scores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, t.conv_id, t.turn_idx
),
tops AS (SELECT query_id, round(max(score), {SCORE_ROUND}) AS top_score FROM scores GROUP BY query_id)
SELECT q.query_id,
       CAST(n.n_terms AS BIGINT) AS n_terms,
       CAST(coalesce(m.n_matched, 0) AS BIGINT) AS n_matched,
       coalesce(m.n_postings, 0) AS n_postings,
       CAST(coalesce(c.n_candidates, 0) AS BIGINT) AS n_candidates,
       coalesce(t.top_score, 0.0) AS top_score
FROM queries q
JOIN nterms n ON n.query_id = q.query_id
LEFT JOIN matched m ON m.query_id = q.query_id
LEFT JOIN cands c ON c.query_id = q.query_id
LEFT JOIN tops t ON t.query_id = q.query_id
ORDER BY q.query_id
"""


#: match_phrase_prefix fixture: trailing token is the prefix.  pp03 is
#: a bare prefix (single-token phrases), pp04's prefix has no
#: completion (empty), pp05's prefix exercises the expansion cap.
PHRASE_PREFIX_QUERIES = (
    ("pp01", "sort mer", 10),
    ("pp02", "hash jo", 10),
    ("pp03", "windo", 10),
    ("pp04", "merge zzz", 10),
    ("pp05", "s", 10),
)


def batch_phrase_prefix(
    index_dir: str, queries=PHRASE_PREFIX_QUERIES
) -> pd.DataFrame:
    """match_phrase_prefix over the fixture set (gate
    ``topk_phrase_prefix``; oracle :func:`phrase_prefix_topk_sql`)."""
    idx = SegmentIndex(index_dir)
    out = []
    for qid, text, k in queries:
        df = idx.topk_phrase_prefix(text, int(k))
        df.insert(0, "query_id", qid)
        out.append(df)
    return pd.concat(out, ignore_index=True)


def phrase_prefix_topk_sql(
    queries=PHRASE_PREFIX_QUERIES,
    k1: float = 1.2,
    b: float = 0.75,
    max_expansions: int | None = None,
) -> str:
    """Mirror of :meth:`SegmentIndex.topk_phrase_prefix`: the prefix
    expansion re-derives from the ``dfs`` CTE ((df desc, term asc)
    windowed cap — :meth:`expand_prefix`'s exact rule), each completion
    forms a phrase whose conjunctive-BM25 + adjacency chain follows
    :func:`phrase_topk_sql` verbatim, and documents take the MAX over
    matching completions' round-6 phrase scores."""
    cap = SegmentIndex.MAX_EXPANSIONS if max_expansions is None else max_expansions
    fixed_rows, term_rows, pre_rows, q_rows = [], [], [], []
    for qid, text, k in queries:
        toks, _r = normalize.tokenize_column(pa.array([text]), "body")
        toks = toks.tolist()
        fixed = toks[:-1]
        q_rows.append(f"('{qid}', {int(k)})")
        pre_rows.append(f"('{qid}', '{toks[-1]}')")
        fixed_rows.append(f"('{qid}', '{' '.join(fixed)}')")
        term_rows += [f"('{qid}', '{t}')" for t in sorted(set(fixed))]
    fixed_terms_rel = (
        f"qfixed(query_id, term) AS (VALUES {', '.join(term_rows)})"
        if term_rows
        else "qfixed(query_id, term) AS (SELECT NULL, NULL WHERE false)"
    )
    keep = normalize.tokens_keep_sql("t", "body")
    return f"""
WITH {corpus_ctes()},
queries(query_id, qk) AS (VALUES {', '.join(q_rows)}),
qpre(query_id, prefix) AS (VALUES {', '.join(pre_rows)}),
qfp(query_id, fixed) AS (VALUES {', '.join(fixed_rows)}),
{fixed_terms_rel},
eterms AS (
  SELECT query_id, term AS eterm FROM (
    SELECT p.query_id, d.term,
           row_number() OVER (PARTITION BY p.query_id
                              ORDER BY d.df DESC, d.term ASC) AS rn
    FROM qpre p JOIN dfs d ON d.term LIKE p.prefix || '%'
  ) WHERE rn <= {cap}
),
xterms AS (
  SELECT e.query_id, e.eterm, f.term
  FROM eterms e JOIN qfixed f ON f.query_id = e.query_id
  UNION
  SELECT query_id, eterm, eterm FROM eterms
),
xcnt AS (
  SELECT query_id, eterm, count(DISTINCT term) AS n FROM xterms GROUP BY query_id, eterm
),
streams AS (
  SELECT conv_id, turn_idx,
         array_to_string(list_filter(string_split(trim({normalize.norm_expr_sql('text', 'body')}), ' '),
                                     t -> {keep}), ' ') AS stream
  FROM transcripts
),
escores AS (
  SELECT x.query_id, x.eterm,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM xterms x
  JOIN tfs t ON t.term = x.term
  JOIN dfs d ON d.term = x.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY x.query_id, x.eterm, t.conv_id, t.turn_idx
  HAVING count(DISTINCT t.term) =
         (SELECT n FROM xcnt c WHERE c.query_id = x.query_id AND c.eterm = x.eterm)
),
ematch AS (
  SELECT s.query_id, s.conv_id, s.turn_idx, s.score
  FROM escores s
  JOIN qfp f ON f.query_id = s.query_id
  JOIN streams st ON st.conv_id = s.conv_id AND st.turn_idx = s.turn_idx
  WHERE strpos(' ' || st.stream || ' ',
               ' ' || CASE WHEN f.fixed = '' THEN s.eterm
                           ELSE f.fixed || ' ' || s.eterm END || ' ') > 0
),
best AS (
  SELECT query_id, conv_id, turn_idx, max(round(score, {SCORE_ROUND})) AS score
  FROM ematch GROUP BY query_id, conv_id, turn_idx
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM best
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


#: boosting-query fixture: (query_id, positive text, negative text,
#: demote factor, k).  bq03's negative leg is absent (no demotion).
BOOSTING_QUERIES = (
    ("bq01", "merge", "window", 0.5, 10),
    ("bq02", "hash join", "sort", 0.25, 10),
    ("bq03", "customer", "zzzabsent", 0.5, 10),
)


def batch_boosting(index_dir: str, queries=BOOSTING_QUERIES) -> pd.DataFrame:
    """Boosting query (the ES ``boosting`` query): rank by the positive
    clause's BM25, DEMOTED by ``negative_boost`` for documents that
    also match any negative-clause term — documents are never excluded,
    only pushed down (gate ``topk_boosting``; oracle
    :func:`boosting_topk_sql`)."""
    idx = SegmentIndex(index_dir)
    out = []
    for qid, pos_text, neg_text, demote, k in queries:
        docids, scores = idx._score_bm25(pos_text)
        if len(docids):
            toks, _r = normalize.tokenize_column(pa.array([neg_text]), "body")
            neg = np.zeros(len(docids), bool)
            for t in sorted(set(toks.tolist())):
                post = idx.postings(t, "text")
                if post is not None:
                    neg |= np.isin(docids, post[0], assume_unique=True)
            scores = np.where(neg, scores * float(demote), scores)
        df = idx._format_topk(docids, scores, int(k))
        df.insert(0, "query_id", qid)
        out.append(df)
    return pd.concat(out, ignore_index=True)


def boosting_topk_sql(
    queries=BOOSTING_QUERIES, k1: float = 1.2, b: float = 0.75
) -> str:
    """Mirror of :func:`batch_boosting`: the positive BM25 chain, a
    negative-match EXISTS over tfs, demote factor applied pre-rounding."""
    pos_rows, neg_rows, dem_rows = [], [], []
    for qid, pos_text, neg_text, demote, k in queries:
        ptoks, _ = normalize.tokenize_column(pa.array([pos_text]), "body")
        ntoks, _ = normalize.tokenize_column(pa.array([neg_text]), "body")
        pos_rows += [f"('{qid}', '{t}')" for t in sorted(set(ptoks.tolist()))]
        neg_rows += [f"('{qid}', '{t}')" for t in sorted(set(ntoks.tolist()))]
        dem_rows.append(f"('{qid}', {float(demote)}, {int(k)})")
    neg_rel = (
        f"qneg(query_id, term) AS (VALUES {', '.join(neg_rows)})"
        if neg_rows
        else "qneg(query_id, term) AS (SELECT NULL, NULL WHERE false)"
    )
    return f"""
WITH {corpus_ctes()},
queries(query_id, demote, qk) AS (VALUES {', '.join(dem_rows)}),
qterms(query_id, term) AS (VALUES {', '.join(pos_rows)}),
{neg_rel},
scores0 AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, t.conv_id, t.turn_idx
),
scores AS (
  SELECT s.query_id, s.conv_id, s.turn_idx,
         s.score * CASE WHEN EXISTS (
           SELECT 1 FROM tfs x JOIN qneg n
             ON n.query_id = s.query_id AND n.term = x.term
           WHERE x.conv_id = s.conv_id AND x.turn_idx = s.turn_idx
         ) THEN q.demote ELSE 1.0 END AS score
  FROM scores0 s JOIN queries q ON q.query_id = s.query_id
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scores
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


#: dis_max fixture: texts mixing body vocabulary with tool names so the
#: best-field max genuinely switches per doc (dm02 is tool-only, dm03/
#: dm05 straddle both fields, dm06 is the empty leg).
DIS_MAX_QUERIES = (
    ("dm01", "merge", 10),
    ("dm02", "python", 10),
    ("dm03", "merge python", 10),
    ("dm04", "search editor", 10),
    ("dm05", "hash join bash", 10),
    ("dm06", "zzzabsent", 10),
)


def batch_dis_max(index_dir: str, queries=DIS_MAX_QUERIES) -> pd.DataFrame:
    """dis_max / multi_match best_fields evaluation over the fixture
    set (gate ``topk_dis_max``; oracle :func:`dis_max_topk_sql`)."""
    idx = SegmentIndex(index_dir)
    out = []
    for qid, text, k in queries:
        df = idx.topk(text, int(k), "dis_max")
        df.insert(0, "query_id", qid)
        out.append(df)
    return pd.concat(out, ignore_index=True)


def batch_cross_fields(index_dir: str, queries=DIS_MAX_QUERIES) -> pd.DataFrame:
    """multi_match cross_fields evaluation over the multi-field fixture
    set (gate ``topk_cross_fields``; oracle
    :func:`cross_fields_topk_sql`)."""
    idx = SegmentIndex(index_dir)
    out = []
    for qid, text, k in queries:
        df = idx.topk(text, int(k), "cross_fields")
        df.insert(0, "query_id", qid)
        out.append(df)
    return pd.concat(out, ignore_index=True)


def batch_most_fields(index_dir: str, queries=DIS_MAX_QUERIES) -> pd.DataFrame:
    """multi_match most_fields evaluation over the multi-field fixture
    set (gate ``topk_most_fields``; oracle ``dis_max_topk_sql(tie=1.0)``
    — the sum-over-fields combination IS dis_max at tie 1.0)."""
    idx = SegmentIndex(index_dir)
    out = []
    for qid, text, k in queries:
        df = idx.topk(text, int(k), "most_fields")
        df.insert(0, "query_id", qid)
        out.append(df)
    return pd.concat(out, ignore_index=True)


#: seeded random-score fixture (the function_score random_score shape):
#: candidates of the text, ranked by a seed-keyed deterministic hash
RANDOM_QUERIES = (
    ("rs01", "merge", 7, 10),
    ("rs02", "the", 42, 10),
    ("rs03", "hash join", 7, 10),
)


def batch_random_score(index_dir: str, queries=RANDOM_QUERIES) -> pd.DataFrame:
    """Seeded random scoring (ES ``function_score`` / ``random_score``
    with a seed): the query's candidates rank by the shared md5int60
    hash of (seed, conv, turn) scaled to [0, 1) — deterministic, so
    even the "random" order hash-compares against SQL (gate
    ``topk_random_score``; oracle :func:`random_score_sql`).  The
    serving use is unbiased hit-set sampling with stable pagination."""
    idx = SegmentIndex(index_dir)
    from .analysis import md5int60_np

    out = []
    for qid, text, seed, k in queries:
        docids, _sc = idx._score_bm25(text)
        conv, turn = idx.codec.decode(docids)
        keys = np.array(
            [f"{seed}|{c}|{t}" for c, t in zip(conv, turn)], object
        )
        rnd = md5int60_np(keys) / float(1 << 60) if len(keys) else np.empty(0)
        df = idx._format_topk(docids, rnd, int(k))
        df.insert(0, "query_id", qid)
        out.append(df)
    return pd.concat(out, ignore_index=True)


def random_score_sql(queries=RANDOM_QUERIES) -> str:
    """Mirror of :func:`batch_random_score`: candidate set from tfs,
    score = md5int60(seed|conv|turn) / 2^60."""
    from .analysis import md5int60_sql

    q_rows, term_rows = [], []
    for qid, text, seed, k in queries:
        toks, _ = normalize.tokenize_column(pa.array([text]), "body")
        q_rows.append(f"('{qid}', {int(seed)}, {int(k)})")
        term_rows += [f"('{qid}', '{t}')" for t in sorted(set(toks.tolist()))]
    expr = md5int60_sql(
        "CAST(q.seed AS VARCHAR) || '|' || c.conv_id || '|' || CAST(c.turn_idx AS VARCHAR)"
    )
    return f"""
WITH {corpus_ctes()},
queries(query_id, seed, qk) AS (VALUES {', '.join(q_rows)}),
qterms(query_id, term) AS (VALUES {', '.join(term_rows)}),
cands AS (
  SELECT DISTINCT qt.query_id, t.conv_id, t.turn_idx
  FROM qterms qt JOIN tfs t ON t.term = qt.term
),
scored AS (
  SELECT c.query_id, c.conv_id, c.turn_idx,
         {expr} / 1152921504606846976.0 AS score
  FROM cands c JOIN queries q ON q.query_id = c.query_id
),
ranked AS (
  SELECT query_id,
         CAST(row_number() OVER (
           PARTITION BY query_id
           ORDER BY round(score, {RANK_ROUND}) DESC, conv_id, turn_idx) AS INTEGER) AS rank,
         conv_id, CAST(turn_idx AS INTEGER) AS turn_idx,
         round(score, {SCORE_ROUND}) AS score
  FROM scored
)
SELECT r.query_id, r.rank, r.conv_id, r.turn_idx, r.score
FROM ranked r JOIN queries q ON q.query_id = r.query_id
WHERE r.rank <= q.qk
ORDER BY r.query_id, r.rank
"""


# ---------------------------------------------------------------------------
# pinned query (the ES pinned / "promoted results" query): editorially
# chosen documents rank first in their given order, organic BM25 fills
# the remainder — the search-merchandising surface
# ---------------------------------------------------------------------------

#: (query_id, text, k, ((conv_id, turn_idx), ...)) — turn 0 pins only:
#: conv ids are shared across sf scales but per-conv turn counts are not
PINNED_QUERIES = (
    ("p01", "merge", 10, (("conv-00000005", 0), ("conv-00000011", 0))),
    ("p02", "hash join", 10, (("conv-00000002", 0),)),
    # query with no organic hits: the result is exactly the pins
    ("p03", "zzzabsent", 5, (("conv-00000007", 0), ("conv-00000001", 0))),
)


def topk_pinned(idx: "SegmentIndex", query_text: str, k: int, pinned) -> pd.DataFrame:
    """Pinned evaluation: the ``pinned`` (conv_id, turn_idx) list ranks
    1..p in its GIVEN order — even documents the query never matched
    (score 0, the ES semantics) — and organic BM25 continues at p+1
    with pinned docs excluded.  Pinned scores report the organic BM25
    value where one exists, so the emitted frame stays score-auditable
    rather than inventing ES's 1.7e38 sentinel."""
    docids, scores = idx._score_bm25(query_text)
    pids = idx.codec.encode(
        np.array([c for c, _ in pinned]), np.array([t for _, t in pinned], np.int64)
    )
    rows = []
    pos = np.searchsorted(docids, pids)
    for i, pid in enumerate(pids):
        sc = 0.0
        if pos[i] < len(docids) and docids[pos[i]] == pid:
            sc = float(scores[pos[i]])
        rows.append(
            (
                np.int32(i + 1),
                pinned[i][0],
                np.int32(pinned[i][1]),
                float(round_half_up(np.float64(sc), SCORE_ROUND)),
            )
        )
    head = pd.DataFrame(rows, columns=["rank", "conv_id", "turn_idx", "score"])
    keep = ~np.isin(docids, pids)
    tail = idx._format_topk(docids[keep], scores[keep], max(0, k - len(pids)))
    tail["rank"] = (tail["rank"] + len(pids)).astype(np.int32)
    out = pd.concat([head, tail], ignore_index=True)
    return out.astype({"rank": np.int32, "turn_idx": np.int32}, errors="ignore")


def batch_pinned(index_dir: str, queries=PINNED_QUERIES) -> pd.DataFrame:
    """Pinned evaluation over the fixture set (gate ``topk_pinned``;
    oracle :func:`pinned_topk_sql`)."""
    idx = SegmentIndex(index_dir)
    out = []
    for qid, text, k, pins in queries:
        df = topk_pinned(idx, text, int(k), pins)
        df.insert(0, "query_id", qid)
        out.append(df)
    return pd.concat(out, ignore_index=True)


def pinned_topk_sql(queries=PINNED_QUERIES, k1: float = 1.2, b: float = 0.75) -> str:
    """Mirror of :func:`topk_pinned`: pins LEFT-JOIN their organic
    score (coalesce 0), organic rows exclude pins and offset their
    row_number by the query's pin count."""
    base = tuple((q[0], q[1], q[2]) for q in queries)
    pin_values = ", ".join(
        f"('{qid}', '{c}', {t}, {i + 1})"
        for qid, _t, _k, pins in queries
        for i, (c, t) in enumerate(pins)
    )
    np_values = ", ".join(f"('{q[0]}', {len(q[3])})" for q in queries)
    return f"""
WITH {corpus_ctes()},
queries(query_id, qk) AS (SELECT query_id, k FROM (VALUES {_queries_values(base)}) v(query_id, qtext, k)),
qterms(query_id, term) AS (VALUES {_qterms_values(base, dedup=True)}),
pins(query_id, conv_id, turn_idx, pidx) AS (VALUES {pin_values}),
npins(query_id, np) AS (VALUES {np_values}),
scores AS (
  SELECT q.query_id,
         t.conv_id, t.turn_idx,
         sum( ln(1 + (g.n - d.df + 0.5) / (d.df + 0.5))
              * (t.tf * ({k1} + 1)) / (t.tf + {k1} * (1 - {b} + {b} * dl.dl / g.avgdl)) ) AS score
  FROM qterms q
  JOIN tfs t ON t.term = q.term
  JOIN dfs d ON d.term = q.term
  JOIN doclen dl ON dl.conv_id = t.conv_id AND dl.turn_idx = t.turn_idx
  CROSS JOIN gstats g
  GROUP BY q.query_id, t.conv_id, t.turn_idx
),
head AS (
  SELECT p.query_id, p.pidx AS rank, p.conv_id, p.turn_idx,
         round(coalesce(s.score, 0), {SCORE_ROUND}) AS score
  FROM pins p
  LEFT JOIN scores s ON s.query_id = p.query_id
        AND s.conv_id = p.conv_id AND s.turn_idx = p.turn_idx
),
organic AS (
  SELECT s.query_id,
         row_number() OVER (PARTITION BY s.query_id
           ORDER BY round(s.score, {RANK_ROUND}) DESC, s.conv_id, s.turn_idx) AS rn,
         s.conv_id, s.turn_idx, round(s.score, {SCORE_ROUND}) AS score
  FROM scores s
  WHERE NOT EXISTS (SELECT 1 FROM pins p WHERE p.query_id = s.query_id
                    AND p.conv_id = s.conv_id AND p.turn_idx = s.turn_idx)
)
SELECT query_id, CAST(rank AS INTEGER) AS rank, conv_id,
       CAST(turn_idx AS INTEGER) AS turn_idx, score
FROM (
  SELECT * FROM head
  UNION ALL
  SELECT o.query_id, o.rn + n.np AS rank, o.conv_id, o.turn_idx, o.score
  FROM organic o JOIN npins n ON n.query_id = o.query_id
  JOIN queries q ON q.query_id = o.query_id
  WHERE o.rn <= q.qk - n.np
)
ORDER BY query_id, rank
"""
