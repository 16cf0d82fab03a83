"""Doc-values companion: columnar per-doc METADATA point lookups.

Lucene stores filterable/sortable per-document fields column-wise next
to the inverted index (DocValues); Elasticsearch's ``filter`` context,
``range`` queries, ``sort`` and doc-value-backed aggregations all read
them instead of the corpus.  The reference has no metadata columns (its
rowkey is the URL, ``kvs/Worker.java`` storage model) — this module is
the transcript-corpus analog: ``role`` / ``tool`` / ``ts`` live beside
the index as docid-RANGE-sharded, docid-sorted Parquet (the exact
docstore layout, docstore.py), and query-time filter/sort evaluation is
a candidate-bounded vectorized lookup.

Scale shape: corpus-sized on disk, but every query touches only the
shards spanning its candidate docid range (binary search over shard
bounds; Parquet row-group stats prune within a shard).  Filters
evaluate as numpy masks over the candidates' metadata — never a corpus
scan.  A serving actor caches only the shards its queries hit.

Filter clauses are STRUCTURED tuples ``(column, op, value)`` consumed
by BOTH the engine (:meth:`DocValues.mask`, numpy) and the oracle-SQL
generator (:func:`clauses_sql`) — one representation, two emitters, per
the expansion-mode rule (CLAUDE.md): never re-derive predicate
semantics inside SQL.  Timestamps compare as exact int64 microseconds
on both sides (``ts_us`` column here, ``epoch_us(ts)`` in DuckDB).
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import uuid
from datetime import datetime, timezone

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from . import build
from .docids import DocIdCodec
from .query import InvalidRequest

DIRNAME = "docvalues"

#: metadata columns projected out of a transcripts Dataset; ts becomes
#: ts_us (int64 microseconds) so comparisons are exact integers
COLUMNS = ("role", "tool", "ts_us")


def ts_us(iso: str) -> int:
    """ISO timestamp string -> int64 UTC microseconds (the engine's
    ``ts_us`` representation AND the value oracle SQL compares
    ``epoch_us(ts)`` against — one conversion for both emitters)."""
    dt = datetime.fromisoformat(iso)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1_000_000)


def _fingerprint(index_fp: str, num_shards: int) -> str:
    # v2: writer assigns shards by searchsorted over the SAME bounds the
    # reader maps with (a multiplicative assignment disagrees at floor
    # boundaries — boundary docids silently miss)
    # v3: shards stamp (ts monotone-in-docid, ts min/max) so the sorted
    # query path can prove index-sort order and early-terminate
    return hashlib.sha256(
        f"docvalues|v3|{index_fp}|{num_shards}|{','.join(COLUMNS)}".encode()
    ).hexdigest()[:16]


class _ShardWriter:
    """map_groups fn: one shard's rows -> docid-sorted parquet file."""

    def __init__(self, out_dir, fp):
        self.__name__ = "DocValuesShardWriter"
        self.out_dir = out_dir
        self.fp = fp

    def __call__(self, group: pd.DataFrame) -> pd.DataFrame:
        shard = int(group["shard"].iloc[0])
        path = os.path.join(self.out_dir, f"shard-{shard:05d}.parquet")
        if os.path.isfile(path):
            meta = pq.read_schema(path).metadata or {}
            if meta.get(b"raystorm.docvalues_fp") == self.fp.encode():
                # resume: the ts-order stamps ride the finished file
                return pd.DataFrame(
                    [
                        {
                            "shard": shard,
                            "rows": len(group),
                            "resumed": True,
                            "ts_mono": int(meta.get(b"raystorm.ts_mono", b"0")),
                            "ts_min": int(meta.get(b"raystorm.ts_min", b"-1")),
                            "ts_max": int(meta.get(b"raystorm.ts_max", b"-1")),
                        }
                    ]
                )
        g = group.sort_values("docid")
        ts = g["ts_us"].to_numpy(np.int64)
        mono = int(len(ts) < 2 or bool((np.diff(ts) >= 0).all()))
        ts_min = int(ts.min()) if len(ts) else -1
        ts_max = int(ts.max()) if len(ts) else -1
        t = pa.table(
            {
                "docid": pa.array(g["docid"].to_numpy(np.int64)),
                "role": pa.array(g["role"].tolist(), pa.string()),
                "tool": pa.array(g["tool"].tolist(), pa.string()),
                "ts_us": pa.array(ts),
            }
        )
        t = t.replace_schema_metadata(
            {
                b"raystorm.docvalues_fp": self.fp.encode(),
                b"raystorm.ts_mono": str(mono).encode(),
                b"raystorm.ts_min": str(ts_min).encode(),
                b"raystorm.ts_max": str(ts_max).encode(),
            }
        )
        tmp = path + f".tmp-{uuid.uuid4().hex[:8]}"
        pq.write_table(t, tmp)
        os.replace(tmp, path)
        return pd.DataFrame(
            [
                {
                    "shard": shard,
                    "rows": len(group),
                    "resumed": False,
                    "ts_mono": mono,
                    "ts_min": ts_min,
                    "ts_max": ts_max,
                }
            ]
        )


def _project(batch: pa.Table, codec, los: np.ndarray) -> pa.Table:
    """transcripts batch -> (docid, shard, role, tool, ts_us); shard
    assignment is searchsorted over the manifest bounds — the exact map
    the reader uses (DocValues._shard), so no boundary docid can land
    in a shard the lookup never opens."""
    docid = codec.encode(
        batch["conv_id"], batch["turn_idx"].to_numpy(zero_copy_only=False)
    )
    shard = np.clip(
        np.searchsorted(los, docid, side="right") - 1, 0, len(los) - 1
    ).astype(np.int32)
    return pa.table(
        {
            "docid": pa.array(docid),
            "shard": pa.array(shard),
            "role": batch["role"],
            "tool": batch["tool"],
            "ts_us": batch["ts"].cast(pa.int64()),
        }
    )


def build_docvalues(ds, index_dir: str, num_shards: int = 16) -> dict:
    """Write doc values for a transcripts Dataset next to a BUILT index
    (its codec assigns the docids).  Idempotent per (index fingerprint,
    num_shards); crash-resumable per shard — same contract as
    :func:`docstore.build_docstore`."""
    import ray

    manifest = json.load(open(os.path.join(index_dir, "manifest.json")))
    fp = _fingerprint(manifest["build_fingerprint"], num_shards)
    out_dir = os.path.join(index_dir, DIRNAME)
    mpath = os.path.join(out_dir, "_manifest.json")
    if os.path.isfile(mpath):
        try:
            m = json.load(open(mpath))
            if (
                m.get("fingerprint") == fp
                and m.get("index_fingerprint") == manifest["build_fingerprint"]
                and m.get("status") == "complete"
            ):
                return m
        except (json.JSONDecodeError, OSError):
            pass
    os.makedirs(out_dir, exist_ok=True)
    codec = DocIdCodec.from_table(
        pq.read_table(os.path.join(index_dir, "convmap.parquet"))
    )
    span = codec.span
    codec_ref = ray.put(codec)
    bounds = [
        [int(s * span // num_shards), int((s + 1) * span // num_shards)]
        for s in range(num_shards)
    ]
    los = np.array([b[0] for b in bounds], np.int64)

    def assign(batch: pa.Table) -> pa.Table:
        return _project(batch, build._get_ref(codec_ref), los)

    writer = _ShardWriter(out_dir, fp)
    stats = (
        ds.map_batches(assign, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(writer, batch_format="pandas")
        .to_pandas()
    )
    shard_stats = _shard_stats_map(stats)
    m = {
        "fingerprint": fp,
        "index_fingerprint": manifest["build_fingerprint"],
        "num_shards": num_shards,
        "span": span,
        "bounds": bounds,
        "columns": list(COLUMNS),
        "rows": int(stats["rows"].sum()),
        "ts_shard_stats": shard_stats,
        "ts_monotone": _ts_monotone(shard_stats),
        "status": "complete",
    }
    tmp = mpath + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(m, fh, indent=1)
    os.replace(tmp, mpath)
    return m


def _shard_stats_map(stats: pd.DataFrame) -> dict:
    """Writer stats rows -> {shard: [mono, ts_min, ts_max]} (JSON-safe
    string keys; shards with no rows simply don't appear)."""
    return {
        str(int(r.shard)): [int(r.ts_mono), int(r.ts_min), int(r.ts_max)]
        for r in stats.itertuples()
    }


def _ts_monotone(shard_stats: dict) -> bool:
    """True iff ts_us is globally nondecreasing in docid: every shard is
    internally monotone AND consecutive present shards don't overlap
    (shards are docid ranges, so shard order == docid order)."""
    order = sorted(int(s) for s in shard_stats)
    prev_max = None
    for s in order:
        mono, ts_min, ts_max = shard_stats[str(s)]
        if not mono:
            return False
        if prev_max is not None and ts_min < prev_max:
            return False
        prev_max = ts_max
    return bool(order)


def update_docvalues(ds_delta, index_dir: str) -> dict:
    """Generation append after ``update.update_index``: the delta
    corpus's metadata writes as NEW shards covering the appended docid
    range and the manifest restamps to the live index fingerprint —
    base shards are never re-read (the docstore.update_docstore cost
    model, docstore.py:149).  Idempotent per index fingerprint."""
    import math

    import ray

    idx_m = json.load(open(os.path.join(index_dir, "manifest.json")))
    idx_fp = idx_m["build_fingerprint"]
    out_dir = os.path.join(index_dir, DIRNAME)
    mpath = os.path.join(out_dir, "_manifest.json")
    m = json.load(open(mpath))
    if m.get("index_fingerprint") == idx_fp:
        return m
    old_hi = int(m["bounds"][-1][1])
    new_span = int(idx_m["docid_span"])
    if new_span <= old_hi:
        raise ValueError(
            "docvalues cannot incrementally follow this index change "
            "(no appended docid range — e.g. a vacuum); rebuild with "
            "build_docvalues"
        )
    avg = max(1, old_hi // len(m["bounds"]))
    n_new = max(1, math.ceil((new_span - old_hi) / avg))
    delta_span = new_span - old_hi
    new_bounds = [
        [old_hi + j * delta_span // n_new, old_hi + (j + 1) * delta_span // n_new]
        for j in range(n_new)
    ]
    base_shards = len(m["bounds"])
    los = np.array([b[0] for b in new_bounds], np.int64)
    gen_fp = _fingerprint(idx_fp, base_shards + n_new)
    codec = DocIdCodec.from_table(
        pq.read_table(os.path.join(index_dir, "convmap.parquet"))
    )
    codec_ref = ray.put(codec)

    def assign(batch: pa.Table) -> pa.Table:
        t = _project(batch, build._get_ref(codec_ref), los)
        docid = t["docid"].to_numpy()
        if len(docid) and docid.min() < old_hi:
            raise ValueError(
                "delta rows fall inside the base docid span — "
                "update_docvalues must receive ONLY the delta corpus"
            )
        shard = base_shards + t["shard"].to_numpy()
        return t.set_column(
            t.column_names.index("shard"), "shard", pa.array(shard.astype(np.int32))
        )

    writer = _ShardWriter(out_dir, gen_fp)
    stats = (
        ds_delta.map_batches(assign, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(writer, batch_format="pandas")
        .to_pandas()
    )
    shard_stats = dict(m.get("ts_shard_stats", {}))
    shard_stats.update(_shard_stats_map(stats))
    m2 = dict(m)
    m2.update(
        {
            "index_fingerprint": idx_fp,
            "bounds": m["bounds"] + new_bounds,
            "num_shards": base_shards + n_new,
            "span": new_span,
            "generations": m.get("generations", 1) + 1,
            "rows": int(m["rows"]) + int(stats["rows"].sum()),
            "ts_shard_stats": shard_stats,
            # an old-format base (no stats) can never re-prove order
            "ts_monotone": bool(m.get("ts_shard_stats")) and _ts_monotone(shard_stats),
            "status": "complete",
        }
    )
    tmp = mpath + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(m2, fh, indent=1)
    os.replace(tmp, mpath)
    return m2


# ---------------------------------------------------------------------------
# Query-time lookup + filter evaluation
# ---------------------------------------------------------------------------

#: string columns miss as '', ts_us misses as -1 — both outside every
#: legal value, and mask() additionally forces absent docids to False
_MISSING = {"role": "", "tool": "", "ts_us": -1}


class DocValues:
    """Candidate-bounded metadata lookups: docids -> column values.

    Shards load lazily and are cached per instance (an actor caches
    only what its queries touch)."""

    def __init__(self, index_dir: str):
        self.dir = os.path.join(index_dir, DIRNAME)
        m = json.load(open(os.path.join(self.dir, "_manifest.json")))
        if m.get("status") != "complete":
            raise ValueError(f"incomplete docvalues under {index_dir}")
        idx_m = json.load(open(os.path.join(index_dir, "manifest.json")))
        if m.get("index_fingerprint") != idx_m["build_fingerprint"]:
            raise ValueError(
                f"stale docvalues under {index_dir} (index changed since "
                "they were built) — rerun build_docvalues"
            )
        self.num_shards = m["num_shards"]
        self._lo = np.array([b[0] for b in m["bounds"]], np.int64)
        self._cache: dict[int, dict[str, np.ndarray]] = {}
        #: proven at build time: ts_us nondecreasing in docid (the
        #: Lucene index-sort property — enables sorted-query early
        #: termination).  Old-format manifests default to False.
        self.ts_monotone = bool(m.get("ts_monotone", False))
        #: values served by lookup() — tests assert the early path
        #: touches k-ish values, not candidate-set-sized
        self.lookups = 0

    def _shard(self, s: int) -> dict[str, np.ndarray]:
        if s not in self._cache:
            path = os.path.join(self.dir, f"shard-{s:05d}.parquet")
            if not os.path.isfile(path):
                self._cache[s] = {"docid": np.empty(0, np.int64)}
            else:
                t = pq.read_table(path)
                self._cache[s] = {
                    c: t[c].to_numpy(zero_copy_only=False) for c in t.column_names
                }
        return self._cache[s]

    def lookup(self, docids: np.ndarray, column: str):
        """Values of ``column`` aligned to ``docids`` + a found mask.
        Absent docids get the column's _MISSING sentinel and found=False."""
        docids = np.asarray(docids, np.int64)
        self.lookups += len(docids)
        miss = _MISSING[column]
        out = (
            np.full(len(docids), miss, object)
            if isinstance(miss, str)
            else np.full(len(docids), miss, np.int64)
        )
        found = np.zeros(len(docids), bool)
        shards = np.clip(
            np.searchsorted(self._lo, docids, side="right") - 1,
            0,
            self.num_shards - 1,
        )
        for s in np.unique(shards):
            sel = shards == s
            sh = self._shard(int(s))
            sd = sh["docid"]
            if not len(sd):
                continue
            pos = np.searchsorted(sd, docids[sel])
            pos_c = np.minimum(pos, len(sd) - 1)
            hit = sd[pos_c] == docids[sel]
            idx = np.nonzero(sel)[0][hit]
            out[idx] = sh[column][pos_c[hit]]
            found[idx] = True
        return out, found

    def mask(self, docids: np.ndarray, clauses) -> np.ndarray:
        """Conjunction of ``(column, op, value)`` clauses evaluated over
        the candidates' metadata -> bool mask (absent docids: False)."""
        docids = np.asarray(docids, np.int64)
        keep = np.ones(len(docids), bool)
        for col, op, value in clauses:
            vals, found = self.lookup(docids, col)
            keep &= found & _clause_mask(vals, op, _clause_value(col, value))
        return keep


def _clause_value(col: str, value):
    """Normalize a clause value for the engine side: ts_us clauses are
    written as ISO strings in query specs and convert here (the SQL
    emitter uses the SAME ts_us() conversion)."""
    if col == "ts_us":
        if isinstance(value, (list, tuple)):
            return [ts_us(v) if isinstance(v, str) else int(v) for v in value]
        return ts_us(value) if isinstance(value, str) else int(value)
    return value


#: each clause operator -> its mask over a doc-value column
_FILTER_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "in": lambda vals, value: np.isin(vals, list(value)),
}


def _clause_mask(vals: np.ndarray, op: str, value) -> np.ndarray:
    fn = _FILTER_OPS.get(op) if isinstance(op, str) else None
    if fn is None:
        raise InvalidRequest(f"unknown filter op {op!r}")
    return fn(vals, value)


def encode_clauses(clauses) -> str:
    """Clauses -> JSON (the queries-table ``filter_json`` column —
    structured specs survive the Arrow roundtrip into QueryScorer)."""
    return json.dumps([list(c) for c in clauses])


def decode_clauses(s: str):
    """JSON -> clause tuples.  A filter that is not JSON, not a list,
    or holds a clause that is not ``[column, op, value]`` with a known
    op raises :class:`query.InvalidRequest` (the client's fault)."""
    if not s:
        return []
    try:
        raw = json.loads(s)
    except ValueError:
        raise InvalidRequest(f"filter is not JSON: {s!r}") from None
    if not isinstance(raw, list):
        raise InvalidRequest(f"filter must be a list of clauses, got {s!r}")
    for c in raw:
        if not isinstance(c, list) or len(c) != 3:
            raise InvalidRequest(f"filter clause {c!r} is not [column, op, value]")
        if not isinstance(c[1], str) or c[1] not in _FILTER_OPS:
            raise InvalidRequest(f"unknown filter op {c[1]!r}")
    return [tuple(c) for c in raw]


# ---------------------------------------------------------------------------
# SQL emitter (the oracle half of the shared clause representation)
# ---------------------------------------------------------------------------

#: engine column -> SQL expression over a transcripts-row alias
_SQL_COL = {"role": "{a}.role", "tool": "{a}.tool", "ts_us": "epoch_us({a}.ts)"}
_SQL_OP = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def _sql_lit(col: str, value) -> str:
    if col == "ts_us":
        return str(_clause_value(col, value))
    return "'" + str(value).replace("'", "''") + "'"


def clauses_sql(clauses, alias: str = "m") -> str:
    """Conjunction SQL for a clause list over transcripts alias
    ``alias`` — the DuckDB mirror of :meth:`DocValues.mask`."""
    if not clauses:
        return "TRUE"
    parts = []
    for col, op, value in clauses:
        expr = _SQL_COL[col].format(a=alias)
        if op == "in":
            lits = ", ".join(_sql_lit(col, v) for v in value)
            parts.append(f"{expr} IN ({lits})")
        else:
            parts.append(f"{expr} {_SQL_OP[op]} {_sql_lit(col, value)}")
    return " AND ".join(parts)


def filters_case_sql(queries, alias: str = "m", qid_col: str = "q.query_id") -> str:
    """Per-query filter dispatch: CASE over query_id, each arm the
    query's clause conjunction — injected into the scores CTE of
    :func:`query.bm25_topk_sql` via its ``meta_case`` parameter."""
    arms = " ".join(
        f"WHEN '{q[0]}' THEN ({clauses_sql(q[3], alias)})" for q in queries
    )
    return f"CASE {qid_col} {arms} ELSE TRUE END"
