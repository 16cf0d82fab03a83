"""Prepared artifacts, cached per checkout under ``.perfbench/cache``.

- ``corpus-<recipe digest>/``: the corpus Parquet files.
- ``index-<key>/``: the index built from that corpus and the oracle's
  answers, where ``key`` hashes the corpus digest, the build config and
  the source of ``raystorm/**/*.py``.  A change to the engine therefore
  prepares its own index, once.

Run as a script (``python3 perfbench/prepare.py``) it fills the cache in
a process of its own, so a run's set-up time and peak memory never
include preparation.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import inputs

CACHE = os.path.join(".perfbench", "cache")
READY = "_READY"


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "raystorm", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def paths(root: str) -> dict:
    cdig = inputs.corpus_digest()
    key = inputs.digest(
        {"corpus": cdig, "config": inputs.BUILD_CONFIG, "source": source_digest(root)}
    )
    cache = os.path.join(root, CACHE)
    index_home = os.path.join(cache, f"index-{key}")
    return {
        "corpus_digest": cdig,
        "index_key": key,
        "corpus": os.path.join(cache, f"corpus-{cdig}"),
        "index_home": index_home,
        "index": os.path.join(index_home, "index"),
        "oracle": os.path.join(index_home, "oracle.json"),
    }


def ready(p: dict) -> bool:
    return os.path.exists(os.path.join(p["corpus"], READY)) and os.path.exists(
        os.path.join(p["index_home"], READY)
    )


def _fresh(path: str) -> str:
    tmp = f"{path}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    return tmp


def _publish(tmp: str, path: str) -> None:
    with open(os.path.join(tmp, READY), "w") as fh:
        fh.write("ok\n")
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)


def oracle_sql(corpus_dir: str, queries: list[str]) -> str:
    """``query.bm25_topk_sql`` over the corpus Parquet: the oracle's
    transcripts CTE is pointed at the files instead of the derivation
    from a ``documents`` table."""
    from raystorm import corpus, query

    sql = query.bm25_topk_sql(
        queries=tuple((f"q{i:03d}", q, inputs.K) for i, q in enumerate(queries))
    )
    derived = corpus.transcripts_sql()
    if sql.count(derived) != 1:
        raise RuntimeError("oracle SQL no longer embeds corpus.transcripts_sql()")
    files = os.path.join(corpus_dir, "*.parquet").replace("'", "''")
    return sql.replace(derived, f"SELECT * FROM read_parquet('{files}')")


def oracle_answers(corpus_dir: str) -> list[dict]:
    import duckdb

    queries = inputs.oracle_queries()
    con = duckdb.connect()
    try:
        df = con.execute(oracle_sql(corpus_dir, queries)).df()
    finally:
        con.close()
    out = []
    for i, q in enumerate(queries):
        sub = df[df["query_id"] == f"q{i:03d}"].sort_values("rank")
        out.append(
            {
                "query": q,
                "conv_id": sub["conv_id"].astype(str).tolist(),
                "turn_idx": sub["turn_idx"].astype(int).tolist(),
                "score": sub["score"].astype(float).tolist(),
            }
        )
    return out


def build(corpus_dir: str, index_dir: str, root: str) -> dict:
    """A fresh index of ``corpus_dir`` in its own Ray session."""
    from perfbench.raystart import RaySession

    with RaySession(root):
        import ray.data as rd
        from raystorm import build as rbuild

        return rbuild.build_index(
            rd.read_parquet(os.path.abspath(corpus_dir)),
            os.path.abspath(index_dir),
            input_fingerprint=inputs.corpus_digest(),
            cfg=rbuild.BuildConfig(**inputs.BUILD_CONFIG),
        )


def prepare(root: str) -> dict:
    p = paths(root)
    if not os.path.exists(os.path.join(p["corpus"], READY)):
        tmp = _fresh(p["corpus"])
        n = inputs.write_corpus(tmp)
        if n != inputs.CORPUS_TURNS:
            raise RuntimeError(f"corpus has {n} turns, recipe gives {inputs.CORPUS_TURNS}")
        _publish(tmp, p["corpus"])
    if not os.path.exists(os.path.join(p["index_home"], READY)):
        tmp = _fresh(p["index_home"])
        build(p["corpus"], os.path.join(tmp, "index"), root)
        with open(os.path.join(tmp, "oracle.json"), "w") as fh:
            json.dump(oracle_answers(p["corpus"]), fh)
        _publish(tmp, p["index_home"])
    return p


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    sys.path.insert(0, root)
    print(json.dumps(prepare(root)))
