import json

import pytest

from perfbench import tracing, workloads


def test_union_merges_overlaps_and_clips():
    assert tracing.union_ns([(0, 10), (5, 20), (30, 40)]) == 30
    assert tracing.union_ns([(0, 10), (5, 20)], lo=8, hi=12) == 4
    assert tracing.union_ns([]) == 0


def test_self_time_of_nested_spans():
    spans = [
        ["root", 0, 100, None, 0],
        ["a", 10, 30, 0, 0],
        ["b", 40, 70, 0, 0],
        ["b1", 45, 50, 2, 0],
    ]
    assert tracing.self_times(spans) == [50, 20, 25, 5]
    assert tracing.root_of(spans) == [0, 0, 0, 0]
    assert sum(tracing.self_times(spans)) == 100


def test_self_time_with_overlapping_children():
    # children from two worker processes overlap; their union counts once
    spans = [["driver", 0, 100, None, 0], ["w1", 10, 40, 0, 0], ["w2", 30, 60, 0, 0]]
    assert tracing.self_times(spans)[0] == 50


def test_wrapped_calls_nest_and_count():
    tracer = tracing.Tracer()

    def leaf(n):
        return list(range(n))

    leaf_t = tracing.wrap(tracer, "leaf", leaf, lambda out, a, k: len(out))

    def outer():
        leaf_t(3)
        leaf_t(4)

    tracing.wrap(tracer, lambda a, k: "outer", outer)()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    assert [s[4] for s in tracer.spans] == [0, 3, 4]
    st = tracing.self_times(tracer.spans)
    assert st[0] == (tracer.spans[0][2] - tracer.spans[0][1]) - st[1] - st[2]


def test_patches_restore():
    class C:
        def f(self):
            return 1

    p = tracing.Patches()
    p.set(C, "f", lambda self: 2)
    assert C().f() == 2
    p.undo()
    assert C().f() == 1


def test_worker_files_round_trip(tmp_path):
    t = tracing.Tracer(str(tmp_path / "w-1.jsonl"))
    for _ in range(2):
        i = t.open("stage")
        j = t.open("inner")
        t.close(j, 5)
        t.close(i, 7)
    spans = tracing.read_worker_spans(str(tmp_path))
    own = [s for s in spans if s[0] != "trace.flush"]
    assert [s[0] for s in own] == ["stage", "inner", "stage", "inner"]
    assert [s[3] for s in own] == [None, 0, None, 2]
    assert sum(s[0] == "trace.flush" for s in spans) == 2
    assert all(json.loads(json.dumps(s)) == s for s in spans)


def test_query_split_adds_up_to_each_query():
    spans = [
        ["query.topk.bm25", 0, 100, None, 0],
        ["normalize.tokenize", 0, 10, 0, 3],
        ["query.decode", 10, 50, 0, 2],
        ["segments.decode", 15, 45, 2, 900],
        ["query.format", 60, 90, 0, 0],
        ["query.round", 60, 70, 4, 40],
    ]
    spans += [[n.replace("bm25", m) if n.startswith("query.topk") else n, s, e, p, c]
              for m in ("bm25_pruned", "bm25_bmw") for n, s, e, p, c in spans[:1]]
    v = workloads.query_layer_values(spans, [4])
    ms = {t: v[f"query.bm25.{t}_ms"] for t in ("tokenize", "dict_lookup", "decode", "score",
                                                "accumulate", "select_format", "other")}
    want = {"tokenize": 1e-5, "dict_lookup": 0.0, "decode": 4e-5, "score": 0.0,
            "accumulate": 0.0, "select_format": 3e-5, "other": 2e-5}
    assert ms == pytest.approx(want)
    assert v["query.bm25.runs_decoded"] == 2 and v["query.bm25.postings_decoded"] == 900
    assert v["query.bm25.candidates"] == 40 and v["query.bm25.runs_decoded_ratio"] == 0.5
    assert v["query.bm25_pruned.other_ms"] == pytest.approx(1e-4)


def test_build_split_adds_up_to_the_build():
    driver = [
        ["build.build_index", 0, 1000, None, 0],
        ["build.compute_stats", 0, 400, 0, 50],
        ["build.vocab", 410, 420, 0, 0],
    ]
    workers = [
        ["build.stats_map", 10, 210, None, 300],
        ["build.token_map", 430, 630, None, 900],
        ["build.partition_write", 800, 950, None, 0],
        ["segments.encode", 810, 820, 2, 77],
    ]
    v = workloads.build_layer_values(driver, workers)
    assert v["build.stats_map_s"] == 200e-9
    assert v["build.stats_reduce_s"] == 200e-9
    assert v["build.token_map_s"] == 200e-9
    assert v["build.partition_write_s"] == 150e-9
    assert abs(v["build.shuffle_s"] - 190e-9) < 1e-15
    total = sum(v[f"build.{k}_s"] for k in
                ("stats_map", "stats_reduce", "token_map", "shuffle", "partition_write", "other"))
    assert abs(total - 1000e-9) < 1e-15
    assert v["build.stats_partial_rows"] == 300 and v["build.stats_rows"] == 50
    assert v["segments.runs_encoded"] == 1 and v["segments.postings_encoded"] == 77
