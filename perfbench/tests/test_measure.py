import pytest

from perfbench import reference, workloads


def test_scale_is_nominal_over_median_sample():
    ref = reference.Reference()
    ref.samples = [4e6, 10e6, 5e6]
    assert ref.scale() == pytest.approx(reference.NOMINAL_MS / 5.0)


def test_samples_are_taken_on_cadence():
    ref = reference.Reference()
    ref.tick()
    ref.tick()  # within EVERY_S of the first: no sample
    assert len(ref.samples) == 1 and ref.samples[0] > 0
    ref.take(2)
    assert len(ref.samples) == 3


def sample(bm25, pruned, bmw):
    return {"bm25": bm25 * 1e6, "bm25_pruned": pruned * 1e6, "bm25_bmw": bmw * 1e6}


def test_each_query_weighs_the_same_however_often_it_ran():
    # query 0 ran three times (median 10 ms), queries 1 and 2 once
    per_query = [
        [sample(10, 5, 20), sample(11, 5, 22), sample(90, 5, 180)],
        [sample(20, 10, 40)],
        [sample(30, 15, 60)],
    ]
    got = workloads.latency_values(per_query, 2.0)
    assert got["bm25.p50_ms"] == pytest.approx(2.0 * 20)
    assert got["bm25_pruned.p50_ms"] == pytest.approx(2.0 * 10)
    # speedups are paired ratios over every sample and are not scaled
    assert got["bm25_pruned.speedup"] == pytest.approx(2.0)
    assert got["bm25_bmw.speedup"] == pytest.approx(0.5)


def test_ops_per_s_counts_every_mode_in_scaled_time():
    per_query = [[sample(100, 100, 100)], [sample(100, 100, 100)]]
    # six answers in 0.6 s; at scale 0.5 they count as 0.3 s
    assert workloads.ops_per_s(per_query, 1.0) == pytest.approx(10.0)
    assert workloads.ops_per_s(per_query, 0.5) == pytest.approx(20.0)


class FakeIndex:
    def topk(self, q, k, mode):
        return {"conv_id": [q], "turn_idx": [0], "score": [1.0]}


def test_a_run_answers_every_query_and_at_least_min_samples():
    run = workloads.Run("/nonexistent", {}, seed=1, seconds=0.0, trace=False)
    per_query = workloads.measure(run, FakeIndex(), ["a b", "c d", "e f"])
    assert sum(map(len, per_query)) == workloads.MIN_SAMPLES
    assert min(map(len, per_query)) >= workloads.MIN_SAMPLES // 3
    assert run.failed == 0 and run.attempted == 3 * workloads.MIN_SAMPLES
