"""The serve benchmark's query mix (``bench._serve_workload``): its
published serve numbers assume 2-4 terms per query, every term drawn
from vocabulary ranks 10..2000 (the ultra-head ranks 0..9 left out)."""

import numpy as np

import bench
from raystorm.corpus import synth_word


def test_serve_workload_bounds():
    rank = {synth_word(i): i for i in range(5000)}
    queries = bench._serve_workload()
    assert len(queries) == bench.SERVE_QUERIES
    n_terms = np.array([len(q.split()) for q in queries])
    ranks = np.array([rank[w] for q in queries for w in q.split()])
    assert n_terms.min() == 2 and n_terms.max() == 4
    assert ranks.min() >= 10 and ranks.max() <= 2000
    # Zipf-ish: the low end of the range is drawn far more often
    assert (ranks < 100).mean() > (ranks >= 1000).mean()
    assert bench._serve_workload() == queries  # deterministic


def test_serve_workload_respects_a_small_vocabulary():
    rank = {synth_word(i): i for i in range(300)}
    queries = bench._serve_workload(n=200, vocab_size=300)
    assert all(10 <= rank[w] <= 299 for q in queries for w in q.split())
