import filecmp
import os

from perfbench import inputs


def test_same_seed_same_queries():
    assert inputs.tail_queries(3) == inputs.tail_queries(3)
    assert inputs.head_queries(3) == inputs.head_queries(3)
    assert inputs.query_digest(3) == inputs.query_digest(3)


def test_other_seed_other_queries():
    assert inputs.tail_queries(3) != inputs.tail_queries(4)
    assert inputs.head_queries(3) != inputs.head_queries(4)
    assert inputs.query_digest(3) != inputs.query_digest(4)


def test_tail_queries_follow_the_recipe():
    lo, hi = inputs.TAIL_RANKS
    words = {inputs.word(i) for i in range(lo, hi + 1)}
    qs = inputs.tail_queries(5)
    assert len(qs) == inputs.TAIL_QUERIES
    for q in qs:
        terms = q.split()
        assert inputs.TAIL_TERMS[0] <= len(terms) <= inputs.TAIL_TERMS[1]
        assert set(terms) <= words


def test_tail_seeds_share_the_rank_profile():
    def rank(w):
        return sum((ord(c) - 97) * 26**k for c, k in zip(w, (3, 2, 1, 0)))

    a, b = inputs.tail_queries(1), inputs.tail_queries(2)
    assert sum(x != y for x, y in zip(a, b)) > len(a) // 2
    for qa, qb in zip(a, b):
        ta, tb = qa.split(), qb.split()
        assert len(ta) == len(tb)
        for x, y in zip(ta, tb):
            assert abs(rank(x) - rank(y)) <= 2 * inputs.TAIL_JITTER * max(rank(x), rank(y)) + 2


def test_every_seed_runs_every_head_pair():
    want = {
        frozenset((inputs.word(a), inputs.word(b)))
        for a in range(inputs.HEAD_TOP)
        for b in range(a + 1, inputs.HEAD_TOP)
    }
    for seed in (1, 2):
        got = inputs.head_queries(seed)
        assert len(got) == len({frozenset(q.split()) for q in got}) == len(want) == 45
        assert {frozenset(q.split()) for q in got} == want


def test_mode_order_rotates():
    firsts = [inputs.mode_order(i)[0] for i in range(6)]
    assert sorted(firsts) == sorted(inputs.MODES * 2)
    assert all(sorted(inputs.mode_order(i)) == sorted(inputs.MODES) for i in range(3))


def test_corpus_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert inputs.write_corpus(str(a)) == inputs.CORPUS_TURNS
    assert inputs.write_corpus(str(b)) == inputs.CORPUS_TURNS
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b)) and len(names) == inputs.CORPUS_RECIPE["files"]
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert not mismatch and not errors
