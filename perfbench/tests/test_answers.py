from perfbench.answers import same


def ans(convs, turns, scores):
    return {"conv_id": convs, "turn_idx": turns, "score": scores}


A = ans(["c1", "c2"], [3, 0], [2.5, 1.25])


def test_identical_answers_match():
    assert same(A, ans(["c1", "c2"], [3, 0], [2.5, 1.25]))


def test_scores_compare_at_six_decimals():
    assert same(A, ans(["c1", "c2"], [3, 0], [2.5000001, 1.2499999]))
    assert not same(A, ans(["c1", "c2"], [3, 0], [2.500001, 1.25]))


def test_rank_order_matters():
    assert not same(A, ans(["c2", "c1"], [0, 3], [1.25, 2.5]))


def test_documents_and_length_matter():
    assert not same(A, ans(["c1", "c2"], [3, 1], [2.5, 1.25]))
    assert not same(A, ans(["c1"], [3], [2.5]))
    assert same(ans([], [], []), ans([], [], []))
