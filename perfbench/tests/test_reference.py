"""Hand-checked cases for the benchmark's reference computations.

Run with `python3 -m pytest perfbench/tests -q` from the repository root;
Tier-1's default collection (`tests/`) does not include them.
"""

import math

import numpy as np
import pytest

import reference
import stub


# ------------------------------------------------------------------ dedup


def test_cosine_of_a_word_added():
    # (1,1,1,0) . (1,1,1,1) = 3; |.| = sqrt(3) * sqrt(4)
    cos = reference.pairwise_cosine(reference.bow_matrix(["a b c", "A, b c d!"]))
    assert cos[0, 1] == pytest.approx(3 / math.sqrt(12), abs=1e-15)
    assert cos[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_keep_first_compares_only_with_survivors():
    texts = ["a b c d", "a b c d e", "a b c d e f g", "x y"]
    # cos(0,1) = 4/sqrt(20) = 0.894 > 0.8: row 1 goes.
    # cos(1,2) = 5/sqrt(35) = 0.845 > 0.8, but row 1 is gone; cos(0,2) = 4/sqrt(28) = 0.756 keeps row 2.
    assert reference.keep_first(texts, 0.8) == [True, False, True, True]
    assert reference.keep_first(texts, 0.9) == [True, True, True, True]


def test_keep_first_threshold_is_strict():
    assert reference.keep_first(["a b", "b a"], 1.0) == [True, True]
    assert reference.keep_first(["a b", "b a"], 0.99) == [True, False]


# ------------------------------------------------------------- annotation


def test_expected_triples_floor_limit_and_dedup(monkeypatch):
    mentions = {"Ann met Bob and Ann": [
        {"spot": "Ann", "title": "Q1", "rho": 0.5},
        {"spot": "Bob", "title": "Q2", "rho": 0.1},    # at the floor: dropped
        {"spot": "Ann", "title": "Q1", "rho": 0.5},    # same concept again: nothing new
    ]}
    rows = {"Q1": [("r", "x", None), ("r", "y", None), ("r", "x", None), ("s", "z", None)]}

    def sparql(qid, limit=50):
        bindings = [{"relLabel": {"value": r}, "objLabel": {"value": o}} for r, o, _ in rows[qid]]
        return {"results": {"bindings": bindings[:limit]}}

    monkeypatch.setattr(reference, "link_answer", lambda text: mentions[text])
    monkeypatch.setattr(reference, "sparql_answer", sparql)
    assert reference.expected_triples("Ann met Bob and Ann", 3) == [("Q1", "r", "x"), ("Q1", "r", "y")]
    assert reference.expected_triples("Ann met Bob and Ann", 10) == [
        ("Q1", "r", "x"), ("Q1", "r", "y"), ("Q1", "s", "z")]


def test_stub_answers_are_pure_and_labelled():
    assert stub.link_answer("the Zorva met zorva. Zorva!") == stub.link_answer("the Zorva met zorva. Zorva!")
    spots = [m["spot"] for m in stub.link_answer("the Zorva met zorva. Zorva!")]
    assert spots == ["Zorva", "Zorva"]
    answer = stub.sparql_answer("Q123")
    assert answer == stub.answer_sparql_query("SELECT ... wd:Q123 ?p ?obj . } LIMIT 50")
    n = len(answer["results"]["bindings"])
    assert 2 <= n <= 14
    assert stub.sparql_answer("Q123", limit=1)["results"]["bindings"] == answer["results"]["bindings"][:1]


# ------------------------------------------------------------------ ROUGE


def test_lcs_textbook_case():
    assert reference.lcs(list("ABCBDAB"), list("BDCABA")) == 4
    assert reference.lcs([], list("AB")) == 0


def test_rouge_hand_computed():
    report = reference.rouge(["The cat sat", "a b", "the the the"], ["the cat sat down.", "b a", "the"])
    # line 1: R1 3/3, 3/4; R2 2/2, 2/3; RL as R1.   line 2: R1 1, 1; R2 0; RL 1/2, 1/2.
    # line 3: R1 clipped overlap 1: 1/3, 1/1; R2 0/2, 0/0; RL lcs 1: 1/3, 1/1.
    f = lambda p, r: 2 * p * r / (p + r)
    expect = {
        "rouge1": ((1 + 1 + 1 / 3) / 3, (0.75 + 1 + 1) / 3, (f(1, 0.75) + 1 + f(1 / 3, 1)) / 3),
        "rouge2": ((1 + 0 + 0) / 3, (2 / 3 + 0 + 0) / 3, (f(1, 2 / 3) + 0 + 0) / 3),
        "rougeL": ((1 + 0.5 + 1 / 3) / 3, (0.75 + 0.5 + 1) / 3, (f(1, 0.75) + 0.5 + f(1 / 3, 1)) / 3),
    }
    for name, (p, r, f1) in expect.items():
        assert report[name]["precision"] == pytest.approx(100 * p, abs=1e-12)
        assert report[name]["recall"] == pytest.approx(100 * r, abs=1e-12)
        assert report[name]["f1"] == pytest.approx(100 * f1, abs=1e-12)
    assert report["n_lines"] == 3


# ------------------------------------------------------------ beam search

BOS, EOS, A, B = 0, 1, 2, 3


def toy_logprobs(prefix):
    table = {
        (BOS,): {A: 0.6, B: 0.4},
        (BOS, A): {A: 0.5, B: 0.5},
        (BOS, B): {EOS: 0.9, A: 0.05, B: 0.05},
    }
    probs = np.full(4, 1e-12)
    for tok, p in table.get(tuple(prefix), {EOS: 1.0}).items():
        probs[tok] = p
    return np.log(probs)


def test_beam_search_hand_traced():
    # step 1: [0,A] .6, [0,B] .4
    # step 2: [0,B,EOS] .36 (finished), [0,A,A] .30, [0,A,B] .30 (tie: A comes first)
    # step 3: [0,A,A,EOS] .30; both beams finished.
    # per-token means: log(.36)/2 = -0.51 < log(.30)/3 = -0.40, so the longer one wins.
    assert reference.beam_search(toy_logprobs, BOS, EOS, beam=2, max_len=10) == [BOS, A, A, EOS]


def test_beam_search_length_cutoff():
    assert reference.beam_search(toy_logprobs, BOS, EOS, beam=2, max_len=1) == [BOS, A]


def test_log_probs_normalise():
    logp = reference.log_probs(np.array([1.0, 2.0, 3.0]))
    assert np.exp(logp).sum() == pytest.approx(1.0, abs=1e-15)
    assert logp[2] - logp[1] == pytest.approx(1.0, abs=1e-15)
