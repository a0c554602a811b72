import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from perfbench.reference import max_abs_diff
from perfbench.reference import rouge as reference_rouge
from punchgen.corpus import bow_tokens
from punchgen.evaluation import (
    LineCountMismatch,
    LinePairs,
    RougeReport,
    Score,
    evaluate_corpus,
    evaluate_lines,
    rouge_l,
    rouge_n,
    score_pair,
)

SHEET = json.loads((Path(__file__).parent / "fixtures" / "rouge_sheet.json").read_text())


def one_pair(hyp: list[str], ref: list[str]) -> LinePairs:
    """A single hypothesis/reference line pair of the given words."""
    return LinePairs.of([" ".join(hyp)], [" ".join(ref)])


class TestRougeN:
    def test_perfect_match(self):
        s = rouge_n(one_pair(["the", "cat"], ["the", "cat"]), 1).line(0)
        assert s == Score(1.0, 1.0, 1.0)

    def test_disjoint(self):
        s = rouge_n(one_pair(["a", "b"], ["c", "d"]), 2).line(0)
        assert s.f1 == 0.0

    def test_hand_value(self):
        # hyp "the cat" vs ref "the cat sat": recall 2/3, precision 1, f1 0.8
        s = rouge_n(one_pair(["the", "cat"], ["the", "cat", "sat"]), 1).line(0)
        assert s.precision == pytest.approx(1.0)
        assert s.recall == pytest.approx(2 / 3)
        assert s.f1 == pytest.approx(0.8)

    def test_clipping(self):
        # "the the the" vs "the cat": overlap clipped to 1
        s = rouge_n(one_pair(["the", "the", "the"], ["the", "cat"]), 1).line(0)
        assert s.precision == pytest.approx(1 / 3)
        assert s.recall == pytest.approx(1 / 2)

    def test_short_sequences_yield_zero_bigrams(self):
        s = rouge_n(one_pair(["one"], ["one"]), 2).line(0)
        assert s == Score(0.0, 0.0, 0.0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rouge_n(one_pair(["a"], ["a"]), 3)


class TestRougeL:
    def test_identical(self):
        assert rouge_l(one_pair(["a", "b", "c"], ["a", "b", "c"])).line(0).f1 == 1.0

    def test_hand_value(self):
        s = rouge_l(one_pair(["a", "c", "b"], ["a", "b", "c"])).line(0)
        assert s.precision == pytest.approx(2 / 3)
        assert s.recall == pytest.approx(2 / 3)
        assert s.f1 == pytest.approx(2 / 3)

    def test_empty_hypothesis(self):
        assert rouge_l(one_pair([], ["a", "b"])).line(0) == Score(0.0, 0.0, 0.0)

    def test_lcs_at_least_common_bigram_chain(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            hyp = [str(x) for x in rng.integers(0, 5, size=rng.integers(2, 12))]
            ref = [str(x) for x in rng.integers(0, 5, size=rng.integers(2, 12))]
            lcs = rouge_l(one_pair(hyp, ref)).line(0).precision * len(hyp)
            chain = longest_common_bigram_chain(hyp, ref)
            assert round(lcs) >= chain


def longest_common_bigram_chain(hyp, ref):
    """Longest contiguous token run shared by both sequences (brute force)."""
    best = 0
    for i in range(len(hyp)):
        for j in range(len(ref)):
            k = 0
            while i + k < len(hyp) and j + k < len(ref) and hyp[i + k] == ref[j + k]:
                k += 1
            best = max(best, k)
    return best if best >= 2 else 0


def oracle_scores(hyp_text, ref_text):
    """Independent reference: dict n-gram counting + recursive-memo LCS."""

    def counts(xs, n):
        d = {}
        for i in range(len(xs) - n + 1):
            d[tuple(xs[i:i + n])] = d.get(tuple(xs[i:i + n]), 0) + 1
        return d

    def prf(overlap, hn, rn):
        p = overlap / hn if hn else 0.0
        r = overlap / rn if rn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        return {"precision": p, "recall": r, "f1": f}

    h, r = bow_tokens(hyp_text), bow_tokens(ref_text)

    def rn_score(n):
        hc, rc = counts(h, n), counts(r, n)
        overlap = sum(min(c, rc.get(g, 0)) for g, c in hc.items())
        return prf(overlap, sum(hc.values()), sum(rc.values()))

    @lru_cache(maxsize=None)
    def lcs(i, j):
        if i == len(h) or j == len(r):
            return 0
        if h[i] == r[j]:
            return 1 + lcs(i + 1, j + 1)
        return max(lcs(i + 1, j), lcs(i, j + 1))

    rl = prf(lcs(0, 0) if h and r else 0, len(h), len(r))
    return rn_score(1), rn_score(2), rl


class TestFrozenSheet:
    @pytest.mark.parametrize("entry", SHEET, ids=[e["hyp"][:20] for e in SHEET])
    def test_matches_frozen_values(self, entry):
        r1, r2, rl = score_pair(entry["hyp"], entry["ref"])
        for got, want in ((r1, entry["rouge1"]), (r2, entry["rouge2"]), (rl, entry["rougeL"])):
            assert got.precision == pytest.approx(want["precision"], abs=1e-12)
            assert got.recall == pytest.approx(want["recall"], abs=1e-12)
            assert got.f1 == pytest.approx(want["f1"], abs=1e-12)

    def test_oracle_agrees_with_frozen_values(self):
        # guards the sheet itself against drift
        for entry in SHEET:
            o1, o2, ol = oracle_scores(entry["hyp"], entry["ref"])
            assert o1 == entry["rouge1"]
            assert o2 == entry["rouge2"]
            assert ol == entry["rougeL"]


def words(rng, vocab: int, n: int) -> str:
    return " ".join(f"w{k}" for k in rng.integers(0, vocab, size=n))


_RNG = np.random.default_rng(7)
EDGE_LINES = {
    "empty hypothesis": (["", " ... "], ["the cat sat", "a"]),
    "empty reference": (["the cat sat", "a"], ["", "!?"]),
    "both sides empty": (["", "a b"], ["", "a b"]),
    "one-word lines, no bigrams": (["cat", "dog", "cat"], ["cat", "cat dog", "dog"]),
    "repeated words are clipped": (["the the the cat cat", "a a a a", "x y x y x y"],
                                   ["the cat the", "a b a", "x y x"]),
    "hypothesis over 128 words": ([words(_RNG, 40, 300), words(_RNG, 9, 129)],
                                  [words(_RNG, 40, 150), words(_RNG, 9, 20)]),
}
EDGE_LINES["all of the above in one batch"] = tuple(
    [line for hyps_refs in EDGE_LINES.values() for line in hyps_refs[side]] for side in (0, 1))


class TestBatchedScoring:
    """evaluate_lines scores all lines at once; each case against the per-line Counter/LCS reference."""

    @pytest.mark.parametrize("hyps,refs", EDGE_LINES.values(), ids=list(EDGE_LINES))
    def test_matches_counter_reference(self, hyps, refs):
        assert max_abs_diff(evaluate_lines(hyps, refs).to_dict(), reference_rouge(hyps, refs)) <= 1e-12
        for hyp, ref in zip(hyps, refs):
            got = score_pair(hyp, ref)
            want = oracle_scores(hyp, ref)
            assert [s.__dict__ for s in got] == list(want)

    def test_no_lines(self):
        assert evaluate_lines([], []) == RougeReport(Score(0, 0, 0), Score(0, 0, 0), Score(0, 0, 0), 0)

    def test_line_count_mismatch(self):
        with pytest.raises(LineCountMismatch):
            evaluate_lines(["a"], [])


class TestCorpus:
    def test_identical_files_score_100(self, tmp_path):
        lines = ["the cat sat on the mat", "a dog walked into a bar"]
        hyps = tmp_path / "h.txt"
        refs = tmp_path / "r.txt"
        hyps.write_text("\n".join(lines) + "\n")
        refs.write_text("\n".join(lines) + "\n")
        report = evaluate_corpus(hyps, refs)
        for metric in (report.rouge1, report.rouge2, report.rougeL):
            assert 100 * metric.f1 == pytest.approx(100.0)

    def test_all_empty_hyps_score_zero(self, tmp_path):
        hyps = tmp_path / "h.txt"
        refs = tmp_path / "r.txt"
        hyps.write_text("\n\n")
        refs.write_text("real line one\nreal line two\n")
        report = evaluate_corpus(hyps, refs)
        assert report.rouge1.f1 == 0.0 and report.rougeL.f1 == 0.0

    def test_carriage_return_stays_inside_its_line(self, tmp_path):
        hyps = tmp_path / "h.txt"
        refs = tmp_path / "r.txt"
        hyps.write_bytes(b"the cat\rsat\na dog\n")
        refs.write_bytes(b"the cat sat\na dog\n")
        report = evaluate_corpus(hyps, refs)
        assert report.n_lines == 2
        assert report.rouge1.f1 == 1.0 and report.rougeL.f1 == 1.0

    def test_line_count_mismatch(self, tmp_path):
        hyps = tmp_path / "h.txt"
        refs = tmp_path / "r.txt"
        hyps.write_text("one\n")
        refs.write_text("one\ntwo\n")
        with pytest.raises(LineCountMismatch):
            evaluate_corpus(hyps, refs)

    def test_macro_average_of_sheet(self):
        hyps = [e["hyp"] for e in SHEET]
        refs = [e["ref"] for e in SHEET]
        report = evaluate_lines(hyps, refs)
        want_f1 = sum(e["rouge1"]["f1"] for e in SHEET) / len(SHEET)
        assert report.rouge1.f1 == pytest.approx(want_f1, abs=1e-12)
        assert report.n_lines == 20

    def test_report_shapes(self):
        report = evaluate_lines(["the cat"], ["the cat"])
        d = report.to_dict()
        assert d["rouge1"]["f1"] == pytest.approx(100.0)
        table = report.table("ours")
        assert "ROUGE-1" in table and "ROUGE-L" in table and "ours" in table

    def test_tokenization_is_case_and_punct_insensitive(self):
        r1, _, rl = score_pair("Punctuation, should! not? matter.", "punctuation should not matter")
        assert r1.f1 == pytest.approx(1.0)
        assert rl.f1 == pytest.approx(1.0)
