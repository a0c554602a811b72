import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from punchgen.evaluation import (
    LineCountMismatch,
    Score,
    evaluate_corpus,
    evaluate_lines,
    rouge_l,
    rouge_n,
    score_pair,
    score_tokens,
)

SHEET = json.loads((Path(__file__).parent / "fixtures" / "rouge_sheet.json").read_text())


class TestRougeN:
    def test_perfect_match(self):
        s = rouge_n(["the", "cat"], ["the", "cat"], 1)
        assert s == Score(1.0, 1.0, 1.0)

    def test_disjoint(self):
        s = rouge_n(["a", "b"], ["c", "d"], 2)
        assert s.f1 == 0.0

    def test_hand_value(self):
        # hyp "the cat" vs ref "the cat sat": recall 2/3, precision 1, f1 0.8
        s = rouge_n(["the", "cat"], ["the", "cat", "sat"], 1)
        assert s.precision == pytest.approx(1.0)
        assert s.recall == pytest.approx(2 / 3)
        assert s.f1 == pytest.approx(0.8)

    def test_clipping(self):
        # "the the the" vs "the cat": overlap clipped to 1
        s = rouge_n(["the", "the", "the"], ["the", "cat"], 1)
        assert s.precision == pytest.approx(1 / 3)
        assert s.recall == pytest.approx(1 / 2)

    def test_short_sequences_yield_zero_bigrams(self):
        s = rouge_n(["one"], ["one"], 2)
        assert s == Score(0.0, 0.0, 0.0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], ["a"], 3)


class TestRougeL:
    def test_identical(self):
        assert rouge_l(["a", "b", "c"], ["a", "b", "c"]).f1 == 1.0

    def test_hand_value(self):
        s = rouge_l(["a", "c", "b"], ["a", "b", "c"])
        assert s.precision == pytest.approx(2 / 3)
        assert s.recall == pytest.approx(2 / 3)
        assert s.f1 == pytest.approx(2 / 3)

    def test_empty_hypothesis(self):
        assert rouge_l([], ["a", "b"]) == Score(0.0, 0.0, 0.0)

    def test_lcs_at_least_common_bigram_chain(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            hyp = [str(x) for x in rng.integers(0, 5, size=rng.integers(2, 12))]
            ref = [str(x) for x in rng.integers(0, 5, size=rng.integers(2, 12))]
            lcs = rouge_l(hyp, ref).precision * len(hyp)
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

    def toks(s):
        return score_tokens(s)

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

    h, r = toks(hyp_text), toks(ref_text)

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
