"""ROUGE-1/2/L scoring of generated punchlines against references.

Scoring tokenization is fixed and documented: lowercase, split on
non-alphanumeric runs. ROUGE-N uses clipped n-gram counts; ROUGE-L uses
sentence-level longest common subsequence. Corpus scores are the
per-line (macro) mean, reported x100.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import kernels
from .corpus import bow_tokens


class LineCountMismatch(Exception):
    """Hypothesis and reference files differ in line count."""


@dataclass(frozen=True)
class Score:
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(overlap: float, hyp_total: float, ref_total: float) -> "Score":
        precision = overlap / hyp_total if hyp_total else 0.0
        recall = overlap / ref_total if ref_total else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return Score(precision, recall, f1)


@dataclass
class RougeReport:
    rouge1: Score
    rouge2: Score
    rougeL: Score
    n_lines: int

    def to_dict(self) -> dict:
        return {
            name: {"precision": 100 * s.precision, "recall": 100 * s.recall, "f1": 100 * s.f1}
            for name, s in (("rouge1", self.rouge1), ("rouge2", self.rouge2),
                            ("rougeL", self.rougeL))
        } | {"n_lines": self.n_lines}

    def table(self, label: str = "model") -> str:
        header = f"{'Method':<12}{'ROUGE-1':>10}{'ROUGE-2':>10}{'ROUGE-L':>10}"
        row = (f"{label:<12}{100 * self.rouge1.f1:>10.2f}"
               f"{100 * self.rouge2.f1:>10.2f}{100 * self.rougeL.f1:>10.2f}")
        return "\n".join([header, row])


def score_tokens(text: str) -> list[str]:
    return bow_tokens(text)


def rouge_n(hyp: list[str], ref: list[str], n: int) -> Score:
    """Clipped n-gram overlap precision/recall/F1."""
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    hyp_grams = Counter(zip(*(hyp[i:] for i in range(n)))) if len(hyp) >= n else Counter()
    ref_grams = Counter(zip(*(ref[i:] for i in range(n)))) if len(ref) >= n else Counter()
    overlap = sum(min(c, ref_grams[g]) for g, c in hyp_grams.items())
    return Score.from_counts(overlap, sum(hyp_grams.values()), sum(ref_grams.values()))


def rouge_l(hyp: list[str], ref: list[str]) -> Score:
    """Sentence-level LCS precision/recall/F1."""
    if not hyp or not ref:
        return Score(0.0, 0.0, 0.0)
    lcs = kernels.lcs_length(hyp, ref)
    return Score.from_counts(lcs, len(hyp), len(ref))


def score_pair(hyp_text: str, ref_text: str) -> tuple[Score, Score, Score]:
    hyp, ref = score_tokens(hyp_text), score_tokens(ref_text)
    return rouge_n(hyp, ref, 1), rouge_n(hyp, ref, 2), rouge_l(hyp, ref)


def evaluate_lines(hyps: list[str], refs: list[str]) -> RougeReport:
    if len(hyps) != len(refs):
        raise LineCountMismatch(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        return RougeReport(Score(0, 0, 0), Score(0, 0, 0), Score(0, 0, 0), 0)
    totals = [[0.0] * 3 for _ in range(3)]
    for hyp_text, ref_text in zip(hyps, refs):
        for i, score in enumerate(score_pair(hyp_text, ref_text)):
            totals[i][0] += score.precision
            totals[i][1] += score.recall
            totals[i][2] += score.f1
    n = len(hyps)
    r1, r2, rl = (Score(t[0] / n, t[1] / n, t[2] / n) for t in totals)
    return RougeReport(r1, r2, rl, n)


def _read_lines(path: str | Path) -> list[str]:
    # lines end at "\n" only: a "\r" or other control byte in a hypothesis
    # stays inside its line, so hypotheses and references stay aligned
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read().split("\n")


def evaluate_corpus(hyps_path: str | Path, refs_path: str | Path) -> RougeReport:
    hyps = _read_lines(hyps_path)
    refs = _read_lines(refs_path)
    # a trailing newline produces one empty trailing entry; drop it symmetrically
    if hyps and hyps[-1] == "":
        hyps = hyps[:-1]
    if refs and refs[-1] == "":
        refs = refs[:-1]
    return evaluate_lines(hyps, refs)
