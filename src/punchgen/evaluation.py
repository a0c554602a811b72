"""ROUGE-1/2/L scoring of generated punchlines against references.

Scoring tokenization is that of `corpus.bow_tokens`: lowercase, then the
runs of ASCII letters and digits. ROUGE-N uses clipped n-gram counts;
ROUGE-L uses sentence-level longest common subsequence. Corpus scores are
the per-line (macro) mean, reported x100.

Every line is scored in one pass. `corpus.word_ids` numbers the words of
all hypotheses and references in one vocabulary, the pass that
de-duplication shares. Each n-gram becomes one integer key (line, n-gram
id); sorting the keys counts them, and a line's clipped overlap sums the
smaller count of each key that both its sides hold. ROUGE-L runs
`kernels.lcs_length` per pair on the id lists. Per-line scores are
float64 quotients of exact integer counts and the means sum them in line
order, so a report equals, bit for bit, one built a line at a time.

`evaluate_lines` and `evaluate_corpus` (two line files) report the means;
`score_pair` gives the three scores of one pair by the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kernels
from .corpus import word_ids


class LineCountMismatch(Exception):
    """Hypothesis and reference files differ in line count."""


@dataclass(frozen=True)
class Score:
    precision: float
    recall: float
    f1: float


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


@dataclass(frozen=True)
class LinePairs:
    """The word ids of n hypothesis/reference pairs, in one vocabulary.

    Row i holds hypothesis i and row n + i reference i; `row` is
    nondecreasing and every id is below `vocab_size`.
    """
    row: np.ndarray
    ids: np.ndarray
    n_lines: int
    vocab_size: int

    @staticmethod
    def of(hyps: list[str], refs: list[str]) -> "LinePairs":
        row, ids, vocab = word_ids([*hyps, *refs])
        return LinePairs(row, ids, len(hyps), len(vocab))


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den in float64, 0.0 where den is 0."""
    return np.divide(num, den, out=np.zeros(len(den)), where=den != 0)


@dataclass(frozen=True)
class LineScores:
    """Precision, recall and F1 of every line, as float64 arrays."""
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray

    @staticmethod
    def from_counts(overlap: np.ndarray, hyp_total: np.ndarray, ref_total: np.ndarray) -> "LineScores":
        """overlap / hyp_total, overlap / ref_total and 2pr / (p + r), each 0.0 where undefined."""
        precision = _ratio(overlap, hyp_total)
        recall = _ratio(overlap, ref_total)
        return LineScores(precision, recall, _ratio(2 * precision * recall, precision + recall))

    def line(self, i: int) -> Score:
        return Score(float(self.precision[i]), float(self.recall[i]), float(self.f1[i]))

    def mean(self) -> Score:
        """The macro mean; each sum runs over the lines in order, one float at a time."""
        n = len(self.f1)
        return Score(sum(self.precision.tolist()) / n, sum(self.recall.tolist()) / n,
                     sum(self.f1.tolist()) / n)


def rouge_n(pairs: LinePairs, n: int) -> LineScores:
    """Clipped n-gram overlap precision/recall/F1 of every line."""
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    row, gram, size = pairs.row, pairs.ids, pairs.vocab_size
    if n == 2:
        # a bigram is two adjacent words of one row; np.unique numbers the
        # bigrams densely, so the keys below stay far inside int64
        inside = row[1:] == row[:-1]
        row = row[1:][inside]
        bigrams, gram = np.unique(gram[:-1][inside] * size + gram[1:][inside], return_inverse=True)
        size = max(len(bigrams), 1)
    keys, counts = np.unique(row * size + gram, return_counts=True)
    # hypothesis keys lie below n_lines * size; shifted down by it, a reference
    # key equals the hypothesis key of the same line and n-gram
    offset = pairs.n_lines * size
    split = np.searchsorted(keys, offset)
    shared, h, r = np.intersect1d(keys[:split], keys[split:] - offset,
                                  assume_unique=True, return_indices=True)
    overlap = np.bincount(shared // size, weights=np.minimum(counts[h], counts[split + r]),
                          minlength=pairs.n_lines)
    totals = np.bincount(row, minlength=2 * pairs.n_lines)
    return LineScores.from_counts(overlap, totals[:pairs.n_lines], totals[pairs.n_lines:])


def rouge_l(pairs: LinePairs) -> LineScores:
    """Sentence-level LCS precision/recall/F1 of every line."""
    n = pairs.n_lines
    bounds = np.searchsorted(pairs.row, np.arange(2 * n + 1))
    ids, at = pairs.ids.tolist(), bounds.tolist()
    lcs = [kernels.lcs_length(ids[at[i]:at[i + 1]], ids[at[n + i]:at[n + i + 1]]) for i in range(n)]
    lengths = np.diff(bounds)
    return LineScores.from_counts(np.array(lcs), lengths[:n], lengths[n:])


def _line_scores(hyps: list[str], refs: list[str]) -> tuple[LineScores, LineScores, LineScores]:
    pairs = LinePairs.of(hyps, refs)
    return rouge_n(pairs, 1), rouge_n(pairs, 2), rouge_l(pairs)


def score_pair(hyp_text: str, ref_text: str) -> tuple[Score, Score, Score]:
    r1, r2, rl = _line_scores([hyp_text], [ref_text])
    return r1.line(0), r2.line(0), rl.line(0)


def evaluate_lines(hyps: list[str], refs: list[str]) -> RougeReport:
    if len(hyps) != len(refs):
        raise LineCountMismatch(f"{len(hyps)} hypotheses vs {len(refs)} references")
    if not hyps:
        return RougeReport(Score(0.0, 0.0, 0.0), Score(0.0, 0.0, 0.0), Score(0.0, 0.0, 0.0), 0)
    r1, r2, rl = _line_scores(hyps, refs)
    return RougeReport(r1.mean(), r2.mean(), rl.mean(), len(hyps))


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
