"""Independent reference computations the benchmark checks the program against.

Each one is written from the definition, not from punchgen's code:
keep-first de-duplication over a scipy sparse cosine matrix, the
expected annotation derived from the stub's answer functions, ROUGE from
Counter n-grams and a list-based LCS table, and beam search over
next-token distributions taken from teacher-forced decoder states.
"""

from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np
import scipy.sparse as sp

from stub import CONFIDENCE_FLOOR, link_answer, sparql_answer

_WORD_RE = re.compile(r"[a-z0-9]+")


def words(text: str) -> list[str]:
    return _WORD_RE.findall(text.lower())


# ------------------------------------------------------------------ dedup


def bow_matrix(texts: list[str]) -> sp.csr_matrix:
    """Bag-of-words count rows, one per text."""
    vocab: dict[str, int] = {}
    rows, cols, vals = [], [], []
    for i, text in enumerate(texts):
        for word, count in Counter(words(text)).items():
            rows.append(i)
            cols.append(vocab.setdefault(word, len(vocab)))
            vals.append(float(count))
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(texts), max(len(vocab), 1)))


def pairwise_cosine(x: sp.csr_matrix) -> sp.csr_matrix:
    """Sparse cosine matrix dot / sqrt(sumsq_i * sumsq_j) over nonzero dots."""
    dots = (x @ x.T).tocoo()
    sumsq = np.asarray(x.multiply(x).sum(axis=1)).ravel()
    vals = dots.data / np.sqrt(sumsq[dots.row] * sumsq[dots.col])
    return sp.csr_matrix((vals, (dots.row, dots.col)), shape=dots.shape)


def keep_first(texts: list[str], threshold: float) -> list[bool]:
    """Row i survives iff its cosine to every earlier survivor is <= threshold."""
    cos = pairwise_cosine(bow_matrix(texts))
    keep = [False] * len(texts)
    for i in range(len(texts)):
        start, end = cos.indptr[i], cos.indptr[i + 1]
        near = cos.indices[start:end][cos.data[start:end] > threshold]
        keep[i] = not any(j < i and keep[j] for j in near)
    return keep


# ------------------------------------------------------------- annotation


def expected_triples(setup: str, max_per_entity: int) -> list[tuple[str, str, str]]:
    """The annotation of one set-up as the stub's answers define it.

    Mentions strictly above the confidence floor in text order; the first
    max_per_entity bindings of each concept; a triple already taken for
    this record is skipped.
    """
    out: list[tuple[str, str, str]] = []
    for mention in link_answer(setup):
        if not mention["rho"] > CONFIDENCE_FLOOR:
            continue
        for row in sparql_answer(mention["title"])["results"]["bindings"][:max_per_entity]:
            subject = row["subjLabel"]["value"] if "subjLabel" in row else mention["title"]
            triple = (subject, row["relLabel"]["value"], row["objLabel"]["value"])
            if triple not in out:
                out.append(triple)
    return out


# ------------------------------------------------------------------ ROUGE


def _prf(overlap: int, n_hyp: int, n_ref: int) -> tuple[float, float, float]:
    p = overlap / n_hyp if n_hyp else 0.0
    r = overlap / n_ref if n_ref else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def lcs(a: list, b: list) -> int:
    """Longest common subsequence length by the full (m+1) x (n+1) table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, 1):
        for j, y in enumerate(b, 1):
            table[i][j] = table[i - 1][j - 1] + 1 if x == y else max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def rouge(hyps: list[str], refs: list[str]) -> dict:
    """Macro-averaged ROUGE-1/2/L precision, recall and F1, x100."""
    sums = {name: [0.0, 0.0, 0.0] for name in ("rouge1", "rouge2", "rougeL")}
    for hyp_text, ref_text in zip(hyps, refs, strict=True):
        hyp, ref = words(hyp_text), words(ref_text)
        scores = {}
        for n in (1, 2):
            h, r = ngrams(hyp, n), ngrams(ref, n)
            scores[f"rouge{n}"] = _prf(sum((h & r).values()), sum(h.values()), sum(r.values()))
        scores["rougeL"] = _prf(lcs(hyp, ref), len(hyp), len(ref)) if hyp and ref else (0.0, 0.0, 0.0)
        for name, prf in scores.items():
            for k in range(3):
                sums[name][k] += prf[k]
    n = len(hyps)
    out = {name: {"precision": 100 * s[0] / n, "recall": 100 * s[1] / n, "f1": 100 * s[2] / n}
           for name, s in sums.items()}
    out["n_lines"] = n
    return out


def max_abs_diff(a: dict, b: dict) -> float:
    """Largest absolute difference between two ROUGE report dicts."""
    if a["n_lines"] != b["n_lines"]:
        return math.inf
    return max(abs(a[name][key] - b[name][key])
               for name in ("rouge1", "rouge2", "rougeL") for key in ("precision", "recall", "f1"))


# ------------------------------------------------------------ beam search


def log_probs(logits: np.ndarray) -> np.ndarray:
    """log of the softmax, computed as exp(x - max) / sum then log."""
    e = np.exp(logits - logits.max())
    with np.errstate(divide="ignore"):
        return np.log(e / e.sum())


def beam_search(next_logprobs, bos: int, eos: int, beam: int, max_len: int) -> list[int]:
    """Beam search by total log-probability; the winner has the best per-token mean.

    next_logprobs(prefix) gives the next-token log-probabilities. Finished
    hypotheses stay in the beam unextended; a tie in the ranking keeps the
    earlier candidate first.
    """
    beams = [((bos,), 0.0, False)]
    for _ in range(max_len):
        if all(done for _, _, done in beams):
            break
        pool = [b for b in beams if b[2]]
        for prefix, score, done in beams:
            if done:
                continue
            logp = next_logprobs(list(prefix))
            order = np.argsort(-logp, kind="stable")[:beam]
            pool += [(prefix + (int(t),), score + float(logp[t]), int(t) == eos) for t in order]
        pool.sort(key=lambda b: -b[1])
        beams = pool[:beam]
    best = max(beams, key=lambda b: b[1] / max(len(b[0]) - 1, 1))
    return list(best[0])


def model_beam_search(model, setup: str, triples, beam: int, max_len: int) -> str:
    """Reference decode of one record with a punchgen model, via teacher-forced states."""
    from punchgen import autograd as ag

    with ag.no_grad():
        memory = model.encode_setup(model.tokenizer.encode(setup)[: model.cfg.max_len])
        knowledge = model.encode_triples(triples) if model.fused else None

        def next_logprobs(prefix):
            states = model.decode_states(prefix, memory, knowledge)
            return log_probs(model.logits(states).data[-1])

        tokens = beam_search(next_logprobs, model.tokenizer.bos_id, model.tokenizer.eos_id,
                             beam, max_len)
    return model.tokenizer.decode(tokens)
