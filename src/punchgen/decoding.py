"""Beam-search punchline generation.

The search itself is generic over a step function mapping a batch of
equal-length token prefixes, and each one's parent row in the previous call,
to next-token log-probabilities, one row per prefix, so toy models plug in
directly and a search step is one call.
Hypotheses rank by total log-probability during the search; the final
winner is chosen by length-normalized score (total / generated tokens)
unless raw-score ranking is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .corpus import JokeRecord, read_jsonl
from .model import DecoderCache, Model


@dataclass
class BeamHypothesis:
    tokens: list[int]
    logprob: float = 0.0
    finished: bool = False

    def score(self, length_normalize: bool) -> float:
        if not length_normalize:
            return self.logprob
        generated = max(len(self.tokens) - 1, 1)
        return self.logprob / generated


def beam_search(step_fn, bos_id: int, eos_id: int, beam: int = 5, max_len: int = 64,
                length_normalize: bool = True) -> BeamHypothesis:
    """Generic beam search over next-token log-probability distributions.

    step_fn(prefixes, parents) maps the live hypotheses' tokens, one (k, t) int array, to (k, vocab)
    next-token log-probabilities. `parents` is None on the first call, then each row's row in the
    previous call. Finished hypotheses are never extended; the search stops when every beam has
    finished or max_len tokens were generated.
    """
    if beam < 1:
        raise ValueError("beam must be >= 1")
    beams = [BeamHypothesis(tokens=[bos_id])]
    parents = None
    for _ in range(max_len):
        live = [h for h in beams if not h.finished]
        if not live:
            break
        logp = step_fn(np.array([h.tokens for h in live], dtype=np.intp), parents)
        top = np.argsort(logp, axis=-1)[:, ::-1][:, :beam]
        candidates = [(h, -1) for h in beams if h.finished]
        for parent, (hyp, row, toks) in enumerate(zip(live, logp, top)):
            for tok in toks:
                candidates.append((BeamHypothesis(
                    tokens=hyp.tokens + [int(tok)],
                    logprob=hyp.logprob + float(row[tok]),
                    finished=int(tok) == eos_id,
                ), parent))
        candidates.sort(key=lambda c: c[0].logprob, reverse=True)
        beams = [h for h, _ in candidates[:beam]]
        parents = np.array([p for h, p in candidates[:beam] if not h.finished], dtype=np.intp)
    for hyp in beams:
        hyp.finished = True  # length cutoff counts as finished
    return max(beams, key=lambda h: h.score(length_normalize))


def model_step_fn(model: Model, memory: ag.Tensor, knowledge: ag.Tensor | None):
    """The step function of one record: a decoder cache carries each call's positions to the next."""
    cache = DecoderCache()

    def step(prefixes: np.ndarray, parents: np.ndarray | None) -> np.ndarray:
        if parents is None:
            cache.past.clear()
        else:
            cache.select(parents)
            prefixes = prefixes[:, -1:]
        with ag.no_grad():
            dist = model.decode_step(prefixes, memory, knowledge, cache)
        with np.errstate(divide="ignore"):
            return np.log(dist)

    return step


def decode_record(model: Model, record: JokeRecord, beam: int = 5, max_len: int = 64,
                  length_normalize: bool = True) -> str:
    """Generate a punchline string for one annotated record."""
    with ag.no_grad():
        memory = model.encode_setup(model.tokenizer.encode(record.setup)[: model.cfg.max_len])
        knowledge = model.encode_triples(record.triples) if model.fused else None
    best = beam_search(
        model_step_fn(model, memory, knowledge),
        bos_id=model.tokenizer.bos_id, eos_id=model.tokenizer.eos_id,
        beam=beam, max_len=max_len, length_normalize=length_normalize,
    )
    return model.tokenizer.decode(best.tokens)


def generate_file(input_path: str | Path, model: Model, output_path: str | Path,
                  beam: int = 5, max_len: int = 64, length_normalize: bool = True,
                  refs_path: str | Path | None = None) -> int:
    """One generated punchline per input record, order-preserving.

    A newline decoded inside a hypothesis becomes a space, so line i of
    the output always belongs to record i. Optionally writes the
    reference punchlines alongside. Returns the number of lines written.
    Model failures abort the whole run; a record the model rejects (such
    as a set-up that encodes to no tokens) is named by its number.
    """
    records = read_jsonl(input_path)
    hyps = []
    for n, rec in enumerate(records, 1):
        try:
            hyps.append(decode_record(model, rec, beam=beam, max_len=max_len,
                                      length_normalize=length_normalize))
        except ValueError as exc:
            raise ValueError(f"{input_path}, record {n}: {exc}") from exc
    with Path(output_path).open("w", encoding="utf-8") as fh:
        for hyp in hyps:
            fh.write(hyp.replace("\n", " ") + "\n")
    if refs_path is not None:
        with Path(refs_path).open("w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(rec.punchline + "\n")
    return len(hyps)
