"""Beam-search punchline generation.

The search itself is generic over a step function mapping a batch of
equal-length token prefixes, and each one's parent row in the previous call,
to next-token log-probabilities, one row per prefix, so toy models plug in
directly and a search step is one call.
Hypotheses rank by total log-probability during the search; the final
winner is chosen by length-normalized score (total / generated tokens)
unless raw-score ranking is requested.

`generate_file` decodes a model's records on two threads, the caller's and
autograd's worker, when the model is large enough to gain: each thread takes
the next record not yet taken and decodes it whole, so every token is the
one a serial loop gives.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autograd as ag
from .corpus import JokeRecord, read_jsonl
from .model import DecoderCache, Model, uses_worker


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


def decode_threads(model: Model, n_records: int) -> int:
    """Threads `generate_file` decodes n_records records on: 2 when there are several and
    `uses_worker(model.cfg)` (its decoder's feed-forward weight has at least
    `autograd.LEAF_FLOOR` elements), else 1.

    With 4 records, beam 5 and max_len 16 on 2 cores (best of 4), two threads ran 0.80x as
    fast as one at d_model 64 / d_ff 256 (the desk preset), 0.79x at 128 / 512, 1.40x at
    256 / 1024 and 1.82x at the paper preset: the floor lies between the second (65,536
    elements) and the third (262,144).
    """
    return 2 if n_records > 1 and uses_worker(model.cfg) else 1


def _decode_records(model: Model, records: list[JokeRecord], threads: int,
                    **options) -> tuple[list[str | None], dict[int, Exception]]:
    """decode_record of each record, each whole on one of `threads` threads (1 or 2).

    Returns the texts in record order and the failures by record index. Each thread takes
    the next record not yet taken; once a thread stops, by a failure or for want of records,
    no record is started.
    """
    texts: list[str | None] = [None] * len(records)
    failures: dict[int, Exception] = {}
    untaken = iter(range(len(records)))
    lock = threading.Lock()
    stopped = False

    def decode_some() -> None:
        nonlocal stopped
        try:
            while True:
                with lock:
                    i = None if stopped else next(untaken, None)
                if i is None:
                    return
                texts[i] = decode_record(model, records[i], **options)
        except Exception as exc:  # the caller raises the failure of the lowest record
            failures[i] = exc
        finally:
            stopped = True

    with ag.beside(threads == 2) as submit:
        other = submit(decode_some)
        decode_some()
        other()  # on one thread it runs now and finds no record left
    return texts, failures


def generate_file(input_path: str | Path, model: Model, output_path: str | Path,
                  beam: int = 5, max_len: int = 64, length_normalize: bool = True,
                  refs_path: str | Path | None = None) -> int:
    """One generated punchline per input record, order-preserving.

    A newline decoded inside a hypothesis becomes a space, so line i of
    the output always belongs to record i. Optionally writes the
    reference punchlines alongside. Returns the number of lines written.
    Records go to `decode_threads` threads. Model failures abort the whole
    run before any output is written; the lowest-numbered record the model
    rejects (such as a set-up that encodes to no tokens) is named.
    """
    records = read_jsonl(input_path)
    hyps, failures = _decode_records(model, records, decode_threads(model, len(records)),
                                     beam=beam, max_len=max_len, length_normalize=length_normalize)
    if failures:
        n = min(failures)
        if isinstance(failures[n], ValueError):
            raise ValueError(f"{input_path}, record {n + 1}: {failures[n]}") from failures[n]
        raise failures[n]
    with Path(output_path).open("w", encoding="utf-8") as fh:
        for hyp in hyps:
            fh.write(hyp.replace("\n", " ") + "\n")
    if refs_path is not None:
        with Path(refs_path).open("w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(rec.punchline + "\n")
    return len(hyps)
