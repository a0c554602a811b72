"""Seeded input generators for the pipeline benchmark.

Every function here is a pure function of its arguments: the same seed
gives byte-identical inputs. Nothing here imports punchgen, so input
generation stays outside the program's measured set-up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from stub import CONFIDENCE_FLOOR, entity_confidence

_CONSONANTS = "bcdfghjklmnprstvwz"
_VOWELS = "aeiou"
SHARED_PER_JOKE = 2       # names from the shared entity pool in every kept joke


def pseudo_words(rng: np.random.Generator, n: int, min_syl: int = 1, max_syl: int = 3,
                 taken: set[str] | None = None) -> list[str]:
    """n distinct lowercase pseudo-words built from consonant-vowel syllables."""
    taken = set() if taken is None else taken
    out: list[str] = []
    while len(out) < n:
        syl = rng.integers(min_syl, max_syl + 1)
        word = "".join(_CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
                       for _ in range(syl))
        if len(word) > 1 and word not in taken:
            taken.add(word)
            out.append(word)
    return out


def zipf_weights(n: int, exponent: float = 1.0) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** exponent
    return w / w.sum()


# ---------------------------------------------------------------- raw jokes


@dataclass
class JokeFile:
    """A raw joke file and what the corpus stage must make of it."""

    lines: list[str]
    passing: list[str]            # texts that pass the filters, in file order
    survivors: list[str]          # texts that pass the filters and dedup, in file order

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(self.lines) + "\n")


def _entity_names(rng, n: int, taken: set[str], confident: bool) -> list[str]:
    """Capitalised names whose linker confidence is above (or at/below) the floor."""
    out = []
    while len(out) < n:
        name = pseudo_words(rng, 1, 2, 3, taken)[0].capitalize()
        if (entity_confidence(name) > CONFIDENCE_FLOOR) == confident:
            out.append(name)
    return out


def make_jokes(seed: int, n_lines: int, vocab_size: int, n_shared_entities: int = 150,
               share_charset: float = 0.05, share_one_sentence: float = 0.05,
               share_short: float = 0.05, share_near_dup: float = 0.08) -> JokeFile:
    """Raw joke lines over a Zipf vocabulary, with known filter failures and near-duplicates.

    Each share of the lines is exact, the line order shuffled. A kept joke
    reads "<sentence>. <clause>, <punchline>." and holds 17-34 words. Its
    set-up carries one entity name of its own, linked above the confidence
    floor, plus SHARED_PER_JOKE names from a shared pool, a fifth of which
    the linker scores at or below the floor. Every joke names the same
    number of entities, so a record's annotation work does not hang on
    the seed. A near-duplicate repeats an earlier kept joke with one extra
    word appended (cosine >= 0.97).
    """
    rng = np.random.default_rng([seed, 1])
    taken: set[str] = set()
    vocab = pseudo_words(rng, vocab_size, taken=taken)
    weights = zipf_weights(vocab_size, 0.9)
    shared = (_entity_names(rng, n_shared_entities * 4 // 5, taken, True)
              + _entity_names(rng, n_shared_entities // 5, taken, False))

    def words(k: int) -> list[str]:
        return [vocab[i] for i in rng.choice(vocab_size, size=k, p=weights)]

    def kept_joke() -> str:
        first = words(int(rng.integers(8, 14)))
        second = words(int(rng.integers(5, 10)))
        names = [_entity_names(rng, 1, taken, True)[0]]
        names += [shared[i] for i in rng.choice(len(shared), size=SHARED_PER_JOKE, replace=False)]
        for name in names:
            part = first if rng.random() < 0.6 else second
            part.insert(int(rng.integers(0, len(part) + 1)), name)
        punch = words(int(rng.integers(3, 9)))
        return f"{' '.join(first)}. {' '.join(second)}, {' '.join(punch)}."

    shares = [share_charset, share_one_sentence, share_short, share_near_dup]
    kinds = np.repeat(np.arange(1, 5), [round(n_lines * f) for f in shares])
    kinds = rng.permutation(np.concatenate([kinds, np.zeros(n_lines - len(kinds), dtype=int)]))
    lines: list[str] = []
    passing: list[str] = []
    survivors: list[str] = []
    for kind in kinds:
        if kind == 4 and survivors:
            original = survivors[int(rng.integers(len(survivors)))]
            lines.append(original[:-1] + " " + words(1)[0] + ".")
            passing.append(lines[-1])
        elif kind == 1:
            text = kept_joke()
            cut = int(rng.integers(0, len(text) - 1))
            lines.append(text[:cut] + rng.choice(["é", "ß", "ñ", "☃"]) + text[cut:])
        elif kind == 2:
            lines.append(f"{' '.join(words(int(rng.integers(9, 14))))}, "
                         f"{' '.join(words(int(rng.integers(6, 10))))}.")
        elif kind == 3:
            lines.append(f"{' '.join(words(int(rng.integers(4, 7))))}. "
                         f"{' '.join(words(int(rng.integers(2, 4))))}, "
                         f"{' '.join(words(int(rng.integers(2, 4))))}.")
        else:
            text = kept_joke()
            lines.append(text)
            passing.append(text)
            survivors.append(text)
    return JokeFile(lines, passing, survivors)


def max_offdup_cosine(survivors: list[str]) -> float:
    """Largest bag-of-words cosine between two distinct kept jokes."""
    from reference import bow_matrix, pairwise_cosine

    cos = pairwise_cosine(bow_matrix(survivors))
    cos.setdiag(0)
    return float(cos.max()) if cos.nnz else 0.0


# ------------------------------------------------------------- ROUGE pairs


def make_rouge_pairs(seed: int, n_pairs: int, vocab_size: int = 2000) -> tuple[list[str], list[str]]:
    """Hypothesis/reference lines of 3-20 words that share part of their words.

    A hypothesis is its reference with 40% of the words replaced, its first
    and last word swapped in three pairs out of ten, and up to two words cut
    or repeated at the end.
    """
    rng = np.random.default_rng([seed, 2])
    vocab = pseudo_words(rng, vocab_size)
    weights = zipf_weights(vocab_size)
    lengths = rng.integers(3, 21, size=n_pairs)
    total = int(lengths.sum())
    ref_ids = rng.choice(vocab_size, size=total, p=weights)
    sub_ids = np.where(rng.random(total) < 0.4, rng.choice(vocab_size, size=total, p=weights), ref_ids)
    swaps = rng.random(n_pairs) < 0.3
    ends = rng.integers(-2, 3, size=n_pairs)
    hyps, refs = [], []
    offset = 0
    for k, n in enumerate(lengths):
        ref = [vocab[i] for i in ref_ids[offset:offset + n]]
        hyp = [vocab[i] for i in sub_ids[offset:offset + n]]
        offset += n
        if swaps[k]:
            hyp[0], hyp[-1] = hyp[-1], hyp[0]
        hyp = hyp[:max(3, n + ends[k])] if ends[k] < 0 else (hyp + hyp[:ends[k]])[:20]
        hyps.append(" ".join(hyp).capitalize() + ".")
        refs.append(" ".join(ref) + ".")
    return hyps, refs


# --------------------------------------------------------- model records


def make_records(seed: int, n_records: int, n_words: int = 160, n_punch: int = 40,
                 n_labels: int = 60) -> list[dict]:
    """Annotated records: set-ups of 10-20 words, punchlines of 3-10, 2-8 triples.

    Set-up words follow a Zipf(0.8) law over n_words words; punchline words
    a steeper Zipf(1.3) law over the n_punch most frequent of them, so
    that a few training steps already have a word distribution to learn.
    Triple labels are one to three words long and drawn from shared pools,
    so labels repeat across records. Returns JSON-ready dicts in the
    `JokeRecord.to_json` layout.
    """
    rng = np.random.default_rng([seed, 3])
    taken: set[str] = set()
    vocab = pseudo_words(rng, n_words, taken=taken)
    weights = zipf_weights(n_words, 0.8)
    punch_weights = zipf_weights(n_punch, 1.3)
    pool = [" ".join(pseudo_words(rng, int(rng.integers(1, 4)), taken=taken)) for _ in range(n_labels)]
    relations = [" ".join(pseudo_words(rng, int(rng.integers(1, 3)), taken=taken)) for _ in range(12)]

    def words(k: int, p=weights) -> str:
        return " ".join(vocab[i] for i in rng.choice(len(p), size=k, p=p))

    out = []
    for _ in range(n_records):
        triples = []
        for _ in range(int(rng.integers(2, 9))):
            s, o = rng.choice(n_labels, size=2, replace=False)
            triples.append([pool[s], relations[int(rng.integers(len(relations)))], pool[o]])
        out.append({"setup": words(int(rng.integers(10, 21))) + ",",
                    "punchline": words(int(rng.integers(3, 11)), punch_weights) + ".",
                    "triples": triples})
    return out
