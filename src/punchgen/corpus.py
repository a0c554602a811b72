"""Corpus pipeline: filter raw jokes, segment punchlines, de-duplicate, split.

A raw joke survives filtering when its characters are all allowed, it
has at least two sentences and at least fifteen words; compiled regexes
check the first two. The last clause becomes the punchline.
Near-duplicates (bag-of-words cosine above the threshold against an
earlier survivor) are dropped keep-first, and the result is shuffled and
split 7:2:1. De-duplication counts every record's words in one pass
(`word_ids`, which ROUGE scoring shares, then `bow_rows`) and hands the
rows to `kernels.dedup_scan`, whose prefix filter verifies only the
pairs that could pass the threshold.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels

SENTENCE_DELIMS = ".!?"
CLAUSE_DELIMS = ".!?;,"
EXTRA_ALLOWED = "’‘“”"  # allowed beyond printable ASCII: the common curly apostrophes and quotes
MIN_SENTENCES = 2
MIN_WORDS = 15

_TOKEN_RE = re.compile(r"[a-z0-9]+")
# a sentence from its first character that is neither whitespace nor a delimiter
# up to the next delimiter; \s matches exactly the characters str.isspace() accepts
_SENTENCE_RE = re.compile(f"[^{re.escape(SENTENCE_DELIMS)}\\s][^{re.escape(SENTENCE_DELIMS)}]*")
_FOREIGN_RE = re.compile(f"[^ -~{re.escape(EXTRA_ALLOWED)}]")
# word_ids' word between texts: upper case, so no lower-cased text holds it
_ROW_BREAK = b"Q"
# keeps the bytes of _TOKEN_RE's characters and the break, maps every other byte to a
# space; UTF-8 encodes a non-ASCII character in bytes >= 0x80 only, so none survives
_WORD_BYTES = bytes(b if _TOKEN_RE.fullmatch(chr(b)) or bytes([b]) == _ROW_BREAK else 0x20
                    for b in range(256))


class SegmentationError(Exception):
    """No internal clause delimiter to split on."""


@dataclass(frozen=True)
class RawJoke:
    text: str

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("joke text is empty")


@dataclass
class JokeRecord:
    setup: str
    punchline: str
    triples: list[tuple[str, str, str]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "setup": self.setup,
            "punchline": self.punchline,
            "triples": [list(t) for t in self.triples],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "JokeRecord":
        """The record of a `to_json` dict; a missing or malformed field raises ValueError."""
        if not isinstance(obj, dict):
            raise ValueError(f"a record is a JSON object, not {type(obj).__name__}")
        for name in ("setup", "punchline"):
            if not isinstance(obj.get(name), str):
                raise ValueError(f"{name!r} is missing or not a string")
        triples = obj.get("triples", [])
        if not isinstance(triples, list) or not all(
                isinstance(t, list) and len(t) == 3 and all(isinstance(x, str) for x in t)
                for t in triples):
            raise ValueError(f"'triples' is not a list of 3-string triples: {triples!r}")
        return cls(setup=obj["setup"], punchline=obj["punchline"], triples=[tuple(t) for t in triples])

    def full_text(self) -> str:
        return f"{self.setup} {self.punchline}"


@dataclass
class BowVector:
    counts: dict[str, int]

    @property
    def sumsq(self) -> int:
        return sum(c * c for c in self.counts.values())


@dataclass
class DatasetSplit:
    train: list[JokeRecord]
    valid: list[JokeRecord]
    test: list[JokeRecord]


def count_sentences(text: str) -> int:
    """Runs of text between sentence delimiters that hold a non-whitespace character."""
    return len(_SENTENCE_RE.findall(text))


def count_words(text: str) -> int:
    return len(text.split())


def charset_permits(text: str) -> bool:
    """True when every character is printable ASCII or in EXTRA_ALLOWED."""
    return _FOREIGN_RE.search(text) is None


def filter_joke(raw: RawJoke) -> RawJoke | None:
    """Return the joke unchanged if it passes all filters, else None."""
    if not charset_permits(raw.text):
        return None
    if count_sentences(raw.text) < MIN_SENTENCES:
        return None
    if count_words(raw.text) < MIN_WORDS:
        return None
    return raw


def segment_punchline(joke: RawJoke) -> tuple[str, str]:
    """Split at the last clause delimiter that is not trailing punctuation.

    Clause delimiters are ``. ! ? ; ,``. A delimiter counts as trailing
    when everything after it is more delimiters, whitespace or closing
    quotes. The text after the split point is the punchline.
    """
    text = joke.text.strip()
    closers = "\"')’”"
    split_at = -1
    for i in range(len(text) - 1, -1, -1):
        if text[i] not in CLAUSE_DELIMS:
            continue
        tail = text[i + 1:]
        if any(c not in CLAUSE_DELIMS and not c.isspace() and c not in closers for c in tail):
            split_at = i
            break
    if split_at < 0:
        raise SegmentationError(f"no internal clause delimiter in: {text!r}")
    setup = text[: split_at + 1].strip()
    punchline = text[split_at + 1:].strip()
    return setup, punchline


def bow_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def bow_vector(text: str) -> BowVector:
    counts: dict[str, int] = {}
    for tok in bow_tokens(text):
        counts[tok] = counts.get(tok, 0) + 1
    return BowVector(counts)


def word_ids(texts: list[str]) -> tuple[np.ndarray, np.ndarray, list[bytes]]:
    """Every word of every text, as bow_tokens finds them, in text order: (row, ids, vocab).

    One pass over the lower-cased texts' UTF-8 bytes, joined by _ROW_BREAK:
    the bytes that _TOKEN_RE does not match become spaces, and the words
    are what lies between them. row[k] is the index of the text that holds
    word k and ids[k] its id; ids number the words from 1 in order of first
    appearance, and vocab[i] is the ASCII bytes of word i (vocab[0] is the
    break).
    """
    joined = (b" %b " % _ROW_BREAK).join([text.lower().encode("utf-8", "replace") for text in texts])
    words = joined.translate(_WORD_BYTES).split()
    vocab = dict(zip(dict.fromkeys([_ROW_BREAK, *words]), itertools.count()))
    ids = np.fromiter(map(vocab.__getitem__, words), dtype=np.int64, count=len(words))
    breaks = ids == 0
    return np.cumsum(breaks)[~breaks], ids[~breaks], list(vocab)


def bow_rows(texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The bow_vector counts of every text as CSR rows: (indptr, word ids, counts, sumsq).

    Word ids are those of `word_ids`, sorted within each row.
    """
    row, ids, vocab = word_ids(texts)
    keys, cnt = np.unique(row * len(vocab) + ids, return_counts=True)
    row, tok = np.divmod(keys, len(vocab))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=len(texts)))))
    sumsq = np.bincount(row, weights=cnt.astype(np.float64) ** 2, minlength=len(texts))
    return indptr, tok, cnt, sumsq


def bow_cosine(a: BowVector, b: BowVector) -> float:
    """Cosine of two count vectors over the union vocabulary; 0 if either is empty.

    The denominator is sqrt(sumsq_a * sumsq_b) over integer sums of
    squares, so identical vectors score exactly 1.0.
    """
    if not a.counts or not b.counts:
        return 0.0
    small, big = (a.counts, b.counts) if len(a.counts) <= len(b.counts) else (b.counts, a.counts)
    dot = sum(c * big.get(t, 0) for t, c in small.items())
    return dot / math.sqrt(a.sumsq * b.sumsq)


def deduplicate(jokes: list[JokeRecord], threshold: float = 0.93) -> list[JokeRecord]:
    """Drop records whose full-text cosine against an earlier survivor exceeds threshold.

    Keep-first, stable order. Similarity exactly equal to the threshold
    is kept (deletion requires strictly greater).
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must be in (0, 1]")
    if not jokes:
        return []
    indptr, tok, cnt, sumsq = bow_rows([rec.full_text() for rec in jokes])
    keep = kernels.dedup_scan(indptr, tok, cnt, sumsq, threshold)
    return [rec for rec, k in zip(jokes, keep) if k]


def split_dataset(records: list[JokeRecord], seed: int) -> DatasetSplit:
    """Seeded shuffle, then a contiguous 70/20/10 partition.

    Train and valid sizes round to the nearest record; the remainder is
    the test set.
    """
    if not records:
        raise ValueError("cannot split an empty record list")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    shuffled = [records[i] for i in order]
    n = len(records)
    n_train = round(0.7 * n)
    n_valid = round(0.2 * n)
    return DatasetSplit(
        train=shuffled[:n_train],
        valid=shuffled[n_train: n_train + n_valid],
        test=shuffled[n_train + n_valid:],
    )


# ---------------------------------------------------------------------- file IO


def read_raw_jokes(path: str | Path) -> list[RawJoke]:
    """Read raw jokes from a text file (one per line) or a CSV with a Joke column."""
    path = Path(path)
    jokes: list[RawJoke] = []
    if path.suffix.lower() == ".csv":
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "Joke" not in reader.fieldnames:
                raise ValueError(f"{path}: CSV input needs a 'Joke' column")
            for row in reader:
                text = (row["Joke"] or "").strip()
                if text:
                    jokes.append(RawJoke(text=text))
    else:
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                text = line.strip()
                if text:
                    jokes.append(RawJoke(text=text))
    return jokes


def write_jsonl(records: list[JokeRecord], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json(), ensure_ascii=False) + "\n")


def read_jsonl(path: str | Path) -> list[JokeRecord]:
    """The records of a JSON-lines file; a malformed line raises ValueError naming path:line."""
    records = []
    with Path(path).open(encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    records.append(JokeRecord.from_json(json.loads(line)))
                except ValueError as exc:
                    raise ValueError(f"{path}:{n}: {exc}") from exc
    return records


def build_corpus(
    input_paths: list[str | Path],
    dedup_threshold: float = 0.93,
    seed: int = 0,
) -> DatasetSplit:
    """Full pipeline: read, filter, segment, merge, de-duplicate, split."""
    records: list[JokeRecord] = []
    for path in input_paths:
        for raw in read_raw_jokes(path):
            kept = filter_joke(raw)
            if kept is None:
                continue
            setup, punchline = segment_punchline(kept)
            records.append(JokeRecord(setup=setup, punchline=punchline))
    records = deduplicate(records, threshold=dedup_threshold)
    return split_dataset(records, seed=seed)
