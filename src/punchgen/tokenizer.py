"""Subword tokenizer: byte-pair encoding trained on the corpus.

Words are split on whitespace, terminated with an end-of-word symbol,
and repeatedly merged pairwise by training-corpus frequency. Characters
never seen in training fall back to single-byte tokens, so any string
can be encoded. Special tokens (padding, sequence start/end, and the
reverse-relation marker) are atomic: they never merge and always map
to themselves.
"""

from __future__ import annotations

import heapq
import re
from collections import defaultdict
from pathlib import Path

PAD, BOS, EOS, REV = "<pad>", "<s>", "</s>", "<r>"
SPECIALS = (PAD, BOS, EOS, REV)
EOW = "</w>"

_BYTE_TOKENS = tuple(f"<0x{b:02X}>" for b in range(256))
_BYTE_RE = re.compile(r"^<0x([0-9A-F]{2})>$")


class UnknownTokenError(Exception):
    """The vocabulary cannot cover the input even via byte fallback."""


class Tokenizer:
    def __init__(self, vocab: list[str], merges: list[tuple[str, str]]):
        self.vocab = list(vocab)
        self.merges = list(merges)
        self.token_to_id = {t: i for i, t in enumerate(self.vocab)}
        self.merge_rank = {pair: r for r, pair in enumerate(self.merges)}
        self._word_ids: dict[str, tuple[int, ...]] = {}
        self._special_re = re.compile(
            "(" + "|".join(re.escape(s) for s in sorted(SPECIALS, key=len, reverse=True)) + ")"
        )
        for s in SPECIALS:
            if s not in self.token_to_id:
                raise ValueError(f"vocabulary is missing special token {s!r}")

    # ------------------------------------------------------------------ basics

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def pad_id(self) -> int:
        return self.token_to_id[PAD]

    @property
    def bos_id(self) -> int:
        return self.token_to_id[BOS]

    @property
    def eos_id(self) -> int:
        return self.token_to_id[EOS]

    @property
    def rev_id(self) -> int:
        return self.token_to_id[REV]

    # ------------------------------------------------------------------ encode

    def _word_symbols(self, word: str) -> list[str]:
        symbols: list[str] = []
        for ch in word:
            if ch in self.token_to_id:
                symbols.append(ch)
            else:
                for b in ch.encode("utf-8"):
                    tok = _BYTE_TOKENS[b]
                    if tok not in self.token_to_id:
                        raise UnknownTokenError(
                            f"character {ch!r} needs byte token {tok} which is not in the vocabulary"
                        )
                    symbols.append(tok)
        symbols.append(EOW)
        return symbols

    def _merge_word(self, symbols: list[str]) -> list[str]:
        # repeatedly apply the lowest-ranked merge present
        while len(symbols) > 1:
            best_rank, best_i = None, -1
            for i in range(len(symbols) - 1):
                rank = self.merge_rank.get((symbols[i], symbols[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank, best_i = rank, i
            if best_rank is None:
                break
            symbols = symbols[:best_i] + [symbols[best_i] + symbols[best_i + 1]] + symbols[best_i + 2:]
        return symbols

    def encode(self, text: str) -> list[int]:
        ids: list[int] = []
        for segment in self._special_re.split(text):
            if not segment:
                continue
            if segment in SPECIALS:
                ids.append(self.token_to_id[segment])
                continue
            for word in segment.split():
                word_ids = self._word_ids.get(word)
                if word_ids is None:
                    word_ids = self._word_ids[word] = self._encode_word(word)
                ids.extend(word_ids)
        return ids

    def _encode_word(self, word: str) -> tuple[int, ...]:
        """The ids of one whitespace-free word; `encode` caches them per word."""
        return tuple(self.token_to_id[sym] for sym in self._merge_word(self._word_symbols(word)))

    # ------------------------------------------------------------------ decode

    def decode(self, ids: list[int]) -> str:
        buf = bytearray()
        for i in ids:
            tok = self.vocab[i]
            if tok in (PAD, BOS, EOS):
                continue
            m = _BYTE_RE.match(tok)
            if m:
                buf.append(int(m.group(1), 16))
                continue
            if tok.endswith(EOW):
                buf.extend(tok[: -len(EOW)].encode("utf-8"))
                buf.extend(b" ")
            else:
                buf.extend(tok.encode("utf-8"))
        return buf.decode("utf-8", errors="replace").rstrip(" ")

    # ------------------------------------------------------------------ file IO

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Tokenizer":
        return cls.loads(Path(path).read_text(encoding="utf-8"), _path=path)

    @classmethod
    def loads(cls, text: str, _path="<string>") -> "Tokenizer":
        """Parse the text `dumps` writes; errors name `_path`."""
        lines = text.split("\n")
        if not lines[0].startswith("#punchgen-bpe") or lines[1:2] != ["#vocab"] or "#merges" not in lines[2:]:
            raise ValueError(f"{_path}: not a tokenizer file")
        # Sections are found by position, since "#vocab" and "#merges" can be
        # tokens too. A merge line always holds a space, so the separator is
        # the last "#merges" line.
        sep = len(lines) - 1 - lines[::-1].index("#merges")
        vocab = [line for line in lines[2:sep] if line]
        merges = [(a, b) for a, b in (line.split(" ") for line in lines[sep + 1:] if line)]
        return cls(vocab, merges)

    def dumps(self) -> str:
        out = ["#punchgen-bpe v1", "#vocab"]
        out.extend(self.vocab)
        out.append("#merges")
        out.extend(f"{a} {b}" for a, b in self.merges)
        return "\n".join(out) + "\n"


class _LargestFirst:
    """Heap key that puts the lexicographically largest pair first."""

    __slots__ = ("pair",)

    def __init__(self, pair: tuple[str, str]):
        self.pair = pair

    def __lt__(self, other: "_LargestFirst") -> bool:
        return self.pair > other.pair


def _fake_word_end(a: str, b: str) -> bool:
    """Whether a + b ends in the spelling of EOW although b does not, as "b</" + "w>" does."""
    return (a + b).endswith(EOW) and not b.endswith(EOW)


def train_tokenizer(texts: list[str], vocab_size: int = 2000) -> Tokenizer:
    """Learn BPE merges from raw text until the vocabulary reaches vocab_size.

    The base vocabulary is the special tokens, the 256 byte-fallback
    tokens, the end-of-word symbol and every character seen in the
    texts; remaining budget goes to merges. Each merge joins the most
    frequent adjacent pair; among equally frequent pairs the
    lexicographically largest wins, so training is deterministic. A
    merge must mint a new token string, and may end in the spelling of
    the end-of-word symbol only where its right part does. Training stops
    early once the best remaining pair occurs fewer than twice.

    Pair counts are kept incrementally (Sennrich et al. 2016,
    arXiv:1508.07909): a merge rewrites only the word types that hold its
    pair, and the best pair comes from a max-heap with lazy deletion.
    """
    word_freq: dict[str, int] = {}
    for text in texts:
        for word in text.split():
            if word in SPECIALS:
                continue
            word_freq[word] = word_freq.get(word, 0) + 1

    chars = sorted({ch for w in word_freq for ch in w})
    vocab = list(SPECIALS) + list(_BYTE_TOKENS) + [EOW] + chars
    vocab_set = set(vocab)

    seqs = [list(w) + [EOW] for w in word_freq]
    freqs = list(word_freq.values())
    # pair -> summed frequency of its occurrences; a run "a a a" holds ("a", "a") twice
    counts: dict[tuple[str, str], int] = defaultdict(int)
    # pair -> the word types that hold it (or once held it)
    where: dict[tuple[str, str], set[int]] = defaultdict(set)
    for wi, (seq, f) in enumerate(zip(seqs, freqs)):
        for pair in zip(seq, seq[1:]):
            counts[pair] += f
            where[pair].add(wi)
    # A pair's count rises only when the pair first appears: at the start,
    # or in the merge that mints one of its symbols. It is pushed then and
    # only falls afterwards, so every live pair has an entry of at least its
    # count, and a stale entry is re-pushed with the current count when it
    # surfaces.
    heap = [(-c, _LargestFirst(pair)) for pair, c in counts.items()]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    while len(vocab) < vocab_size and heap:
        neg, key = heapq.heappop(heap)
        a, b = best = key.pair
        merged = a + b
        # A merge must mint a new token string, else decoding turns
        # ambiguous, and only a token that ends in the end-of-word symbol may
        # end in its spelling, since decoding reads that as a word end. The
        # vocabulary only grows, so the pair is dropped for good.
        if merged in vocab_set or _fake_word_end(a, b):
            continue
        freq = counts.get(best, 0)
        if freq != -neg:        # stale: the count fell since this entry was pushed
            if freq:
                heapq.heappush(heap, (-freq, key))
            continue
        if freq < 2:
            break
        merges.append(best)
        vocab.append(merged)
        vocab_set.add(merged)

        delta: dict[tuple[str, str], int] = defaultdict(int)
        for wi in where.pop(best):
            seq = seqs[wi]
            n = len(seq)
            out: list[str] = []
            i = 0
            while i < n:
                if seq[i] == a and i + 1 < n and seq[i + 1] == b:
                    out.append(merged)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            if len(out) == n:
                continue
            f = freqs[wi]
            for pair in zip(seq, seq[1:]):
                delta[pair] -= f
            for pair in zip(out, out[1:]):
                delta[pair] += f
                if merged in pair:
                    where[pair].add(wi)
            seqs[wi] = out
        for pair, d in delta.items():
            if d:
                c = counts[pair] + d
                if c:
                    counts[pair] = c
                    if d > 0:
                        heapq.heappush(heap, (-c, _LargestFirst(pair)))
                else:
                    del counts[pair]
    return Tokenizer(vocab, merges)
