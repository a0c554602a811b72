"""Subword tokenizer: byte-pair encoding trained on the corpus.

Words are split on whitespace, terminated with an end-of-word symbol,
and repeatedly merged pairwise by training-corpus frequency. Characters
never seen in training fall back to single-byte tokens, so any string
can be encoded. Special tokens (padding, sequence start/end, and the
reverse-relation marker) are atomic: they never merge and always map
to themselves.
"""

from __future__ import annotations

import re
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
            if ch in self.token_to_id and not _BYTE_RE.match(ch):
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
                for sym in self._merge_word(self._word_symbols(word)):
                    ids.append(self.token_to_id[sym])
        return ids

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
            elif tok == EOW:
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
        if not lines[0].startswith("#punchgen-bpe"):
            raise ValueError(f"{_path}: not a tokenizer file")
        vocab: list[str] = []
        merges: list[tuple[str, str]] = []
        section = None
        for line in lines[1:]:
            if line == "#vocab":
                section = "vocab"
            elif line == "#merges":
                section = "merges"
            elif line:
                if section == "vocab":
                    vocab.append(line)
                elif section == "merges":
                    a, b = line.split(" ")
                    merges.append((a, b))
        return cls(vocab, merges)

    def dumps(self) -> str:
        out = ["#punchgen-bpe v1", "#vocab"]
        out.extend(self.vocab)
        out.append("#merges")
        out.extend(f"{a} {b}" for a, b in self.merges)
        return "\n".join(out) + "\n"


def train_tokenizer(texts: list[str], vocab_size: int = 2000) -> Tokenizer:
    """Learn BPE merges from raw text until the vocabulary reaches vocab_size.

    The base vocabulary is the special tokens, the 256 byte-fallback
    tokens, the end-of-word symbol and every character seen in the
    texts; remaining budget goes to merges. Ties between equally
    frequent pairs break lexicographically so training is deterministic.
    """
    word_freq: dict[str, int] = {}
    for text in texts:
        for word in text.split():
            if word in SPECIALS:
                continue
            word_freq[word] = word_freq.get(word, 0) + 1

    chars = sorted({ch for w in word_freq for ch in w})
    vocab = list(SPECIALS) + list(_BYTE_TOKENS) + [EOW] + chars
    base = len(vocab)

    seqs = {w: tuple(list(w) + [EOW]) for w in word_freq}
    merges: list[tuple[str, str]] = []
    vocab_set = set(vocab)
    while len(vocab) < max(vocab_size, base):
        pair_freq: dict[tuple[str, str], int] = {}
        for w, seq in seqs.items():
            f = word_freq[w]
            for i in range(len(seq) - 1):
                pair = (seq[i], seq[i + 1])
                pair_freq[pair] = pair_freq.get(pair, 0) + f
        # a merge must mint a new token string, else decoding turns ambiguous
        pair_freq = {p: f for p, f in pair_freq.items() if p[0] + p[1] not in vocab_set}
        if not pair_freq:
            break
        best = max(pair_freq, key=lambda p: (pair_freq[p], p))
        if pair_freq[best] < 2:
            break
        merges.append(best)
        merged_sym = best[0] + best[1]
        vocab.append(merged_sym)
        vocab_set.add(merged_sym)
        new_seqs = {}
        for w, seq in seqs.items():
            out = []
            i = 0
            while i < len(seq):
                if i < len(seq) - 1 and seq[i] == best[0] and seq[i + 1] == best[1]:
                    out.append(merged_sym)
                    i += 2
                else:
                    out.append(seq[i])
                    i += 1
            new_seqs[w] = tuple(out)
        seqs = new_seqs
    return Tokenizer(vocab, merges)
