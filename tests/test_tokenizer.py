import hashlib
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punchgen.tokenizer import (
    _BYTE_TOKENS,
    BOS,
    EOS,
    EOW,
    PAD,
    REV,
    SPECIALS,
    Tokenizer,
    UnknownTokenError,
    train_tokenizer,
)

FIXTURES = Path(__file__).parent / "fixtures"

CORPUS = [
    "the cat sat on the mat",
    "the dog sat on the log",
    "why did the chicken cross the road",
    "a man walks into a bar and orders a drink",
    "knock knock who is there",
]


@pytest.fixture(scope="module")
def tok():
    return train_tokenizer(CORPUS, vocab_size=400)


class TestRoundTrip:
    def test_in_corpus_text(self, tok):
        for text in CORPUS:
            assert tok.decode(tok.encode(text)) == text

    def test_unseen_words_from_seen_chars(self, tok):
        text = "the dog orders a mat"
        assert tok.decode(tok.encode(text)) == text

    def test_byte_fallback_round_trip(self, tok):
        text = "café jokes"  # é unseen in training
        assert tok.decode(tok.encode(text)) == text

    @given(st.text(alphabet="abcdehiklmnorstwy ", max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_whitespace_normalized_round_trip(self, text):
        tok = train_tokenizer(CORPUS, vocab_size=300)
        normalized = " ".join(text.split())
        assert tok.decode(tok.encode(text)) == normalized


class TestSpecials:
    def test_specials_have_fixed_low_ids(self, tok):
        assert tok.vocab[:4] == [PAD, BOS, EOS, REV]
        assert tok.pad_id == 0 and tok.bos_id == 1 and tok.eos_id == 2 and tok.rev_id == 3

    def test_rev_marker_is_atomic(self, tok):
        ids = tok.encode("<r>position held")
        assert ids[0] == tok.rev_id
        assert tok.decode(ids) == "<r>position held"

    def test_pad_dropped_on_decode(self, tok):
        ids = tok.encode("the cat") + [tok.pad_id] * 3
        assert tok.decode(ids) == "the cat"
        assert tok.decode([tok.bos_id] + ids + [tok.eos_id]) == "the cat"


class TestTraining:
    def test_deterministic(self):
        a = train_tokenizer(CORPUS, vocab_size=350)
        b = train_tokenizer(CORPUS, vocab_size=350)
        assert a.vocab == b.vocab and a.merges == b.merges

    def test_vocab_size_cap(self):
        tok = train_tokenizer(CORPUS, vocab_size=300)
        assert tok.vocab_size <= 300

    def test_merges_actually_compress(self, tok):
        # "the" occurs often: should encode to fewer ids than characters
        assert len(tok.encode("the")) < 4

    def test_unknown_byte_token_raises(self):
        tok = train_tokenizer(CORPUS, vocab_size=300)
        pruned = Tokenizer([t for t in tok.vocab if not t.startswith("<0x")], tok.merges)
        with pytest.raises(UnknownTokenError):
            pruned.encode("café")


class TestFileFormat:
    def test_save_load_round_trip(self, tok, tmp_path):
        path = tmp_path / "tok.bpe"
        tok.save(path)
        assert path.read_bytes() == tok.dumps().encode("utf-8")
        back = Tokenizer.load(path)
        assert back.vocab == tok.vocab and back.merges == tok.merges
        assert back.encode("the cat sat") == tok.encode("the cat sat")

    def test_dumps_loads(self, tok):
        back = Tokenizer.loads(tok.dumps())
        assert back.vocab == tok.vocab and back.merges == tok.merges

    def test_reject_foreign_file(self, tmp_path):
        path = tmp_path / "bad.bpe"
        path.write_text("not a tokenizer\n")
        with pytest.raises(ValueError, match="bad.bpe"):
            Tokenizer.load(path)


class TestEncodeCache:
    def test_cached_ids_equal_uncached(self):
        jokes = (FIXTURES / "raw_jokes.txt").read_text(encoding="utf-8").splitlines()
        tok = train_tokenizer(jokes[:20], vocab_size=500)
        # later jokes hold unseen words, and the last one needs byte fallback
        for text in jokes:
            uncached = [i for w in text.split() for i in tok._encode_word(w)]
            assert tok.encode(text) == uncached   # fills the cache
            assert tok.encode(text) == uncached   # served from the cache


class TestSectionNamesAsTokens:
    """'#vocab' and '#merges' can be tokens; the file is parsed by position."""

    @pytest.fixture(scope="class")
    def hashtok(self):
        tok = train_tokenizer(["#mergesort #mergesx #merges1 #vocabulary #vocabs #vocab1 the cat"],
                              vocab_size=2000)
        assert "#merges" in tok.vocab and "#vocab" in tok.vocab
        return tok

    def test_save_load_round_trip(self, hashtok, tmp_path):
        path = tmp_path / "tok.bpe"
        hashtok.save(path)
        back = Tokenizer.load(path)
        assert back.vocab == hashtok.vocab and back.merges == hashtok.merges
        assert back.dumps() == hashtok.dumps()
        assert back.encode("#merges #vocab") == hashtok.encode("#merges #vocab")

    def test_checkpoint_round_trip(self, hashtok, tmp_path):
        from punchgen.config import ModelConfig
        from punchgen.model import Model, init_params, load_checkpoint, save_checkpoint

        cfg = ModelConfig(d_model=8, n_blocks=1, n_heads=2, d_ff=16, vocab_size=hashtok.vocab_size,
                          max_len=16, dropout=0.0)
        params = init_params(np.random.default_rng(0), cfg, hashtok.vocab_size, fused=False)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, Model(params, cfg, hashtok, fused=False))
        model = load_checkpoint(path)[0]
        assert model.tokenizer.vocab == hashtok.vocab and model.tokenizer.merges == hashtok.merges

    def test_missing_sections_rejected(self):
        with pytest.raises(ValueError, match="not a tokenizer file"):
            Tokenizer.loads("#punchgen-bpe v1\n#vocab\n<pad>\n")


# ------------------------------------------------- the trainer against its oracle


def recount_train_tokenizer(texts: list[str], vocab_size: int) -> Tokenizer:
    """The reference trainer: recount every pair over every word type on each merge."""
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
        pair_freq = {p: f for p, f in pair_freq.items() if p[0] + p[1] not in vocab_set
                     and not ((p[0] + p[1]).endswith(EOW) and not p[1].endswith(EOW))}
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


def bench_like_texts(seed: int) -> list[str]:
    """Joke-like lines over a Zipf vocabulary of consonant-vowel pseudo-words and names."""
    rng = random.Random(seed)
    words = sorted({"".join(rng.choice("bcdfghjklmnprstvwz") + rng.choice("aeiou")
                            for _ in range(rng.randint(1, 3))) for _ in range(3000)})
    rng.shuffle(words)
    weights = [1 / rank for rank in range(1, len(words) + 1)]
    texts = []
    for _ in range(320):
        line = rng.choices(words, weights, k=rng.randint(16, 32))
        line = [w.capitalize() if rng.random() < 0.1 else w for w in line]
        line = [w + rng.choice(".,") if rng.random() < 0.08 else w for w in line]
        texts.append(" ".join(line))
    return texts


# (texts, vocab_size) -> sha256 of dumps() from the recount trainer, recorded once
FROZEN_DUMPS = {
    ("bench1", 420): "b54f36078054055b8ee52c944a2e58b9f9fd2dd7c4fec4edff8859a28d954a65",
    ("bench2", 420): "595fed060bb3d6578d42f9a3f912e0cdea0f821af493048a68979f36e5c7c1e9",
    ("bench3", 2000): "0772657d1f9219372f5f75d9ca59d94070ba026cac58e923c1273bcd2890c6d0",
    ("fixtures", 2000): "54f4ef10d323df9ef3a71f4bdc185fe998dfaeed91500c87b39df7aab81a82ea",
}


def frozen_texts(name: str) -> list[str]:
    if name == "fixtures":
        return (FIXTURES / "raw_jokes.txt").read_text(encoding="utf-8").splitlines()
    return bench_like_texts(int(name.removeprefix("bench")))


# Words spelled from these pieces make ties, runs ("aaaa") and concatenation
# clashes frequent. A clash is a pair whose concatenation is already a token:
# "a<"+"/w>" against the merged "a"+"</w>", or "<r"+">" against the special.
# Over letters alone, greedy merging makes clashes all but impossible.
WORD_PIECES = ["a", "b", "</w>", "<r>"]


class TestIncrementalTrainer:
    @given(st.lists(st.lists(st.lists(st.sampled_from(WORD_PIECES), min_size=1, max_size=5).map("".join),
                             max_size=8), max_size=8),
           st.sampled_from([100, 262, 266, 275, 300, 2000]))
    @settings(max_examples=200, deadline=None)
    def test_matches_recount_oracle(self, lines, vocab_size):
        texts = [" ".join(words) for words in lines]
        got, want = train_tokenizer(texts, vocab_size), recount_train_tokenizer(texts, vocab_size)
        assert got.merges == want.merges
        assert got.dumps() == want.dumps()

    def test_literal_end_of_word_spelling_stays_inside_a_word(self):
        """No merge may spell EOW at its end from literal characters: decode would read a word end."""
        tok = train_tokenizer(["b</w>x b</w>y b</w>z"], 2000)
        assert all(b.endswith(EOW) for a, b in tok.merges if (a + b).endswith(EOW))
        assert tok.decode(tok.encode("b</w>x")) == "b</w>x"

    @pytest.mark.parametrize("name,vocab_size", sorted(FROZEN_DUMPS))
    def test_frozen_digest(self, name, vocab_size):
        dumps = train_tokenizer(frozen_texts(name), vocab_size).dumps()
        assert hashlib.sha256(dumps.encode("utf-8")).hexdigest() == FROZEN_DUMPS[name, vocab_size]
