import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punchgen.tokenizer import (
    BOS,
    EOS,
    PAD,
    REV,
    Tokenizer,
    UnknownTokenError,
    train_tokenizer,
)

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
