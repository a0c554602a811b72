import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from punchgen import corpus
from punchgen.corpus import (
    BowVector,
    JokeRecord,
    RawJoke,
    SegmentationError,
    bow_cosine,
    bow_vector,
    deduplicate,
    filter_joke,
    segment_punchline,
    split_dataset,
)

# Hand-counted fixture: 20 words, 3 sentences (two '.', one '?').
ACCEPTED_JOKE = (
    "My dog ate all my homework last night. He looked very proud of it. "
    "Should I give him extra treats?"
)


class TestFilter:
    def test_word_floor(self):
        # 14 words, two sentences
        text = "One two three four five six seven. Eight nine ten eleven twelve thirteen fourteen."
        assert len(text.split()) == 14
        assert filter_joke(RawJoke(text)) is None

    def test_sentence_floor(self):
        text = "one two three four five six seven eight nine ten eleven twelve " \
               "thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty"
        assert len(text.split()) == 20
        assert filter_joke(RawJoke(text)) is None

    def test_accepts_and_returns_unchanged(self):
        assert len(ACCEPTED_JOKE.split()) == 20
        assert corpus.count_sentences(ACCEPTED_JOKE) == 3
        kept = filter_joke(RawJoke(ACCEPTED_JOKE))
        assert kept is not None and kept.text == ACCEPTED_JOKE

    def test_charset_rejection(self):
        text = ACCEPTED_JOKE + " é"
        assert filter_joke(RawJoke(text)) is None

    def test_curly_quotes_allowed_by_default(self):
        text = ACCEPTED_JOKE.replace("I", "I’d", 1)
        assert filter_joke(RawJoke(text)) is not None

    def test_exactly_fifteen_words_two_sentences_passes(self):
        text = "a b c d e f g h i j k l m. n o."
        assert len(text.split()) == 15
        assert filter_joke(RawJoke(text)) is not None


# texts that mix the filters' edge cases: delimiters, Unicode whitespace and letters,
# curly quotes, the Kelvin sign (lower-cases to ASCII k) and the row break of bow_rows
EDGY_TEXT = st.one_of(st.text(alphabet="aZq Q9.!?,;\t\n\u00a0\u2003\u212a\u0130é’“☃\x7f~", max_size=60),
                      st.text(max_size=60))


def charset_by_loop(text):
    return all(" " <= ch <= "~" or ch in corpus.EXTRA_ALLOWED for ch in text)


def sentences_by_split(text):
    parts = re.split(f"[{re.escape(corpus.SENTENCE_DELIMS)}]+", text)
    return sum(1 for p in parts if p.strip())


class TestFilterRegexes:
    @given(EDGY_TEXT)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_against_per_character_references(self, text):
        assert corpus.charset_permits(text) == charset_by_loop(text)
        assert corpus.count_sentences(text) == sentences_by_split(text)

    def test_hand_counts(self):
        assert corpus.count_sentences("  . Hi!! there ?  ") == 2
        assert corpus.count_sentences(" \u2003. ...") == 0
        assert corpus.charset_permits("it’s “fine” ~")
        assert not corpus.charset_permits("tab\there")


class TestSegmentation:
    def test_two_clause_minimum(self):
        assert segment_punchline(RawJoke("A. B.")) == ("A.", "B.")

    def test_last_sentence_becomes_punchline(self):
        setup, punch = segment_punchline(RawJoke("What did X say? Y! Z."))
        assert setup == "What did X say? Y!"
        assert punch == "Z."

    def test_comma_is_a_clause_delimiter(self):
        assert segment_punchline(RawJoke("A, b, c.")) == ("A, b,", "c.")

    def test_no_internal_delimiter_raises(self):
        with pytest.raises(SegmentationError):
            segment_punchline(RawJoke("no delimiters here at all"))

    def test_trailing_run_of_punctuation_ignored(self):
        setup, punch = segment_punchline(RawJoke("Why me? Because!!!"))
        assert setup == "Why me?"
        assert punch == "Because!!!"

    def test_trailing_quote_after_final_period(self):
        setup, punch = segment_punchline(RawJoke('He said hello. "Goodbye."'))
        assert setup == "He said hello."
        assert punch == '"Goodbye."'

    def test_rejoin_invariant_on_filtered_jokes(self):
        jokes = [
            ACCEPTED_JOKE,
            "A man walks into a bar with a duck on a lead. The barman stares. That is odd, he says.",
            "Why did the chicken cross the road, again and again and again? Nobody ever knew the reason. It just did.",
        ]
        for text in jokes:
            raw = filter_joke(RawJoke(text))
            assert raw is not None
            setup, punch = segment_punchline(raw)
            rejoined = f"{setup} {punch}".replace(" ", "")
            assert rejoined == raw.text.strip().replace(" ", "")


class TestBowCosine:
    def test_self_similarity(self):
        v = bow_vector("a funny joke about a dog")
        assert bow_cosine(v, v) == pytest.approx(1.0)

    def test_disjoint(self):
        assert bow_cosine(bow_vector("aa bb"), bow_vector("cc dd")) == 0.0

    def test_half_overlap_hand_value(self):
        # {a:1, b:1} vs {a:1, c:1}: dot 1, norms sqrt(2) each -> 0.5
        a = BowVector({"a": 1, "b": 1})
        b = BowVector({"a": 1, "c": 1})
        assert bow_cosine(a, b) == pytest.approx(0.5)

    def test_empty_vector(self):
        assert bow_cosine(BowVector({}), bow_vector("x")) == 0.0

    @given(st.text(alphabet="ab cd", max_size=40), st.text(alphabet="ab cd", max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, s, t):
        a, b = bow_vector(s), bow_vector(t)
        c1, c2 = bow_cosine(a, b), bow_cosine(b, a)
        assert c1 == pytest.approx(c2)
        assert -1e-12 <= c1 <= 1.0 + 1e-12


def dedup_oracle(jokes, threshold):
    """Independent O(n^2) keep-first rule on dict-count cosines."""
    kept = []
    for rec in jokes:
        counts = {}
        for w in rec.full_text().lower().split():
            w = "".join(c for c in w if c.isalnum())
            if w:
                counts[w] = counts.get(w, 0) + 1
        dup = False
        for other in kept:
            common = set(counts) & set(other[1])
            dot = sum(counts[t] * other[1][t] for t in common)
            na = math.sqrt(sum(v * v for v in counts.values()))
            nb = math.sqrt(sum(v * v for v in other[1].values()))
            if na > 0 and nb > 0 and dot / (na * nb) > threshold:
                dup = True
                break
        if not dup:
            kept.append((rec, counts))
    return [r for r, _ in kept]


def synthetic_jokes(n, seed):
    rng = np.random.default_rng(seed)
    words = ["dog", "cat", "bar", "man", "walks", "says", "funny", "beer", "why", "road"]
    jokes = []
    for _ in range(n):
        k = rng.integers(3, 9)
        toks = [words[i] for i in rng.integers(0, len(words), size=k)]
        jokes.append(JokeRecord(setup=" ".join(toks[:-1]) + ",", punchline=toks[-1] + "."))
    return jokes


class TestDeduplicate:
    def test_identical_pair(self):
        a = JokeRecord("Same setup,", "same punch.")
        b = JokeRecord("Same setup,", "same punch.")
        assert deduplicate([a, b]) == [a]

    def test_disjoint_pair_survives(self):
        a = JokeRecord("aa bb,", "cc.")
        b = JokeRecord("dd ee,", "ff.")
        assert deduplicate([a, b]) == [a, b]

    def test_matches_brute_force_oracle(self):
        jokes = synthetic_jokes(100, seed=7)
        got = deduplicate(jokes, threshold=0.93)
        want = dedup_oracle(jokes, threshold=0.93)
        assert [j.full_text() for j in got] == [j.full_text() for j in want]

    def test_threshold_boundary_is_kept(self):
        # cosine of these two is exactly representable; equality must keep both
        a = JokeRecord("aa aa aa,", "bb bb bb bb.")
        b = JokeRecord("aa aa aa aa,", "bb bb bb.")
        c = bow_cosine(bow_vector(a.full_text()), bow_vector(b.full_text()))
        assert deduplicate([a, b], threshold=c) == [a, b]
        below = np.nextafter(c, 0.0)
        assert deduplicate([a, b], threshold=float(below)) == [a]

    def test_idempotent(self):
        jokes = synthetic_jokes(60, seed=3)
        once = deduplicate(jokes)
        twice = deduplicate(once)
        assert [j.full_text() for j in once] == [j.full_text() for j in twice]

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            deduplicate([], threshold=0.0)


class TestWordIds:
    @given(st.lists(st.one_of(EDGY_TEXT, st.text(alphabet="aQ9 \r\n\ud800\udfff\u0130\u212a", max_size=30)),
                    max_size=6))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(["", "Q", "q Q", "\u0130stanbul \u212aelvin", "x\ud800y", "a\r\nb", " .,! ", ""])
    def test_words_are_bow_tokens(self, texts):
        row, ids, vocab = corpus.word_ids(texts)
        assert len(set(vocab)) == len(vocab)  # one id per word
        assert len(ids) == sum(len(corpus.bow_tokens(text)) for text in texts)
        for i, text in enumerate(texts):
            assert [vocab[k].decode() for k in ids[row == i].tolist()] == corpus.bow_tokens(text)


class TestBowRows:
    @given(st.lists(EDGY_TEXT, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_rows_are_the_bow_vectors(self, texts):
        vocab = {}
        for text in texts:
            for word in corpus.bow_tokens(text):
                vocab.setdefault(word, len(vocab) + 1)
        indptr, tok, cnt, sumsq = corpus.bow_rows(texts)
        for i, text in enumerate(texts):
            vec = bow_vector(text)
            want = sorted((vocab[w], c) for w, c in vec.counts.items())
            assert list(zip(tok[indptr[i]:indptr[i + 1]].tolist(), cnt[indptr[i]:indptr[i + 1]].tolist())) == want
            assert sumsq[i] == vec.sumsq


class TestSplit:
    def _records(self, n):
        return [JokeRecord(f"setup {i},", f"punch {i}.") for i in range(n)]

    def test_ten_records_split_7_2_1(self):
        split = split_dataset(self._records(10), seed=1)
        assert (len(split.train), len(split.valid), len(split.test)) == (7, 2, 1)

    def test_single_record(self):
        split = split_dataset(self._records(1), seed=1)
        assert (len(split.train), len(split.valid), len(split.test)) == (1, 0, 0)

    def test_deterministic(self):
        recs = self._records(23)
        a = split_dataset(recs, seed=99)
        b = split_dataset(recs, seed=99)
        assert [r.setup for r in a.train] == [r.setup for r in b.train]
        assert [r.setup for r in a.test] == [r.setup for r in b.test]

    def test_partition_property(self):
        recs = self._records(37)
        split = split_dataset(recs, seed=5)
        combined = split.train + split.valid + split.test
        assert sorted(r.setup for r in combined) == sorted(r.setup for r in recs)
        ids = [id(r) for r in combined]
        assert len(set(ids)) == len(ids)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            split_dataset([], seed=0)


class TestIO:
    def test_jsonl_round_trip(self, tmp_path):
        recs = [
            JokeRecord("a setup,", "a punch.", triples=[("s", "r", "o")]),
            JokeRecord("b setup,", "b punch."),
        ]
        path = tmp_path / "data.jsonl"
        corpus.write_jsonl(recs, path)
        back = corpus.read_jsonl(path)
        assert back == recs
        lines = path.read_text().strip().split("\n")
        assert json.loads(lines[0])["triples"] == [["s", "r", "o"]]

    @pytest.mark.parametrize("line,problem", [
        ('{"punchline": "p."}', "'setup' is missing or not a string"),
        ('{"setup": "s,", "punchline": 3}', "'punchline' is missing or not a string"),
        ('{"setup": "s,", "punchline": "p.", "triples": [["a", "b"]]}', "'triples' is not a list"),
        ('{"setup": "s,", "punchline": "p.", "triples": [["a", "b", 1]]}', "'triples' is not a list"),
        ('{"setup": "s,", "punchline": "p.", "triples": "a b c"}', "'triples' is not a list"),
        ('["s,", "p."]', "a record is a JSON object, not list"),
        ('{"setup": "s,"', "Expecting"),
    ])
    def test_malformed_record_names_its_line(self, tmp_path, line, problem):
        path = tmp_path / "data.jsonl"
        path.write_text('{"setup": "s,", "punchline": "p."}\n\n' + line + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: {problem}")):
            corpus.read_jsonl(path)

    def test_read_plain_lines(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("first joke here.\n\nsecond joke here.\n")
        jokes = corpus.read_raw_jokes(path)
        assert [j.text for j in jokes] == ["first joke here.", "second joke here."]

    def test_read_csv_joke_column(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text('ID,Joke\n1,"A joke, with a comma."\n2,another one.\n')
        jokes = corpus.read_raw_jokes(path)
        assert [j.text for j in jokes] == ["A joke, with a comma.", "another one."]

    def test_csv_without_joke_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            corpus.read_raw_jokes(path)
