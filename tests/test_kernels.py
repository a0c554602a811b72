"""Both kernels against independent references written from the definitions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punchgen import kernels


def lcs_reference(a, b):
    """Full-table LCS, written independently of the kernel."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            table[i + 1][j + 1] = table[i][j] + 1 if x == y else max(table[i][j + 1], table[i + 1][j])
    return table[len(a)][len(b)]


def dedup_reference(rows, threshold):
    """Keep-first from the definition, on dict count vectors.

    A row survives iff its cosine against every earlier survivor is
    <= threshold; the cosine of an empty row is 0 (as corpus.bow_cosine).
    """
    survivors, keep = [], []
    for row in rows:
        dup = False
        for other in survivors:
            if not row or not other:
                continue
            dot = sum(c * other.get(t, 0) for t, c in row.items())
            norm = math.sqrt(sum(c * c for c in row.values()) * sum(c * c for c in other.values()))
            if dot / norm > threshold:
                dup = True
                break
        keep.append(not dup)
        if not dup:
            survivors.append(row)
    return keep


def sparse_product_scan(indptr, tok, cnt, sumsq, threshold, block=128):
    """The keep-first scan that forms every pair of rows sharing a word: the at-scale oracle.

    One sparse product per block of rows against all rows up to the
    block's end; a pair j < i above the threshold removes row i if row j
    survives.
    """
    import scipy.sparse as sp

    n = len(indptr) - 1
    x = sp.csr_matrix((np.asarray(cnt, dtype=np.float64), tok, indptr),
                      shape=(n, int(max(tok, default=0)) + 1))
    sumsq = np.asarray(sumsq, dtype=np.float64)
    keep = np.ones(n, dtype=bool)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        dots = x[lo:hi] @ x[:hi].T
        norms = sumsq[dots.indices] * np.repeat(sumsq[lo:hi], np.diff(dots.indptr))
        np.sqrt(norms, out=norms)
        close = np.flatnonzero(dots.data / norms > threshold)
        rows = np.searchsorted(dots.indptr, close, side="right") - 1 + lo
        for i, j in zip(rows.tolist(), dots.indices[close].tolist()):
            if j < i and keep[j]:
                keep[i] = False
    return keep.tolist()


def pack(rows):
    """Dict rows CSR-packed as corpus.deduplicate packs them: (indptr, tok, cnt, sumsq)."""
    indptr, tok, cnt, sumsq = [0], [], [], []
    for row in rows:
        for t in sorted(row):
            tok.append(t)
            cnt.append(row[t])
        indptr.append(len(tok))
        sumsq.append(sum(c * c for c in row.values()))
    return indptr, tok, cnt, sumsq


def scan(rows, threshold):
    """kernels.dedup_scan over dict rows."""
    return kernels.dedup_scan(*pack(rows), threshold).tolist()


def cosine(a, b):
    """The kernel's expression for the cosine of dict rows a before b."""
    dot = sum(c * b.get(t, 0) for t, c in a.items())
    return dot / math.sqrt(sum(c * c for c in a.values()) * sum(c * c for c in b.values()))


def zipf_rows(rng, n_rows, vocab, share_near=0.1):
    """Count rows of Zipf-drawn words; a share of them repeat an earlier row with one word added."""
    weights = 1.0 / np.arange(1, vocab + 1) ** 0.9
    weights /= weights.sum()
    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < share_near:
            row = dict(rows[int(rng.integers(len(rows)))])
            extra = int(rng.integers(vocab))
            row[extra] = row.get(extra, 0) + 1
        else:
            row = {}
            for t in rng.choice(vocab, size=int(rng.integers(10, 31)), p=weights).tolist():
                row[t] = row.get(t, 0) + 1
        rows.append(row)
    return rows


def random_rows(rng, n_rows, vocab):
    rows = []
    for _ in range(n_rows):
        k = int(rng.integers(0, min(6, vocab) + 1))
        ids = rng.choice(vocab, size=k, replace=False)
        rows.append({int(t): int(c) for t, c in zip(ids, rng.integers(1, 4, size=k))})
    return rows


class TestLcs:
    def test_known_values(self):
        assert kernels.lcs_length([1, 2, 3], [1, 2, 3]) == 3
        assert kernels.lcs_length([1, 3, 2], [1, 2, 3]) == 2
        assert kernels.lcs_length([], [1, 2]) == 0
        assert kernels.lcs_length([5], [6]) == 0
        assert kernels.lcs_length(np.array([4, 1, 4]), np.array([1, 4])) == 2
        assert kernels.lcs_length("the cat sat".split(), "a cat sat down".split()) == 2

    def test_against_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.integers(0, 8, size=rng.integers(0, 20)).tolist()
            b = rng.integers(0, 8, size=rng.integers(0, 20)).tolist()
            assert kernels.lcs_length(a, b) == lcs_reference(a, b)

    def test_longer_than_a_machine_word(self):
        rng = np.random.default_rng(1)
        for m, n in ((65, 40), (64, 200), (130, 129), (300, 7)):
            a = rng.integers(0, 5, size=m).tolist()
            b = rng.integers(0, 5, size=n).tolist()
            assert kernels.lcs_length(a, b) == lcs_reference(a, b)
            assert kernels.lcs_length(b, a) == lcs_reference(a, b)

    @given(st.lists(st.sampled_from("abcde"), max_size=90),
           st.lists(st.sampled_from("abcdef"), max_size=90))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_property_against_reference(self, a, b):
        assert kernels.lcs_length(a, b) == lcs_reference(a, b)


class TestDedupScan:
    def test_empty_rows_always_kept(self):
        assert scan([{}, {}], 0.5) == [True, True]
        assert scan([{0: 1}, {}, {0: 2}, {}], 0.5) == [True, True, False, True]

    def test_strict_inequality_at_threshold(self):
        # identical rows: cosine is exactly 1.0; threshold 1.0 keeps both
        rows = [{0: 2, 1: 3}, {0: 2, 1: 3}]
        assert scan(rows, 1.0) == [True, True]
        assert scan(rows, 0.999) == [True, False]

    def test_only_survivors_remove(self, monkeypatch):
        # b is within 0.7 of a and c of b, but c is not of a; b goes, so c stays.
        # Filler rows put a, b and c in three different blocks of two.
        monkeypatch.setattr(kernels, "DEDUP_BLOCK_ROWS", 2)
        a, b, c = {0: 1, 1: 1, 2: 1, 3: 1}, {1: 1, 2: 1, 3: 1, 4: 1}, {2: 1, 3: 1, 4: 1, 5: 1}
        rows = [a, {10: 1}, {11: 1}, b, {12: 1}, c]
        want = [True, True, True, False, True, True]
        assert dedup_reference(rows, 0.7) == want
        assert scan(rows, 0.7) == want

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_against_reference_across_blocks(self, monkeypatch, block):
        monkeypatch.setattr(kernels, "DEDUP_BLOCK_ROWS", block)
        rng = np.random.default_rng(block)
        for _ in range(20):
            rows = random_rows(rng, int(rng.integers(1, 40)), int(rng.integers(6, 12)))
            for threshold in (0.5, 0.9, 1.0):
                assert scan(rows, threshold) == dedup_reference(rows, threshold)

    def test_several_default_blocks(self):
        rows = random_rows(np.random.default_rng(3), 3 * kernels.DEDUP_BLOCK_ROWS + 5, 14)
        assert scan(rows, 0.8) == dedup_reference(rows, 0.8)

    @given(st.lists(st.dictionaries(st.integers(0, 7), st.integers(1, 3), max_size=5),
                    min_size=1, max_size=30),
           st.sampled_from([0.3, 0.5, 0.75, 0.9, 1.0]), st.integers(1, 8))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_property_against_reference(self, rows, threshold, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "DEDUP_BLOCK_ROWS", block)
            assert scan(rows, threshold) == dedup_reference(rows, threshold)

    def test_zipf_corpus_against_sparse_product_oracle(self):
        rows = zipf_rows(np.random.default_rng(17), 3000, 1500)
        packed = pack(rows)
        for threshold in (0.5, 0.8, 0.93):
            keep = kernels.dedup_scan(*packed, threshold).tolist()
            assert keep == sparse_product_scan(*packed, threshold)
            assert 0 < keep.count(False) < len(rows)

    @given(st.lists(st.tuples(st.dictionaries(st.integers(0, 3), st.integers(1, 6), min_size=1, max_size=4),
                              st.integers(1, 3)), min_size=1, max_size=8),
           st.lists(st.integers(0, 20), max_size=3),
           st.sampled_from([0.05, 0.5, 0.9, 0.97, 1.0]), st.booleans(), st.integers(1, 8))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_property_pairs_sharing_only_frequent_words(self, pairs, empty_at, threshold, at_cosine, block):
        # each pair shares only words 0-3, which every pair holds, so they come last in the
        # rarest-first order; each row's own word is the rarest. Counts run above 1.
        rows = []
        for k, (common, c) in enumerate(pairs):
            rows += [{**common, 100 + 2 * k: c}, {**common, 101 + 2 * k: c}]
        for at in empty_at:
            rows.insert(min(at, len(rows)), {})
        if at_cosine:
            threshold = cosine(*[r for r in rows if r][:2])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "DEDUP_BLOCK_ROWS", block)
            assert scan(rows, threshold) == dedup_reference(rows, threshold)

    @given(st.dictionaries(st.integers(0, 5), st.integers(1, 5), min_size=1, max_size=5),
           st.dictionaries(st.integers(0, 5), st.integers(1, 5), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_property_cosine_exactly_at_threshold(self, a, b):
        c = cosine(a, b)
        if c > 0:
            # filler rows make the shared words frequent, so the pair's prefixes are short
            filler = [dict.fromkeys(a, 7), dict.fromkeys(b, 7)] if c < 1 else []
            rows = [*filler, a, b]
            assert scan(rows, c) == dedup_reference(rows, c)
            assert scan([a, b], c) == [True, True]
            assert scan([a, b], float(np.nextafter(c, 0.0))) == [True, False]

    @given(st.lists(st.dictionaries(st.integers(0, 9), st.integers(1, 4), max_size=6), min_size=2, max_size=25),
           st.sampled_from([0.05, 0.3, 0.7, 0.93, 1.0]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_property_rows_without_a_shared_prefix_word_stay_below_threshold(self, rows, threshold):
        indptr, tok, cnt, sumsq = pack(rows)
        p_row, p_tok = kernels.prefix_entries(np.asarray(indptr, dtype=np.int64), np.asarray(tok, dtype=np.int64),
                                              np.asarray(cnt, dtype=np.float64), np.asarray(sumsq, dtype=np.float64),
                                              threshold)
        prefix = [set() for _ in rows]
        for r, t in zip(p_row.tolist(), p_tok.tolist()):
            prefix[r].add(t)
        for i, a in enumerate(rows):
            if a:
                assert prefix[i] and prefix[i] <= set(a)
            for b, p in zip(rows[:i], prefix):
                if a and b and not prefix[i] & p:
                    assert cosine(b, a) < threshold
