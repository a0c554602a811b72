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


def scan(rows, threshold):
    """kernels.dedup_scan over dict rows, CSR-packed as corpus.deduplicate does."""
    indptr, tok, cnt, sumsq = [0], [], [], []
    for row in rows:
        for t in sorted(row):
            tok.append(t)
            cnt.append(row[t])
        indptr.append(len(tok))
        sumsq.append(sum(c * c for c in row.values()))
    return kernels.dedup_scan(indptr, tok, cnt, sumsq, threshold).tolist()


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
