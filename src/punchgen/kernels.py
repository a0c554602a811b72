"""Loop-bound numeric kernels: LCS length and keep-first de-duplication.

Two inner loops in this package don't reduce to BLAS calls: the LCS
behind ROUGE-L and the pairwise keep-first scan behind corpus
de-duplication. Each has one exact implementation here. The scan is
prefix-filtered (Bayardo et al. 2007, "Scaling Up All Pairs Similarity
Search"; Xiao et al. 2008, PPJoin): a pair of rows that shares no word of
their short rarest-first prefixes provably has a cosine below the
threshold, so the scan's cost follows the pairs that share a prefix word,
not the far more numerous pairs that share any word.

The transformer/GAT math itself stays plain numpy: it is matmul-bound
and already runs on BLAS.
"""

from __future__ import annotations

import numpy as np

# rows per block of dedup_scan's keep-first scan; bounds its working memory
DEDUP_BLOCK_ROWS = 128
# relative slack on the prefix bound, far above float64 rounding; see prefix_entries
PREFIX_SLACK = 1e-9


def lcs_length(a, b) -> int:
    """Length of the longest common subsequence of two sequences of hashables.

    Bit-parallel over Python ints (Allison & Dix 1986; Hyyrö 2004): bit k
    of ``v`` stands for symbol k of ``a``, one word-parallel update per
    symbol of ``b``, and the LCS is the number of cleared bits.
    """
    m = len(a)
    if m == 0 or len(b) == 0:
        return 0
    masks: dict = {}
    for k, x in enumerate(a):
        masks[x] = masks.get(x, 0) | (1 << k)
    full = (1 << m) - 1
    v = full
    for y in b:
        match = masks.get(y)
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
    return m - v.bit_count()


def prefix_entries(indptr, tok, cnt, sumsq, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """(row, word) pairs of each row's prefix, row-major, for prefix filtering at `threshold`.

    Each row's words are ordered rarest first by document frequency, ties
    by word id, one order for every row. A row's prefix is the shortest
    leading run whose remaining words carry a squared count mass of at most
    threshold^2 * (1 - PREFIX_SLACK) * sumsq. If two rows share no prefix
    word, every word they share lies in the remaining part of the row
    whose prefix ends first in that order, so by Cauchy-Schwarz their
    cosine is at most threshold * sqrt(1 - PREFIX_SLACK): strictly below
    the threshold, also after the float64 rounding of a few ulps in
    dot / sqrt(sumsq_j * sumsq_i). An empty row has an empty prefix.
    """
    lengths = np.diff(indptr)
    row = np.repeat(np.arange(len(lengths)), lengths)
    df = np.bincount(tok)
    rank = np.empty_like(df)
    rank[np.argsort(df, kind="stable")] = np.arange(len(df))
    order = np.argsort(row * len(df) + rank[tok])
    sq = cnt[order] ** 2
    # the mass of a row's words from each entry on, as exact integer sums in float64
    csum = np.concatenate(([0.0], np.cumsum(sq)))
    tail = sumsq[row] - (csum[:-1] - np.repeat(csum[indptr[:-1]], lengths))
    inside = tail > (threshold * threshold * (1.0 - PREFIX_SLACK)) * sumsq[row]
    return row[inside], tok[order][inside]


def dedup_scan(indptr, tok, cnt, sumsq, threshold: float) -> np.ndarray:
    """Keep-first near-duplicate scan over CSR-packed count vectors.

    Row i survives iff its cosine against every earlier survivor is
    <= threshold (> 0); cosine = dot / sqrt(sumsq_i * sumsq_j), and
    sumsq_i is the sum of row i's squared counts. Returns a boolean keep
    mask.

    Only pairs that share a prefix word (see `prefix_entries`) can pass the
    threshold, so only those are verified: its cost follows these
    candidate pairs, not the far more numerous pairs that share any word.
    Rows go in blocks of DEDUP_BLOCK_ROWS; a block's candidates j < i come
    from the per-word lists of prefix rows, less the rows j already
    removed. A candidate's dot sums the elementwise product of its two
    sparse rows. The counts are small integers, so every dot is exact in
    float64 whatever the summation order, and ties at the threshold
    resolve exactly as in a pairwise scan.
    """
    # scipy.sparse is imported here, not at module level: only corpus
    # building needs it, and it costs every other command ~0.1 s to load
    import scipy.sparse as sp

    indptr = np.asarray(indptr, dtype=np.int64)
    tok = np.asarray(tok, dtype=np.int64)
    cnt = np.asarray(cnt, dtype=np.float64)
    sumsq = np.asarray(sumsq, dtype=np.float64)
    n = len(indptr) - 1
    keep = np.ones(n, dtype=bool)
    if len(tok) == 0:
        return keep
    x = sp.csr_matrix((cnt, tok, indptr), shape=(n, int(tok.max()) + 1))

    # per-word lists of prefix rows, sorted by (word, row): the rows before
    # an entry in its word's list are the earlier rows that share that word
    p_row, p_tok = prefix_entries(indptr, tok, cnt, sumsq, threshold)
    by_word = np.argsort(p_tok * n + p_row)
    listed, word = p_row[by_word], p_tok[by_word]
    at = np.arange(len(word))
    head = np.maximum.accumulate(np.where(np.concatenate(([True], word[1:] != word[:-1])), at, 0))
    list_start, n_before = np.empty_like(head), np.empty_like(head)
    list_start[by_word], n_before[by_word] = head, at - head
    row_start = np.searchsorted(p_row, np.arange(0, n + DEDUP_BLOCK_ROWS, DEDUP_BLOCK_ROWS))

    for ea, eb in zip(row_start[:-1], row_start[1:]):
        counts = n_before[ea:eb]
        total = int(counts.sum())
        if total == 0:
            continue
        first = np.repeat(list_start[ea:eb] - (np.cumsum(counts) - counts), counts)
        j = listed[first + np.arange(total)]
        i = np.repeat(p_row[ea:eb], counts)
        live = keep[j]
        # a pair sharing several prefix words is listed once per word
        i, j = np.divmod(np.unique(i[live] * n + j[live]), n)
        dots = np.asarray(x[i].multiply(x[j]).sum(axis=1)).ravel()
        close = np.flatnonzero(dots / np.sqrt(sumsq[j] * sumsq[i]) > threshold)
        # pairs come in row order, so keep[j] for an earlier row j is final here
        for ii, jj in zip(i[close].tolist(), j[close].tolist()):
            if keep[jj]:
                keep[ii] = False
    return keep
