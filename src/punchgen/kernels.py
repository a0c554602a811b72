"""Loop-bound numeric kernels: LCS length and keep-first de-duplication.

Two inner loops in this package don't reduce to BLAS calls: the LCS
behind ROUGE-L and the pairwise keep-first scan behind corpus
de-duplication. Each has one exact implementation here.

The transformer/GAT math itself stays plain numpy: it is matmul-bound
and already runs on BLAS.
"""

from __future__ import annotations

import numpy as np

# rows per sparse similarity block in dedup_scan; bounds its working memory
DEDUP_BLOCK_ROWS = 128


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


def dedup_scan(indptr, tok, cnt, sumsq, threshold: float) -> np.ndarray:
    """Keep-first near-duplicate scan over CSR-packed count vectors.

    Row i survives iff its cosine against every earlier survivor is
    <= threshold (>= 0); cosine = dot / sqrt(sumsq_i * sumsq_j). Returns
    a boolean keep mask.

    Dots come from one sparse product per block of rows against all
    rows up to the block's end; only pairs j < i above the threshold are
    kept as candidates. The counts are small integers, so every dot is
    exact in float64 whatever the summation order, and ties at the
    threshold resolve exactly as in a pairwise scan.
    """
    # scipy.sparse is imported here, not at module level: only corpus
    # building needs it, and it costs every other command ~0.1 s to load
    import scipy.sparse as sp

    indptr = np.asarray(indptr, dtype=np.int64)
    tok = np.asarray(tok, dtype=np.int64)
    cnt = np.asarray(cnt, dtype=np.float64)
    sumsq = np.asarray(sumsq, dtype=np.float64)
    n = len(indptr) - 1
    vocab = int(tok.max()) + 1 if len(tok) else 1
    x = sp.csr_matrix((cnt, tok, indptr), shape=(n, vocab))
    keep = np.ones(n, dtype=bool)
    for lo in range(0, n, DEDUP_BLOCK_ROWS):
        hi = min(lo + DEDUP_BLOCK_ROWS, n)
        dots = x[lo:hi] @ x[:hi].T
        norms = sumsq[dots.indices] * np.repeat(sumsq[lo:hi], np.diff(dots.indptr))
        np.sqrt(norms, out=norms)
        close = np.flatnonzero(dots.data / norms > threshold)
        rows = np.searchsorted(dots.indptr, close, side="right") - 1 + lo
        # pairs come in row order, so keep[j] for an earlier row j is final here
        for i, j in zip(rows.tolist(), dots.indices[close].tolist()):
            if j < i and keep[j]:
                keep[i] = False
    return keep
