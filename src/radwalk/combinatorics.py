"""Compositions, ordered index tuples, multiset permutations, and the
Kronecker multinomial expansion.

A word drawn from a multiset over the alphabet {1..u} uses 1-based symbols
(symbol ``i`` occurs ``lam[i-1]`` times); matrix row/column indices elsewhere
in the package stay 0-based.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from .errors import BadArity
from .kron_algebra import _check_cap, _kron2

__all__ = [
    "compositions",
    "multiset_perms",
    "ordered_tuples",
    "kron_multinomial_expand",
]


def compositions(k: int, u: int) -> list[tuple[int, ...]]:
    """All u-part compositions of k into parts >= 1, in lexicographic order
    (count C(k-1, u-1)): the gaps between u - 1 increasing cuts of 0..k."""
    if k < 0 or u < 1:
        raise BadArity(f"need k >= 0 and u >= 1, got k={k}, u={u}")
    if k < u:
        return []
    return [tuple(b - a for a, b in zip((0, *cuts), (*cuts, k))) for cuts in combinations(range(1, k), u - 1)]


def multiset_perms(lam) -> Iterator[tuple[int, ...]]:
    """Lazily yield every word over {1..u} with symbol i appearing lam[i-1] times.

    Words come out in lexicographic order, each exactly once.  Zero parts are
    allowed; the corresponding symbol simply never occurs.
    """
    counts = [int(x) for x in lam]
    if any(c < 0 for c in counts):
        raise BadArity("multiplicities must be nonnegative")
    u = len(counts)
    k = sum(counts)

    def rec(prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for sym in range(1, u + 1):
            if counts[sym - 1] > 0:
                counts[sym - 1] -= 1
                prefix.append(sym)
                yield from rec(prefix)
                prefix.pop()
                counts[sym - 1] += 1

    return rec([])


def ordered_tuples(n: int, u: int) -> Iterator[tuple[int, ...]]:
    """Strictly increasing u-tuples from {1..n}, lexicographic."""
    if u > n:
        raise BadArity(f"cannot choose {u} ordered indices from {{1..{n}}}")
    return iter(combinations(range(1, n + 1), u))


def _word_sum(mats, counts: tuple[int, ...], memo: dict) -> np.ndarray:
    """Sum of m_{w_0} x m_{w_1} x ... over every word with symbol counts
    ``counts``, split on the first symbol: sum_s m_s x (the sum for counts - e_s).
    ``memo`` holds the sums of the shorter count vectors."""
    total = None
    for s, c in enumerate(counts):
        if c:
            rest = (*counts[:s], c - 1, *counts[s + 1:])
            if any(rest):
                if rest not in memo:
                    memo[rest] = _word_sum(mats, rest, memo)
                term = _kron2(mats[s], memo[rest])
            else:
                term = mats[s]
            total = term if total is None else total + term
    return total


def kron_multinomial_expand(xs, k: int) -> np.ndarray:
    """Expand (x_1 + ... + x_n)^{x,k} as the sum over u-subsets mu of the
    factors and u-part compositions lam of k of the multiset-word sums.

    The result equals ``kron_power(sum(xs), k)``, and the literal sum of one
    Kronecker product per word (n^k of them) to rounding.  Each word sum is
    formed by its first symbol from the sums of shorter count vectors,
    memoized across every composition of one mu, so each is formed once.
    """
    mats = [np.atleast_2d(np.asarray(x, dtype=np.float64)) for x in xs]
    n = len(mats)
    if n < 1 or k < 1:
        raise BadArity(f"need n >= 1 matrices and k >= 1, got n={n}, k={k}")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise BadArity("all operands must share one shape")
    rows, cols = shape[0] ** k, shape[1] ** k
    _check_cap(rows, cols)
    acc = np.zeros((rows, cols))
    for u in range(1, min(k, n) + 1):
        lams = compositions(k, u)
        for mu in ordered_tuples(n, u):
            chosen, memo = [mats[i - 1] for i in mu], {}
            for lam in lams:
                acc += _word_sum(chosen, lam, memo)
    return acc
