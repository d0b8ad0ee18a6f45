"""Compositions, ordered index tuples, multiset permutations, and the
Kronecker multinomial expansion built from them.

A word drawn from a multiset over the alphabet {1..u} uses 1-based symbols
(symbol ``i`` occurs ``lam[i-1]`` times); matrix row/column indices elsewhere
in the package stay 0-based.
"""

from __future__ import annotations

from itertools import combinations
from math import prod
from typing import Iterator

import numpy as np

from .errors import BadArity
from .kron_algebra import _check_cap, _kron2

__all__ = [
    "compositions",
    "multiset_perms",
    "ordered_tuples",
    "pair_blocks",
    "apply_perm_kron",
    "kron_multinomial_expand",
]


def compositions(k: int, u: int, allow_zero: bool = False) -> list[tuple[int, ...]]:
    """All u-part compositions of k in lexicographic order.

    With ``allow_zero`` parts range over the nonnegative integers
    (count C(k+u-1, u-1)); otherwise every part is >= 1 (count C(k-1, u-1)).
    """
    if k < 0 or u < 1:
        raise BadArity(f"need k >= 0 and u >= 1, got k={k}, u={u}")
    lo = 0 if allow_zero else 1
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, parts_left: int) -> None:
        if parts_left == 1:
            if remaining >= lo:
                out.append(prefix + (remaining,))
            return
        for v in range(lo, remaining - lo * (parts_left - 1) + 1):
            rec(prefix + (v,), remaining - v, parts_left - 1)

    rec((), k, u)
    return out


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


def pair_blocks(word) -> tuple[tuple[int, int], ...]:
    """Positions (0-based) of the two occurrences of each symbol of a pairing word.

    The word must realize the multiplicity vector (2, ..., 2); block ``i``
    of the result holds the two positions of symbol ``i+1``.  The blocks
    partition {0..k-1}.
    """
    word = tuple(int(s) for s in word)
    if not word:
        raise BadArity("empty word has no blocks")
    u = max(word)
    positions: list[list[int]] = [[] for _ in range(u)]
    for pos, sym in enumerate(word):
        if sym < 1 or sym > u:
            raise BadArity(f"symbol {sym} outside alphabet 1..{u}")
        positions[sym - 1].append(pos)
    if any(len(ps) != 2 for ps in positions):
        raise BadArity("every symbol must occur exactly twice in a pairing word")
    return tuple((ps[0], ps[1]) for ps in positions)


def apply_perm_kron(word, ms) -> np.ndarray:
    """Kronecker product of the matrices ``ms`` in word order.

    Symbol ``i`` of the word selects ``ms[i-1]``; the result is the k-fold
    product m_{word[0]} x m_{word[1]} x ... for a word of length k.
    """
    word = tuple(int(s) for s in word)
    if not word:
        raise BadArity("word must have length >= 1")
    if any(s < 1 or s > len(ms) for s in word):
        raise BadArity(f"word symbols must index the {len(ms)} operands")
    mats = [np.atleast_2d(np.asarray(ms[s - 1], dtype=np.float64)) for s in word]
    _check_cap(prod(m.shape[0] for m in mats), prod(m.shape[1] for m in mats))
    out = mats[0]
    for m in mats[1:]:
        out = _kron2(out, m)
    return out


def kron_multinomial_expand(xs, k: int) -> np.ndarray:
    """Expand (x_1 + ... + x_n)^{x,k} as the quadruple sum over u-subsets,
    compositions, and multiset words.

    The result equals ``kron_power(sum(xs), k)``; the expansion enumerates
    one summand per way of placing the k Kronecker slots among the chosen
    factors, n^k terms in total.
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
            chosen = [mats[i - 1] for i in mu]
            for lam in lams:
                for word in multiset_perms(lam):
                    acc += apply_perm_kron(word, chosen)
    return acc
