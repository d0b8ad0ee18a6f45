"""Matrix-variate normal distributions on q x q matrices: exact sampling,
exact even-order moments via Isserlis' theorem (one term per perfect
matching of the positions), dense moment tensors as one outer product of the
covariance per matching, and moments of sums of independent variables via
the Hadamard-split expansion, one Kronecker block of the two moment tensors
per split.

Conventions
-----------
A spec with covariance ``cov`` describes the law of a random matrix ``Z``
whose row-stacked vector ``vec(Z)`` is multivariate normal with covariance
``cov``; the entry ``cov[i*q + j, l*q + k]`` is Cov(Z_ij, Z_lk).  Moment
indices are tuples of 0-based (row, col) pairs.  A moment tensor of order k
is a plain q^k x q^k array: its row index packs the k row digits in base q,
its column index the k column digits.  Tensors above the Kronecker layer's
entry cap are refused with :class:`SizeOverflow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .combinatorics import multiset_perms
from .errors import BadArity
from .kron_algebra import _check_cap, _kron2, unvec, vec
from .matrix_core import psd_sqrt, symmetrize

__all__ = [
    "MatrixNormalSpec",
    "sample_matrix_normal",
    "wick_moment",
    "moment_tensor",
    "sum_moment",
]


@dataclass(frozen=True)
class MatrixNormalSpec:
    """Mean matrix and q^2 x q^2 covariance defining a normal law on q x q matrices."""

    q: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        q = int(self.q)
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        if q < 1:
            raise BadArity(f"q must be >= 1, got {q}")
        if mean.shape != (q, q):
            raise BadArity(f"mean must be {q}x{q}, got {mean.shape}")
        if cov.shape != (q * q, q * q):
            raise BadArity(f"cov must be {q * q}x{q * q}, got {cov.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("spec entries must be finite")
        cov = symmetrize(cov)
        mean = mean.copy()
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def centered(self) -> bool:
        return bool(np.all(self.mean == 0.0))


def sample_matrix_normal(spec: MatrixNormalSpec, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw from the law: mean + unvec(L g) with L = :func:`psd_sqrt` of cov.

    Returns a (q, q) matrix, or a (size, q, q) batch when ``size`` is given.
    """
    q = spec.q
    m = 1 if size is None else int(size)
    g = rng.standard_normal((m, q * q))
    z = g @ psd_sqrt(spec.cov) + vec(spec.mean)  # the root is symmetric: L' = L
    return unvec(z[0], q, q) if size is None else z.reshape(m, q, q)


def _flat(pair: tuple[int, int], q: int) -> int:
    i, j = pair
    if not (0 <= i < q and 0 <= j < q):
        raise BadArity(f"index pair {pair} outside 0..{q - 1}")
    return i * q + j


@cache
def _pairings(u: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The (2u-1)!! perfect matchings of the positions 0..2u-1, as block tuples.

    Blocks are numbered in the order they start, so block i holds the two
    positions of symbol i+1 of the matching's canonical pairing word (the
    one whose symbols first occur in the order 1, 2, ..., u).  Each position
    either closes an open block, trying them in block order, or opens the
    next block; so every matching is built once, in lexicographic order of
    its canonical word.
    """

    def extend(pos: int, blocks: tuple, open_blocks: tuple):
        if pos == 2 * u:
            yield blocks
            return
        for b in open_blocks:
            closed = blocks[:b] + ((blocks[b][0], pos),) + blocks[b + 1 :]
            yield from extend(pos + 1, closed, tuple(o for o in open_blocks if o != b))
        if len(blocks) < u:
            yield from extend(pos + 1, blocks + ((pos,),), open_blocks + (len(blocks),))

    return tuple(extend(0, (), ()))


def _require_centered(spec: MatrixNormalSpec) -> None:
    if not spec.centered:
        raise ValueError("moment formulas require a centered spec (mean 0)")


def wick_moment(spec: MatrixNormalSpec, index_pairs) -> float:
    """E[Z_{i1 j1} * ... * Z_{ik jk}] for a centered spec.

    Isserlis' theorem: zero for odd k; for k = 2u the sum over the (2u-1)!!
    perfect matchings of the k positions of the product of the covariance
    entries each matching's blocks pick out.  Every index pair is checked
    against q, whatever the parity of k.
    """
    _require_centered(spec)
    flat = [_flat((int(i), int(j)), spec.q) for i, j in index_pairs]
    k = len(flat)
    if k == 0:
        return 1.0
    if k % 2 == 1:
        return 0.0
    cov = spec.cov[np.ix_(flat, flat)].tolist()
    total = 0.0
    for blocks in _pairings(k // 2):
        term = 1.0
        for a, b in blocks:
            term *= cov[a][b]
        total += term
    return total


def moment_tensor(spec: MatrixNormalSpec, k: int) -> np.ndarray:
    """Order-k moment tensor of a centered spec, as a q^k x q^k array.

    The tensor is the Wick sum itself: for each perfect matching, the outer
    product of one copy of the covariance per block, its axes moved to the
    row and column digits of the block's two slots.  Products and sums run
    in :func:`wick_moment`'s order, so every entry equals ``wick_moment`` at
    its index bit for bit.  Tensors above the entry cap raise
    :class:`SizeOverflow`.
    """
    _require_centered(spec)
    if k < 1:
        raise BadArity(f"k must be >= 1, got {k}")
    q = spec.q
    side = q**k
    _check_cap(side, side)
    acc = np.zeros((q,) * (2 * k))
    if k % 2 == 0:
        cov4 = spec.cov.reshape(q, q, q, q)  # cov4[i, j, l, m] = Cov(Z_ij, Z_lm)
        for blocks in _pairings(k // 2):
            term = np.ones(())
            for _ in blocks:
                term = np.multiply.outer(term, cov4)
            # block (a, b) holds (row a, col a, row b, col b)
            slots = [axis for a, b in blocks for axis in (a, k + a, b, k + b)]
            acc += term.transpose(np.argsort(slots))
    return acc.reshape(side, side)


def _dense_moment(spec: MatrixNormalSpec, k: int) -> np.ndarray:
    """Order-k moment tensor of a centered spec; the 1 x 1 unit at k = 0."""
    return np.ones((1, 1)) if k == 0 else moment_tensor(spec, k)


def sum_moment(spec1: MatrixNormalSpec, spec2: MatrixNormalSpec, k: int) -> np.ndarray:
    """Order-k moment tensor of Z1 + Z2 for independent centered variables,
    as a q^k x q^k array.

    Computed as the Hadamard-split double sum over split sizes l and words
    mixing the two variables: each word contributes (moments of Z1 at its
    slots) entrywise-times (moments of Z2 at the rest).  For one split that
    product is the Kronecker product M1_l x M2_{k-l}, viewed as a tensor with
    one row and one column axis per slot and moved to the word's slots by an
    axis permutation.  Odd splits vanish, so only even l are summed.  Equals
    the moment tensor of the summed covariances.  Tensors above the entry
    cap raise :class:`SizeOverflow`.
    """
    _require_centered(spec1)
    _require_centered(spec2)
    if spec1.q != spec2.q:
        raise BadArity("specs must share q")
    if k < 1:
        raise BadArity(f"k must be >= 1, got {k}")
    q = spec1.q
    side = q**k
    _check_cap(side, side)
    acc = np.zeros((q,) * (2 * k))
    if k % 2 == 0:
        for split in range(0, k + 1, 2):
            block = _kron2(_dense_moment(spec1, split), _dense_moment(spec2, k - split)).reshape(acc.shape)
            for word in multiset_perms((split, k - split)):
                axes = np.argsort(np.argsort(word, kind="stable"))  # inverse of (slots of Z1, slots of Z2)
                acc += block.transpose(np.concatenate([axes, axes + k]))
    return acc.reshape(side, side)
