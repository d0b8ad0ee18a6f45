"""Kronecker and Hadamard products, Kronecker powers, vec, and the
factor-reordering permutation matrices for products of several factors.

The row index of a k-fold Kronecker product is a mixed-radix number with one
digit per factor, and so is its column index.  Reordering the factors
transposes those digit vectors, so the permutation pair (P, Q) in

    A_{sigma(0)} x ... x A_{sigma(k-1)} = P (A_0 x ... x A_{k-1}) Q

is one axis transpose of an index array per side (the commutation matrix of
Magnus & Neudecker, Ann. Stat. 1979, for k factors): pure integer index
arithmetic, no rounding.
"""

from __future__ import annotations

import operator
from math import prod

import numpy as np

from .errors import BadArity, ShapeMismatch, SizeOverflow

__all__ = [
    "ENTRY_CAP",
    "kron",
    "hadamard",
    "kron_power",
    "vec",
    "unvec",
    "PermMat",
    "reorder_perm",
]

# Dense results above this many entries are refused, Kronecker products and
# moment tensors alike; every experiment in this package needs far less.
ENTRY_CAP = 1_000_000


def _check_cap(rows: int, cols: int) -> None:
    # stated by bit length: a huge size has too many digits to print in decimal
    if (size := rows * cols) > ENTRY_CAP:
        raise SizeOverflow(f"result would have at least 2^{size.bit_length() - 1} entries, "
                           f"above ENTRY_CAP = {ENTRY_CAP}")


def _kron2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2-D arrays, unchecked.

    Forms the same products a_ij * b_kl as ``np.kron``, so the result is
    bit-identical, without its general-rank set-up.
    """
    rows, cols = a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(rows, cols)


def kron(*factors) -> np.ndarray:
    """Kronecker product A_0 x (A_1 x (... x A_{k-1})) of k >= 1 factors, folded right to left."""
    if not factors:
        raise BadArity("need at least one factor")
    mats = [np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in factors]
    _check_cap(prod(m.shape[0] for m in mats), prod(m.shape[1] for m in mats))
    out = mats[-1]
    for m in mats[-2::-1]:
        out = _kron2(m, out)
    return out


def hadamard(a, b) -> np.ndarray:
    """Entrywise product of two matrices of equal shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes {a.shape} and {b.shape} differ")
    return a * b


def kron_power(a, k: int) -> np.ndarray:
    """k-fold Kronecker power a x a x ... x a (k >= 1)."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    if k < 1:
        raise BadArity(f"k must be >= 1, got {k}")
    _check_cap(a.shape[0] ** k, a.shape[1] ** k)  # before kron's k-long factor list
    return kron(*[a] * k)


def vec(x) -> np.ndarray:
    """Row-stacking vec: entries of row i are contiguous.

    For C-ordered storage this is a memory reinterpretation of the matrix,
    returned as a 1-D array of length rows*cols.
    """
    return np.asarray(x, dtype=np.float64).reshape(-1)


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for the given target shape."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.size != rows * cols:
        raise ShapeMismatch(f"vector of length {v.size} cannot fill {rows}x{cols}")
    return v.reshape(rows, cols)


class PermMat:
    """Permutation matrix stored as an index map, applied in O(size).

    ``image[r]`` is the column holding the 1 in row ``r`` of the dense
    matrix, so ``(P @ M)[r] = M[image[r]]``.
    """

    __slots__ = ("size", "image")

    def __init__(self, image):
        raw = np.asarray(image)
        image = raw.astype(np.int64, copy=False)
        if image.ndim != 1:
            raise ShapeMismatch("image must be a 1-D index array")
        if not np.array_equal(image, raw):
            raise ValueError("image entries must be integers")
        n = image.size
        seen = np.zeros(n, dtype=bool)
        if n and (image.min() < 0 or image.max() >= n):
            raise ValueError("image entries out of range")
        seen[image] = True
        if not seen.all():
            raise ValueError("image is not a bijection")
        self.size = n
        self.image = image
        self.image.flags.writeable = False

    def transpose(self) -> "PermMat":
        """P', which is P^{-1} for a permutation matrix."""
        inv = np.empty(self.size, dtype=np.int64)
        inv[self.image] = np.arange(self.size, dtype=np.int64)
        return PermMat(inv)

    def apply_left(self, m) -> np.ndarray:
        """P @ M (row permutation)."""
        m = np.asarray(m)
        if m.shape[0] != self.size:
            raise ShapeMismatch(f"matrix has {m.shape[0]} rows, permutation size is {self.size}")
        return m[self.image]

    def apply_right(self, m) -> np.ndarray:
        """M @ P (column permutation)."""
        m = np.asarray(m)
        if m.shape[1] != self.size:
            raise ShapeMismatch(f"matrix has {m.shape[1]} cols, permutation size is {self.size}")
        out = np.empty_like(m)
        out[:, self.image] = m
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.size, self.size))
        out[np.arange(self.size), self.image] = 1.0
        return out

    def __eq__(self, other):
        return isinstance(other, PermMat) and np.array_equal(self.image, other.image)

    def __repr__(self):
        return f"PermMat({self.image.tolist()})"


def _digit_perm(dims, sigma) -> np.ndarray:
    """Index map sending each position of the digit-reordered mixed-radix
    numbering to its position in the original one."""
    return np.arange(prod(dims), dtype=np.int64).reshape(dims).transpose(sigma).reshape(-1)


def reorder_perm(shapes, sigma) -> tuple[PermMat, PermMat]:
    """Permutation pair (P, Q) for reordering the factors of a Kronecker product.

    Parameters
    ----------
    shapes : sequence of (rows_i, cols_i)
        Shapes of the factors A_0, ..., A_{k-1}.
    sigma : sequence of int
        A permutation of 0..k-1; position t of the reordered product holds
        factor ``sigma[t]``.

    Returns
    -------
    (P, Q) such that for all matrices of the given shapes::

        A_{sigma[0]} x ... x A_{sigma[k-1]} == P @ (A_0 x ... x A_{k-1}) @ Q
    """
    shapes = [(int(r), int(c)) for r, c in shapes]
    k = len(shapes)
    if k < 1:
        raise BadArity("need at least one factor")
    try:
        sigma = [operator.index(t) for t in sigma]
    except TypeError:
        raise BadArity(f"sigma entries must be integers, got {sigma!r}") from None
    if sorted(sigma) != list(range(k)):
        raise BadArity(f"sigma must be a permutation of 0..{k - 1}")
    rows = [r for r, _ in shapes]
    cols = [c for _, c in shapes]
    _check_cap(prod(rows), 1)
    _check_cap(prod(cols), 1)
    # Q undoes the column reordering: the inverse digit transpose, over the reordered dims
    return PermMat(_digit_perm(rows, sigma)), PermMat(_digit_perm([cols[t] for t in sigma], np.argsort(sigma)))
